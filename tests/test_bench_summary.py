"""``tools/bench_summary.py`` turns paired benchmark runs into a BENCH summary."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "bench_summary"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary",
                                                  ROOT / "tools" / "bench_summary.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run_dirs(tmp_path, throughputs):
    """Each side's fixture run, copied once per seed with the given throughput."""
    dirs = {}
    for side in ("parent", "change"):
        (fixture,) = (FIXTURES / side).glob("*.json")
        base = json.loads(fixture.read_text())
        d = tmp_path / side
        d.mkdir()
        for seed, value in enumerate(throughputs[side], start=1):
            run = copy.deepcopy(base)
            run["meta"]["seed"] = seed
            run["metrics"]["throughput_per_s"]["value"] = value
            (d / f"serve-seed{seed}-trace0-{seed}.json").write_text(json.dumps(run))
        # skipped: a traced run and a smoke run of a paired seed
        for key in ("trace", "smoke"):
            run = copy.deepcopy(base)
            run["meta"][key] = 1
            (d / f"serve-seed1-trace{int(key == 'trace')}-9{key}.json").write_text(json.dumps(run))
        dirs[side] = d
    return dirs["parent"], dirs["change"]


def test_fixture_pair(tmp_path):
    summary = load_tool().summarise(FIXTURES / "parent", FIXTURES / "change", BENCHMARK)
    serve = summary["workloads"]["serve"]
    assert serve["pairs"] == 1 and serve["seeds"] == [1] and serve["unpaired_seeds"] == []
    parent, change = serve["parent"], serve["change"]
    assert parent["git_sha"] == "1" * 40 and change["git_sha"] is None
    assert (parent["src_py_lines"], change["src_py_lines"]) == (3376, 3400)
    assert parent["nproc"] == 2 and parent["blas"].startswith("scipy-openblas")
    assert parent["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert parent["host_probe_ms"] == {"median": 7.0, "q1": 6.5, "q3": 7.5}
    assert (change["attempted"], change["failed"]) == (120, 1)
    assert change["metrics"]["throughput_per_s"] == {
        "unit": "1/s", "median": 1200.0, "q1": 1200.0, "q3": 1200.0, "values": [1200.0]}
    compared = serve["compared"]
    assert compared["throughput_per_s"]["change_wins"] == 1
    assert compared["throughput_per_s"]["ratio_median"] == pytest.approx(1.2)
    assert compared["peak_rss_mb"]["change_wins"] == 1  # lower is better
    assert compared["setup_s"]["change_wins"] == compared["setup_s"]["parent_wins"] == 0


def test_quartiles_wins_and_unpaired_seeds(tmp_path, capsys):
    parent_dir, change_dir = run_dirs(tmp_path, {
        "parent": [100.0, 200.0, 300.0, 400.0, 500.0],
        "change": [110.0, 190.0, 330.0, 440.0]})
    out = tmp_path / "BENCH_1.json"
    assert load_tool().main([str(parent_dir), str(change_dir), "--out", str(out)]) == 0
    assert "serve: 4 pairs" in capsys.readouterr().out
    serve = json.loads(out.read_text())["workloads"]["serve"]
    assert serve["seeds"] == [1, 2, 3, 4] and serve["unpaired_seeds"] == [5]
    parent = serve["parent"]["metrics"]["throughput_per_s"]
    assert (parent["q1"], parent["median"], parent["q3"]) == (175.0, 250.0, 325.0)
    assert serve["parent"]["runs"] == 4 and serve["parent"]["attempted"] == 400
    t = serve["compared"]["throughput_per_s"]
    assert (t["change_wins"], t["parent_wins"]) == (3, 1)
    assert t["ratios"] == pytest.approx([1.1, 0.95, 1.1, 1.1])
    assert t["ratio_median"] == pytest.approx(1.1)


def test_two_runs_of_one_seed_are_refused(tmp_path):
    parent_dir, change_dir = run_dirs(tmp_path, {"parent": [1.0], "change": [1.0]})
    (change_dir / "serve-seed1-trace0-77.json").write_text(
        (change_dir / "serve-seed1-trace0-1.json").read_text())
    with pytest.raises(SystemExit, match="two runs of serve on seed 1"):
        load_tool().summarise(parent_dir, change_dir, BENCHMARK)


def test_mixed_source_trees_are_refused(tmp_path, capsys):
    parent_dir, change_dir = run_dirs(tmp_path, {"parent": [1.0, 2.0], "change": [1.0, 2.0]})
    run = json.loads((change_dir / "serve-seed2-trace0-2.json").read_text())
    run["meta"]["src_sha256"] = "cc"
    (change_dir / "serve-seed2-trace0-2.json").write_text(json.dumps(run))
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main([str(parent_dir), str(change_dir), "--out", str(tmp_path / "B.json")])
    assert exit_info.value.code == 2
    assert "change runs come from 2 source trees (src_sha256 bb, cc)" in capsys.readouterr().err
    assert not (tmp_path / "B.json").exists()


def test_self_comparison_is_refused(tmp_path, capsys):
    parent_dir, change_dir = run_dirs(tmp_path, {"parent": [1.0], "change": [1.0]})
    for path in change_dir.glob("*.json"):
        run = json.loads(path.read_text())
        run["meta"]["src_sha256"] = "aa"
        path.write_text(json.dumps(run))
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main([str(parent_dir), str(change_dir), "--out", str(tmp_path / "B.json")])
    assert exit_info.value.code == 2
    assert "the same source tree (src_sha256 aa)" in capsys.readouterr().err
