"""Self-test of the benchmark's own code, at smoke sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench/selftest.py -q``.
The file name keeps it out of the repository's default test collection.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, layers, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = sorted(w["name"] for w in SPEC["workloads"])
TIMED_COMMAND = {"serve": "infer", "plant_data": "report", "train_surrogate": "train",
                 "train_lprmnet": "train"}


def run_bench(capsys, workload, trace):
    """The result line, and the names of the metrics printed above it."""
    code = harness.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace), "--smoke"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(out[-1]), {line.split()[0] for line in out[:-1] if line.strip()}


def test_workloads_match_benchmark_json():
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    assert list(layers.GATED) == list(LAYER_UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(capsys, workload):
    result, _ = run_bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(E2E_UNITS)  # every workload, every metric
    for name, m in result["metrics"].items():
        assert m["unit"] == E2E_UNITS[name]
        assert m["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layer_metrics(capsys, workload):
    result, printed = run_bench(capsys, workload, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert list(metrics) == list(LAYER_UNITS)  # every workload, every metric
    for name, m in metrics.items():
        assert m["unit"] == LAYER_UNITS[name], name
        assert m["value"] > 0, name
    assert 0.0 < metrics["trace.coverage"]["value"] <= 1.0 + 1e-9
    assert metrics["trace.overhead"]["value"] > 0
    # Layers outside the gated set are printed where the workload calls them.
    assert f"cli.{TIMED_COMMAND[workload]}.self_ms" in printed
    assert ("cli.gen.self_ms" in printed) == (workload == "plant_data")  # set-up is untraced
    assert ("autodiff.conv2d.fwd_ms" in printed) == (workload == "train_lprmnet")


def test_sink_stamps_lines_and_gaps():
    sink = workloads.StdoutSink()
    sink.write("a")
    assert sink.lines == []
    sink.write("b\nc\n")
    sink.write("d")
    assert sink.lines == ["ab", "c"] and len(sink.stamps) == 2
    assert np.allclose(workloads.gaps_ms([1.0, 1.002, 1.0055]), [2.0, 3.5])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def perf_counter(self):
        return next(self.ticks)


def test_self_time_excludes_children(monkeypatch):
    # a [0, 10] holds b [1, 4] and a [5, 7]; the inner a holds c [5.5, 6].
    monkeypatch.setattr(tracing, "time", FakeClock([0, 1, 4, 5, 5.5, 6, 7, 10]))
    t = tracing.Tracer()
    outer = t.open("a")
    t.close(t.open("b"))
    inner = t.open("a")
    t.close(t.open("c"))
    t.close(inner)
    t.close(outer)
    totals = t.totals()
    assert totals["a"]["calls"] == 1 and totals["a"]["total_s"] == 10
    assert totals["a"]["self_s"] == pytest.approx((10 - 3 - 2) + (2 - 0.5))
    assert totals["b"]["self_s"] == 3 and totals["c"]["self_s"] == 0.5


def test_tracer_restores_and_reports_missing_names(monkeypatch):
    harness.import_program()
    import virtlprm.attention as attention
    import virtlprm.autodiff as autodiff

    original = autodiff.conv2d
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + [
        ("virtlprm.evaluation", "NoSuchPredictor.predict", "evaluation.missing")])
    t = tracing.Tracer()
    t.install()
    try:
        assert autodiff.conv2d is not original and attention.conv2d is autodiff.conv2d
        x = autodiff.Tensor(np.ones((1, 2, 4, 4), dtype=np.float32), requires_grad=True)
        k = autodiff.Tensor(np.ones((3, 2, 3, 3), dtype=np.float32), requires_grad=True)
        autodiff.tsum(attention.conv2d(x, k, autodiff.Tensor(np.zeros(3)))).backward()
    finally:
        t.uninstall()
    assert autodiff.conv2d is original and attention.conv2d is original
    assert t.absent == ["evaluation.missing"]
    metrics = layers.layer_metrics(t)
    assert metrics["autodiff.conv2d.calls"][0] == 1
    assert metrics["autodiff.conv2d.gflop"][0] == pytest.approx(2 * 3 * 2 * 9 * 16 / 1e9)
    assert metrics["autodiff.conv2d.bwd_ms"][0] > 0
    assert "autodiff.matmul.fwd_ms" not in metrics  # not called: absent, not 0


def test_failing_check_raises_error_rate(tmp_path):
    harness.import_program()
    acct = workloads.Accounting()
    serve = workloads.Serve(3, workloads.SMOKE, acct)
    serve.setup(tmp_path)
    serve.prepare()
    serve.op()
    assert acct.failed == 0 and acct.error_rate == 0
    lines = workloads.run_cli(acct, serve.argv).sink.lines
    row = json.loads(lines[0])
    row["readings"][2] += 1e-3  # 1C is measured, not bypassed
    serve.check([json.dumps(row)] + lines[1:])
    assert acct.failed == 1 and acct.error_rate > 0
    assert acct.failures == ["serve measured readings bit-equal"]


def test_missing_program_name_is_a_failed_check(tmp_path, monkeypatch):
    harness.import_program()
    import virtlprm.models as models

    acct = workloads.Accounting()
    train = workloads.TrainSurrogate(3, workloads.SMOKE, acct)
    train.setup(tmp_path)
    train.prepare()
    monkeypatch.delattr(models, "load_checkpoint")
    train.op()
    assert acct.failed == 1 and acct.failures[0].startswith("checkpoint reloads: ImportError")
    # The split size is read from the train call's own output.
    from virtlprm.coredata import filter_transients, load_archive, split_surrogate

    n_train = len(split_surrogate(filter_transients(load_archive(tmp_path / "archive")), seed=3)[0])
    assert train.samples["items"] == [train.epochs * n_train]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
