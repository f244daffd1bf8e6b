"""Summarise paired benchmark runs of a parent and a change as ``BENCH_<n>.json``.

    python3 tools/bench_summary.py PARENT_RUNS CHANGE_RUNS --out BENCH_12.json

PARENT_RUNS and CHANGE_RUNS are the ``perfbench/runs`` directories of two
checkouts (or any directories of its ``<workload>-seed<s>-trace<t>-<pid>.json``
result files). Untraced full-size runs are read; traced and smoke runs are
skipped. A parent run and a change run of the same workload and seed form a
pair; a seed run on one side only is listed as unpaired and counts in no
median. Each side's runs must come from one source tree (one ``src_sha256``),
and the two sides from two different ones; anything else is refused with exit
code 2. For each workload, side and end-to-end metric of ``BENCHMARK.json``
the summary holds the median, the quartiles and the run values, and for each
metric the pairs each side won (ties count for neither) and the per-pair
ratios change / parent. Each side also records what the runs say about the
code and the host: git SHA, SHA-256 and line count of ``src/``, ``nproc``,
the BLAS library and thread pin, and ``host_probe_ms``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, linearly interpolated (numpy's default method)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    """Untraced full-size runs of ``directory`` by (workload, seed)."""
    runs = {}
    for path in sorted(directory.glob("*-trace0-*.json")):
        run = json.loads(path.read_text(encoding="utf-8"))
        meta = run["meta"]
        if meta.get("trace") or meta.get("smoke"):
            continue
        key = (meta["workload"], int(meta["seed"]))
        if key in runs:
            raise SystemExit(f"{directory}: two runs of {key[0]} on seed {key[1]}; "
                             "pair each seed once")
        runs[key] = run
    return runs


def distinct(values):
    """The one value all runs agree on, else the sorted distinct values."""
    seen = sorted({json.dumps(v, sort_keys=True) for v in values})
    out = [json.loads(v) for v in seen]
    return out[0] if len(out) == 1 else out


def side_summary(runs: list[dict], metrics: list[dict]) -> dict:
    metas = [r["meta"] for r in runs]
    probes = [p for m in metas for p in m.get("host_probe_ms", [])]
    out = {
        "runs": len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "git_sha": distinct(m.get("git_sha") for m in metas),
        "src_sha256": distinct(m.get("src_sha256") for m in metas),
        "src_py_lines": distinct(m.get("src_py_lines") for m in metas),
        "nproc": distinct(m.get("nproc") for m in metas),
        "blas": distinct(m.get("blas") for m in metas),
        "blas_threads": distinct(m.get("blas_threads") for m in metas),
        "host_probe_ms": quartiles(probes) if probes else None,
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        out["metrics"][name] = {"unit": metric["unit"], **quartiles(values), "values": values}
    return out


class RefusedComparison(ValueError):
    """The two sides' runs do not compare one source tree against another."""


def source_of(runs: dict, side: str):
    """The one ``src_sha256`` of a side's runs; a side of mixed sources is refused."""
    shas = sorted({str(r["meta"].get("src_sha256")) for r in runs.values()})
    if len(shas) > 1:
        raise RefusedComparison(f"{side} runs come from {len(shas)} source trees "
                                f"(src_sha256 {', '.join(shas)}); summarise one tree per side")
    return shas[0] if shas else None


def summarise(parent_dir: Path, change_dir: Path, benchmark: dict) -> dict:
    metrics = benchmark["end_to_end"]
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    source, change_source = source_of(parent, "parent"), source_of(change, "change")
    if source is not None and source == change_source:
        raise RefusedComparison(f"parent and change runs come from the same source tree "
                                f"(src_sha256 {source}); nothing is compared")
    workloads = {}
    for name in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == name and (w, s) in change)
        unpaired = sorted({s for w, s in parent if w == name} ^ {s for w, s in change if w == name})
        if not seeds:
            workloads[name] = {"pairs": 0, "seeds": [], "unpaired_seeds": unpaired}
            continue
        p_runs = [parent[(name, s)] for s in seeds]
        c_runs = [change[(name, s)] for s in seeds]
        compared = {}
        for metric in metrics:
            key, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            pairs = [(p["metrics"][key]["value"], c["metrics"][key]["value"])
                     for p, c in zip(p_runs, c_runs)]
            ratios = [c / p for p, c in pairs]  # a gated metric is never 0
            compared[key] = {
                "better": metric["better"], "bound": metric["bound"],
                "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
                "parent_wins": sum(sign * (c - p) < 0 for p, c in pairs),
                "ratio_median": statistics.median(ratios),
                "ratios": ratios,
            }
        workloads[name] = {
            "pairs": len(seeds), "seeds": seeds, "unpaired_seeds": unpaired,
            "parent": side_summary(p_runs, metrics),
            "change": side_summary(c_runs, metrics),
            "compared": compared,
        }
    return {"workloads": workloads}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_runs", type=Path)
    ap.add_argument("change_runs", type=Path)
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    try:
        summary = summarise(args.parent_runs, args.change_runs, benchmark)
    except RefusedComparison as err:
        ap.error(str(err))  # exit 2
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, w in summary["workloads"].items():
        print(f"{name}: {w['pairs']} pairs")
        for key, c in w.get("compared", {}).items():
            p, ch = w["parent"]["metrics"][key], w["change"]["metrics"][key]
            print(f"  {key:<18} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> "
                  f"{ch['median']:.6g} [{ch['q1']:.6g}, {ch['q3']:.6g}], "
                  f"change wins {c['change_wins']}/{w['pairs']}, "
                  f"median ratio {c['ratio_median']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
