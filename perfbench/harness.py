"""Benchmark harness: set-up, timed loop, checks, metrics, result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs half the time untraced and half traced and prints every
per-layer metric the workload produced, a self-time table, and the tracing
overhead. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``; its metrics are exactly those of
``BENCHMARK.json`` for the mode, the same names on every workload. A
results file (run metadata included) and, when traced, a span file are
written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "runs"
# Set-up repeats at least this often and until this long has passed
# (capped), and ``setup_s`` is the median: a set-up of 0.1 s is noise alone.
SETUP_REPEATS = (3, 25)
SETUP_MIN_SECONDS = 3.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["serve", "plant_data", "train_surrogate", "train_lprmnet"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def import_program():
    """Import virtlprm from this checkout's ``src``, and from nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import virtlprm

    if not Path(virtlprm.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"virtlprm imported from {virtlprm.__file__}, not {SRC}")
    return virtlprm


def git_sha(root: Path):
    """``git rev-parse HEAD``, or None outside a git checkout."""
    if not (root / ".git").exists():  # not inside an enclosing repository either
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(args) -> dict:
    import scipy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "git_sha": git_sha(ROOT), "src_sha256": digest.hexdigest(),
        "src_py_lines": lines, "src_py_files": len(files),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas, "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def host_probe_ms() -> float:
    """Median wall time of a fixed pure-Python loop. It gauges how fast the
    host ran around the timed loop, so a shift in the metrics between runs
    can be told apart from a shift in the host's speed. Metadata, not a
    metric: it measures no part of the program."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for j in range(100_000):
            total += j * j
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(workload, seconds: float) -> tuple[int, float]:
    """Run operations until the next one would likely overrun ``seconds``;
    always at least one. Each starts from a collected heap. Returns the
    operation count and the peak RSS once the first operation has ended:
    later operations repeat the same work, and how many fit in the window
    depends on the host's speed, so only allocator noise could move it."""
    start = time.perf_counter()
    count = 0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        workload.op()
        count += 1
        if count == 1:
            rss = peak_rss_mb()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return count, rss


def measured(metric_fn, notes: list[str], fallback):
    """``metric_fn()``, or ``fallback`` when no operation produced output to
    measure (the failed operations are already counted)."""
    try:
        return metric_fn()
    except (KeyError, ZeroDivisionError) as err:
        notes.append(f"no measurement: no operation produced output ({err!r})")
        return fallback


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except ImportError as err:
        print(f"perfbench: cannot import the program: {err}", file=sys.stderr)
        return 2
    from . import layers, workloads
    from .tracing import Tracer

    meta = metadata(args)
    acct = workloads.Accounting()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, acct)
    RUNS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = RUNS / f"work-{stem}"
    metrics: dict[str, tuple[float, str]] = {}  # all printed; ``gated`` goes in the result
    notes: list[str] = []
    try:
        setup_s = []
        low, high = SETUP_REPEATS if not args.trace else (1, 1)
        for i in range(high):
            if i >= low and sum(setup_s) >= SETUP_MIN_SECONDS:
                break
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
            d = work / f"setup{i}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.setup(d)
            setup_s.append(time.perf_counter() - t0)
        wl.prepare()

        meta["host_probe_ms"] = [host_probe_ms()]
        if not args.trace:
            ops, rss = timed_loop(wl, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
            metrics["peak_rss_mb"] = (rss, "MB")
            metrics.update(measured(wl.end_to_end, notes, {}))
            gated = dict(metrics)
            notes.append(f"{ops} timed operations; setup_s is the median of "
                         f"{len(setup_s)} set-ups: " + ", ".join(f"{s:.3f}" for s in setup_s))
        else:
            ops_plain, _ = timed_loop(wl, args.seconds / 2)
            plain = measured(wl.throughput, notes, None)
            wl.reset()
            tracer = Tracer()
            tracer.install()
            try:
                ops_traced, _ = timed_loop(wl, args.seconds / 2)
            finally:
                tracer.uninstall()
            metrics.update(layers.layer_metrics(tracer))
            extras, accounting = wl.layer_extras(tracer)
            metrics.update(extras)
            traced = measured(wl.throughput, notes, None)
            if plain and traced:
                metrics["trace.overhead"] = (traced / plain, "ratio")
            gated = {k: metrics[k] for k in layers.GATED if k in metrics}
            spans_path = RUNS / f"{stem}.spans.csv.gz"
            tracer.write(spans_path)
            notes.append(f"{ops_plain} untraced and {ops_traced} traced operations; "
                         f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
            if accounting:
                notes.append(accounting)
            if tracer.absent:
                notes.append("absent (not found in the program): " + ", ".join(tracer.absent))
            print(layers.self_time_table(tracer))
        notes.extend(wl.figures())
        meta["host_probe_ms"].append(host_probe_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": acct.failed == 0, "attempted": acct.attempted,
              "failed": acct.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}}
    (RUNS / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "notes": notes, "failures": acct.failures, **result,
         "printed": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
         "samples": {k: [float(x) for x in v] for k, v in wl.samples.items()}}, indent=1),
        encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"{'smoke ' if args.smoke else ''}results in {(RUNS / stem).relative_to(ROOT)}.json")
    print("meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print(note)
    for failure in acct.failures:
        print("FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}{'' if name in gated else '  (not gated)'}")
    print(f"{'error_rate':<44} {acct.error_rate:>14.6g} ({acct.failed} failed of "
          f"{acct.attempted} attempted)")
    print(json.dumps(result))
    return 0
