"""Per-layer metrics derived from a traced run's spans.

``ms`` is inclusive time summed over calls, ``self_ms`` excludes the time
of child spans, ``calls`` counts calls, ``mb`` sums the size on disk of
what a call wrote or read, and ``gflop`` is computed from operand shapes
(forward only), not measured. A metric whose function is missing from the
program, or was not called on this workload, is absent, never reported
as 0.
"""

from __future__ import annotations

import numpy as np

from .tracing import OPS

ATTENTION_OPS = {"attention.affinity", "attention.aggregate"}

# The per-layer metrics of BENCHMARK.json, in its order: those that every
# workload's timed calls produce, so each traced result line holds all of
# them. The run prints the others too, where the workload calls them.
GATED = (
    "autodiff.matmul.fwd_ms", "autodiff.matmul.calls", "autodiff.matmul.gflop",
    "autodiff.gelu.fwd_ms", "autodiff.gelu.calls",
    "autodiff.batch_norm.fwd_ms", "autodiff.batch_norm.calls",
    "autodiff.add.fwd_ms", "autodiff.add.calls",
    "models.forward_batch.self_ms",
    "coredata.load_archive.ms", "coredata.load_archive.mb",
    "cli.self_ms",
    "trace.coverage", "trace.overhead", "trace.spans",
)


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else None


def _adamw_spacing_ms(tracer) -> list[float]:
    """Start-to-start spacing of consecutive AdamW steps inside one CLI call."""
    spans = tracer.spans
    by_root: dict[int, list[float]] = {}
    for idx, (name, start, _, parent, _) in enumerate(spans):
        if name != "training.adamw_step":
            continue
        root = idx
        while spans[root][3] >= 0:
            root = spans[root][3]
        by_root.setdefault(root, []).append(start)
    out = []
    for starts in by_root.values():
        out.extend(np.diff(starts) * 1e3)
    return out


def _put_sum(out, metric, totals, spans) -> None:
    """Self time summed over ``spans``; absent when none was called."""
    rows = [totals[s] for s in spans if s in totals]
    if rows:
        out[metric] = (sum(r["self_s"] for r in rows) * 1e3, "ms")


def layer_metrics(tracer) -> dict:
    totals = tracer.totals()
    out: dict[str, tuple] = {}

    def put(metric, span, kind):
        r = totals.get(span)
        if r is None:
            return
        value = {"ms": r["total_s"] * 1e3, "self_ms": r["self_s"] * 1e3,
                 "calls": r["calls"]}[kind]
        out[metric] = (value, "count" if kind == "calls" else "ms")

    for _, _, span in OPS:
        put(f"{span}.fwd_ms", span, "ms")
        put(f"{span}.bwd_ms", span + ".bwd", "ms")
        if span not in ATTENTION_OPS:
            put(f"{span}.calls", span, "calls")
    put("autodiff.backward.self_ms", "autodiff.backward", "self_ms")
    put("autodiff.Graph.trace.ms", "autodiff.Graph.trace", "ms")
    for span, gflop in tracer.gflop.items():
        out[f"{span}.gflop"] = (gflop, "GFLOP_computed")
    put("attention.axial_attention.ms", "attention.axial_attention", "ms")

    put("training.adamw_step.ms", "training.adamw_step", "ms")
    put("training.adamw_step.calls", "training.adamw_step", "calls")
    spacing = _adamw_spacing_ms(tracer)
    if spacing:
        out["training.step_ms_p50"] = (_percentile(spacing, 50), "ms")
        out["training.step_ms_p99"] = (_percentile(spacing, 99), "ms")
    put("training.validation_loss.ms", "training.validation_loss", "ms")
    put("training.batched_predict.ms", "training.batched_predict", "ms")

    for model in ("SurrogateNet", "LprmNet"):
        span = f"models.{model}.forward_batch"
        put(f"{span}.self_ms", span, "self_ms")
    _put_sum(out, "models.forward_batch.self_ms", totals,
             [f"models.{m}.forward_batch" for m in ("SurrogateNet", "LprmNet")])
    for span in ("models.zero_grads", "models.snapshot", "models.save_checkpoint",
                 "models.load_checkpoint", "models.corestate_batch",
                 "coredata.save_archive", "coredata.load_archive",
                 "coredata.filter_transients", "coredata.bypass_augment",
                 "synthplant.generate_cycle", "synthplant.oracle_readings",
                 "evaluation.predict"):
        put(f"{span}.ms", span, "ms")
    for span in ("models.save_checkpoint", "coredata.save_archive", "coredata.load_archive"):
        if span in tracer.mb:
            out[f"{span}.mb"] = (tracer.mb[span], "MB")
    put("synthplant.oracle_readings.calls", "synthplant.oracle_readings", "calls")

    infer = tracer.durations_ms("evaluation.VirtualSensor.infer")
    if len(infer):
        out["evaluation.VirtualSensor.infer.ms_p50"] = (_percentile(infer, 50), "ms")
        out["evaluation.VirtualSensor.infer.ms_p99"] = (_percentile(infer, 99), "ms")
    put("evaluation.VirtualSensor.infer.calls", "evaluation.VirtualSensor.infer", "calls")
    put("evaluation.rmse_report.self_ms", "evaluation.rmse_report", "self_ms")
    put("evaluation.drift_report.self_ms", "evaluation.drift_report", "self_ms")
    commands = ("gen", "train", "eval", "infer", "report")
    for cmd in commands:
        put(f"cli.{cmd}.self_ms", f"cli.{cmd}", "self_ms")
    _put_sum(out, "cli.self_ms", totals, [f"cli.{c}" for c in commands])
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def self_time_table(tracer) -> str:
    """Every span name with calls, inclusive and self time, by self time."""
    totals = tracer.totals()
    lines = [f"{'span':<44} {'calls':>8} {'total ms':>12} {'self ms':>12}"]
    for name, r in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<44} {r['calls']:>8d} {r['total_s'] * 1e3:>12.3f} "
                     f"{r['self_s'] * 1e3:>12.3f}")
    return "\n".join(lines)
