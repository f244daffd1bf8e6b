"""The four benchmark workloads.

Each one drives the program only through ``virtlprm.cli.main`` with
configs and archives the benchmark generates from its seed, times whole
CLI calls, and checks what they wrote. Why each workload exists, and the
sizes it runs at, are in ``perfbench/README.md``.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import virtlprm.cli as cli

from .reference import ReferenceSurrogate

# Sizes per workload. SMOKE runs the same code paths at tiny sizes.
FULL = {
    "serve_frames": 300, "serve_epochs": 2,
    "plant_train_frames": 160, "plant_cycle_frames": 500, "plant_drift_rate": 0.001,
    "surrogate_frames": 400, "surrogate_epochs": 40,
    "lprmnet_cycles": (48, 16), "lprmnet_epochs": 3, "lprmnet_model": {},
}
SMOKE = {
    "serve_frames": 12, "serve_epochs": 1,
    "plant_train_frames": 20, "plant_cycle_frames": 40, "plant_drift_rate": 0.02,
    "surrogate_frames": 30, "surrogate_epochs": 2,
    "lprmnet_cycles": (10, 6), "lprmnet_epochs": 1,
    "lprmnet_model": {"conv_channels": 2, "trunk_hidden": 8, "trunk_out": 4,
                      "scalar_hidden": 4, "scalar_out": 4, "regression_hidden": 4},
}

# Relative and absolute tolerance of a served virtual reading against the
# float64 reference forward: the program computes in float32.
VIRTUAL_RTOL = 1e-4
VIRTUAL_ATOL = 1e-6


class Accounting:
    """Operations attempted and failed: CLI calls and checked outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class StdoutSink:
    """Stand-in for ``sys.stdout`` that stamps each completed line."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = time.perf_counter()
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        self.lines.extend(parts)
        self.stamps.extend([now] * len(parts))
        return len(text)

    def flush(self) -> None:
        pass


def gaps_ms(stamps) -> np.ndarray:
    """Milliseconds between consecutive line stamps."""
    return np.diff(np.asarray(stamps, dtype=np.float64)) * 1e3


@dataclass
class Call:
    sink: StdoutSink
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_cli(acct: Accounting, argv: list[str]) -> Call:
    """One in-process CLI call with stdout captured; a nonzero exit or an
    exception counts as a failed operation."""
    sink = StdoutSink()
    saved = sys.stdout
    sys.stdout = sink
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # the run goes on; the call counts as failed
        traceback.print_exc(file=sys.stderr)
        code = -1
    finally:
        end = time.perf_counter()
        sys.stdout = saved
    acct.record(f"{argv[0]} exit", code == 0, f"exit code {code}")
    return Call(sink, start, end)


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path


class Workload:
    """Set-up (timed as ``setup_s``), one timed operation, and metrics.

    Every operation records ``items`` (frames or training samples) and
    ``op_s`` (wall time of its CLI calls), so every workload reports the
    same end-to-end metrics, and ``first_output_ms`` (from its first CLI
    call to that call's first stdout line), which is printed but not gated.
    """

    name = ""

    def __init__(self, seed: int, sizes: dict, acct: Accounting):
        self.seed = seed
        self.sizes = sizes
        self.acct = acct
        self.dir: Path | None = None
        self.samples: dict[str, list] = {}

    def gen(self, cfg_dir: Path, out: Path, cycles: list[dict]) -> Call:
        cfg = write_json(cfg_dir / f"gen-{out.name}.json", {"cycles": cycles})
        return run_cli(self.acct, ["gen", "--config", str(cfg), "--out", str(out)])

    def train(self, out: Path, archive: Path, model: str, split: str,
              train: dict, model_config: dict | None = None) -> Call:
        out.mkdir(parents=True, exist_ok=True)
        cfg = write_json(out.parent / f"exp-{out.name}.json", {
            "archive": str(archive), "model": model, "split": split,
            "seed": self.seed, "out_dir": str(out),
            "model_config": model_config or {}, "train": train})
        return run_cli(self.acct, ["train", "--config", str(cfg)])

    def add(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def add_op(self, items: int, seconds: float, first: Call) -> None:
        self.add("items", items)
        self.add("op_s", seconds)
        if first.sink.stamps:
            self.add("first_output_ms", (first.sink.stamps[0] - first.start) * 1e3)

    def reset(self) -> None:
        """Forget the samples taken so far (between untraced and traced)."""
        self.samples = {}

    def setup(self, d: Path) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Benchmark-side preparation after the last set-up; not timed."""

    def op(self) -> None:
        raise NotImplementedError

    def end_to_end(self) -> dict:
        return {"throughput_per_s": (self.throughput(), "1/s")}

    def throughput(self) -> float:
        """Items over the summed wall time of the timed CLI calls."""
        return sum(self.samples["items"]) / sum(self.samples["op_s"])

    def figures(self) -> list[str]:
        """Figures printed beside the metrics, not gated."""
        first = self.samples.get("first_output_ms")
        return [f"first_output_ms (mean over operations) {np.mean(first):.3f}"] if first else []

    def layer_extras(self, tracer) -> tuple[dict, str]:
        """Workload-specific per-layer metrics, and a line that accounts
        for the blocking time with the spans that cover it."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# serve


class Serve(Workload):
    """``infer`` over an archive with A, B and C detectors bypassed."""

    name = "serve"
    BYPASS = ("1A", "12B", "7A", "7B", "20A", "33B")
    ROLES = (("ab", "surrogate-ab"), ("ba", "surrogate-ba"),
             ("c7A", "cset:7A"), ("c7B", "cset:7B"))

    def setup(self, d):
        self.dir = d
        archive = d / "archive"
        self.gen(d, archive, [{"cycle_id": 1, "frame_count": self.sizes["serve_frames"],
                               "seed": self.seed}])
        for role, model in self.ROLES:
            self.train(d / role, archive, model, "surrogate",
                       {"epochs": self.sizes["serve_epochs"], "batch_size": 32})

    def prepare(self):
        d = self.dir
        manifest = json.loads((d / "archive" / "manifest.json").read_text(encoding="utf-8"))
        self.timestamps = [rec["timestamp"] for rec in manifest["frames"]]
        self.readings = np.fromfile(d / "archive" / "readings.bin", dtype="<f4").reshape(
            len(self.timestamps), -1)
        try:
            self.expected = self.reference_virtual()
        except Exception as err:  # e.g. a renamed geometry function: every check fails
            self.acct.record("serve reference forward", False, repr(err))
            self.expected = None
        self.argv = ["infer", "--archive", str(d / "archive"), "--bypass", ",".join(self.BYPASS)]
        for role, _ in self.ROLES:
            self.argv += ["--checkpoint", str(d / role / "checkpoint")]
        self.stream_windows: list[tuple[float, float]] = []

    def reset(self):
        super().reset()
        self.stream_windows = []

    def reference_virtual(self) -> dict[int, np.ndarray]:
        """Expected virtual readings per detector index, from the float64
        reference forward with every bypassed input zeroed."""
        from virtlprm.coredata import DetectorId, default_geometry

        geom = default_geometry()
        ref = {role: ReferenceSurrogate(self.dir / role / "checkpoint") for role, _ in self.ROLES}
        index = {c: geom.detector_index(DetectorId.parse(c)) for c in self.BYPASS}
        inputs = self.readings.astype(np.float64)
        inputs[:, list(index.values())] = 0.0
        a_idx = list(geom.indices_for_set("A"))
        b_idx = list(geom.indices_for_set("B"))
        pred_a = ref["ba"].forward(inputs[:, b_idx])
        pred_b = ref["ab"].forward(inputs[:, a_idx])
        expected = {}
        for code, i in index.items():
            kind = geom.set_of_detector(DetectorId.parse(code))
            if kind == "A":
                expected[i] = pred_a[:, a_idx.index(i)]
            elif kind == "B":
                expected[i] = pred_b[:, b_idx.index(i)]
            else:
                expected[i] = ref[f"c{code}"].forward(np.delete(inputs, i, axis=1))[:, 0]
        return expected

    def op(self):
        call = run_cli(self.acct, self.argv)
        stamps = call.sink.stamps
        if stamps:
            self.add_op(len(stamps), call.seconds, call)
            self.samples.setdefault("gaps_ms", []).extend(gaps_ms(stamps))
            self.stream_windows.append((stamps[0], stamps[-1]))
        self.check(call.sink.lines)

    def check(self, lines: list[str]) -> None:
        acct = self.acct
        n = len(self.timestamps)
        if not acct.record("serve line count", len(lines) == n, f"{len(lines)} lines for {n} frames"):
            return
        if not acct.record("serve reference available", self.expected is not None):
            return
        try:
            rows = [json.loads(line) for line in lines]
            got = np.array([r["readings"] for r in rows], dtype=np.float64)
            virtual = [r["virtual"] for r in rows]
            stamps = [r["timestamp"] for r in rows]
        except (ValueError, KeyError, TypeError) as err:
            acct.record("serve lines parse", False, repr(err))
            return
        if not acct.record("serve readings shape", got.shape == self.readings.shape,
                           f"{got.shape} vs {self.readings.shape}"):
            return
        acct.record("serve timestamps", stamps == self.timestamps)
        measured = np.ones(got.shape[1], dtype=bool)
        measured[list(self.expected)] = False
        same = np.array_equal(got[:, measured].astype(np.float32).view(np.uint32),
                              self.readings[:, measured].view(np.uint32))
        acct.record("serve measured readings bit-equal", same)
        want = set(self.BYPASS)
        acct.record("serve virtual set",
                    all(len(v) == len(want) and set(v) == want for v in virtual))
        worst = max(float(np.max(np.abs(got[:, i] - exp) / (VIRTUAL_ATOL + VIRTUAL_RTOL * np.abs(exp))))
                    for i, exp in self.expected.items())
        acct.record("serve virtual readings match reference", worst <= 1.0,
                    f"worst error {worst:.3g} tolerances")

    def figures(self):
        gaps = self.samples.get("gaps_ms", [])
        if not len(gaps):
            return super().figures()
        p50, p95, p99 = np.percentile(gaps, [50, 95, 99])
        return super().figures() + [
            f"{len(gaps)} line gaps: p50 {p50:.3f} ms, p95 {p95:.3f} ms, p99 {p99:.3f} ms"]

    def layer_extras(self, tracer):
        """Line gaps split into VirtualSensor.infer, other spans under
        cli.infer, and cli.infer's own time (JSON lines, per-frame loop)."""
        spans = tracer.spans
        inside = {"infer": 0.0, "other": 0.0}
        for name, start, end, parent, _ in spans:
            if parent < 0 or spans[parent][0] != "cli.infer":
                continue
            if any(a <= start and end <= b for a, b in self.stream_windows):
                inside["infer" if name == "evaluation.VirtualSensor.infer" else "other"] += end - start
        stream = sum(b - a for a, b in self.stream_windows)
        if stream <= 0:
            return {}, ""
        own = stream - inside["infer"] - inside["other"]
        note = (f"line gaps {stream * 1e3:.1f} ms = VirtualSensor.infer "
                f"{inside['infer'] * 1e3:.1f} ms ({inside['infer'] / stream:.1%}) + cli.infer self "
                f"{own * 1e3:.1f} ms ({own / stream:.1%}) + other spans "
                f"{inside['other'] * 1e3:.1f} ms")
        return {"trace.coverage": ((inside["infer"] + own) / stream, "ratio")}, note


# ---------------------------------------------------------------------------
# plant_data


class PlantData(Workload):
    """``gen`` of a drifting cycle, then ``eval`` and ``report`` over it."""

    name = "plant_data"
    DRIFT = ("2A", "9C", "17B", "30D", "41A")  # criterion 10's set
    THRESHOLD = 0.05  # the report command's default
    # ``report`` flags on an absolute offset, so an injected detector with a
    # low reading can drift by less than the threshold. An injected detector
    # whose expected offset lies within this factor of the threshold may go
    # either way; every other detector must be flagged exactly.
    MARGIN = 1.1

    def setup(self, d):
        self.dir = d
        train_archive = d / "train_archive"
        self.gen(d, train_archive, [{"cycle_id": 1, "frame_count": self.sizes["plant_train_frames"],
                                     "seed": self.seed}])
        for role, model in (("ab", "surrogate-ab"), ("ba", "surrogate-ba")):
            self.train(d / role, train_archive, model, "surrogate",
                       {"epochs": 2, "batch_size": 32})

    def prepare(self):
        d = self.dir
        self.frames = self.sizes["plant_cycle_frames"]
        cfg = write_json(d / "gen-cycle.json", {"cycles": [{
            "cycle_id": 1, "frame_count": self.frames, "seed": self.seed,
            "noise_sigma": 0.005, "drift_rate": self.sizes["plant_drift_rate"],
            "drift_detectors": list(self.DRIFT)}]})
        cycle = str(d / "cycle")
        self.gen_argv = ["gen", "--config", str(cfg), "--out", cycle]
        self.eval_argv = ["eval", "--checkpoint", str(d / "ab" / "checkpoint"),
                          "--checkpoint", str(d / "ba" / "checkpoint"), "--archive", cycle,
                          "--out", str(d / "eval"), "--split", "none", "--reference-oracle"]
        self.report_argv = ["report", "--checkpoint", "oracle", "--archive", cycle,
                            "--out", str(d / "drift")]
        try:
            from virtlprm.coredata import DetectorId, default_geometry

            geom = default_geometry()
        except Exception as err:  # e.g. a renamed geometry function: every check fails
            self.acct.record("plant_data detector geometry", False, repr(err))
            self.paired, self.drift_index = None, None
            return
        self.paired = {det.code for s in "AB" for det in geom.detectors_in_set(s)}
        self.drift_index = {c: geom.detector_index(DetectorId.parse(c)) for c in self.DRIFT}

    def expected_flags(self) -> tuple[set, set]:
        """Injected detectors that must be flagged, and those that may be.

        Frame t carries the drift factor f_t = (1 - rate)^t, so its
        undrifted reading is m_t / f_t and its residual m_t (1 - 1/f_t).
        A least-squares line of those residuals over the timestamps, read at
        the last frame, is the offset ``report`` should find.
        """
        manifest = json.loads((self.dir / "cycle" / "manifest.json").read_text(encoding="utf-8"))
        stamps = np.array([rec["timestamp"] for rec in manifest["frames"]], dtype=np.float64)
        readings = np.fromfile(self.dir / "cycle" / "readings.bin", dtype="<f4").reshape(
            len(stamps), -1)[:, list(self.drift_index.values())].astype(np.float64)
        factor = (1.0 - self.sizes["plant_drift_rate"]) ** np.arange(len(stamps))
        resid = readings * (1.0 - 1.0 / factor)[:, None]
        tc = stamps - stamps.mean()
        slope = tc @ (resid - resid.mean(axis=0)) / (tc @ tc)
        offsets = np.abs(resid.mean(axis=0) + slope * tc[-1])
        must = {c for c, o in zip(self.drift_index, offsets) if o > self.THRESHOLD * self.MARGIN}
        may = {c for c, o in zip(self.drift_index, offsets)
               if self.THRESHOLD / self.MARGIN < o <= self.THRESHOLD * self.MARGIN}
        return must, may

    def op(self):
        gen = run_cli(self.acct, self.gen_argv)
        ev = run_cli(self.acct, self.eval_argv)
        rep = run_cli(self.acct, self.report_argv)
        self.add("gen_s", gen.seconds)
        self.add("eval_s", ev.seconds)
        self.add("report_s", rep.seconds)
        self.add_op(self.frames, gen.seconds + ev.seconds + rep.seconds, gen)
        self.check()

    def check(self):
        acct, d = self.acct, self.dir
        try:
            manifest = json.loads((d / "cycle" / "manifest.json").read_text(encoding="utf-8"))
            per_det = json.loads((d / "eval" / "report.json").read_text(encoding="utf-8"))["per_detector"]
            drift = json.loads((d / "drift" / "drift.json").read_text(encoding="utf-8"))["detectors"]
        except (OSError, ValueError, KeyError) as err:
            acct.record("plant_data outputs readable", False, repr(err))
            return
        if not acct.record("plant_data detector geometry available", self.paired is not None):
            return
        acct.record("gen frame count", manifest.get("frame_count") == self.frames)
        acct.record("eval covers the paired detectors with finite RMSE",
                    set(per_det) == self.paired and all(math.isfinite(v) for v in per_det.values()),
                    f"{len(per_det)} detectors")
        flagged = {code for code, row in drift.items() if row.get("flagged")}
        must, may = self.expected_flags()
        acct.record("report flags exactly the drifting detectors",
                    must <= flagged <= must | may,
                    f"flagged {sorted(flagged)}, expected {sorted(must)} and maybe {sorted(may)}")

    def figures(self):
        s = self.samples
        if not s.get("gen_s"):
            return super().figures()
        return super().figures() + ["frames/s per command: " + ", ".join(
            f"{c} {self.frames * len(s[f'{c}_s']) / sum(s[f'{c}_s']):.1f}"
            for c in ("gen", "eval", "report"))]

    def layer_extras(self, tracer):
        """Share of the three CLI calls' time spent in traced layers."""
        totals = tracer.totals()
        rows = {c: totals[f"cli.{c}"] for c in ("gen", "eval", "report") if f"cli.{c}" in totals}
        total = sum(r["total_s"] for r in rows.values())
        if total <= 0:
            return {}, ""
        own = sum(r["self_s"] for r in rows.values())
        note = "cli calls " + ", ".join(
            f"{c} {r['total_s'] * 1e3:.1f} ms (self {r['self_s'] * 1e3:.1f})" for c, r in rows.items())
        return {"trace.coverage": (1.0 - own / total, "ratio")}, note


# ---------------------------------------------------------------------------
# training


class Train(Workload):
    """One ``train`` call per operation. The training-split size comes from
    the call's own ``split '<spec>': N train / ...`` line."""

    STEP_SPANS = ("models.zero_grads", "models.SurrogateNet.forward_batch",
                  "models.LprmNet.forward_batch", "autodiff.mse_loss",
                  "autodiff.Graph.trace", "autodiff.backward", "training.adamw_step")

    SPLIT_LINE = re.compile(r"^split '[^']*': (\d+) train / ")

    def prepare(self):
        self.epochs = self.sizes[self.epochs_key]
        self.out = self.dir / "run"

    def op(self):
        call = self.train(self.out, self.dir / "archive", self.model, self.split,
                          {"epochs": self.epochs, "batch_size": self.batch_size, **self.extra},
                          self.model_config)
        found = [int(m.group(1)) for m in map(self.SPLIT_LINE.match, call.sink.lines) if m]
        if self.acct.record("train split line", len(found) == 1, f"{len(found)} split lines"):
            self.add_op(self.epochs * found[0], call.seconds, call)
        self.check()

    def check(self):
        acct = self.acct
        try:
            with open(self.out / "history.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            best = min(float(r["val_loss"]) for r in rows)
        except (OSError, ValueError, KeyError) as err:
            acct.record("history readable", False, repr(err))
            return
        acct.record("history has one row per epoch", len(rows) == self.epochs,
                    f"{len(rows)} rows for {self.epochs} epochs")
        if acct.record("val_mse finite", math.isfinite(best), f"{best}"):
            self.add("val_mse", best)
        try:
            from virtlprm.models import load_checkpoint

            ok, detail = load_checkpoint(self.out / "checkpoint").parameter_count() > 0, ""
        except Exception as err:  # any load failure is a failed check
            ok, detail = False, repr(err)
        acct.record("checkpoint reloads", ok, detail)

    def figures(self):
        best = self.samples.get("val_mse")
        return super().figures() + (
            [f"val_mse (best validation loss, median over calls) {np.median(best):.6g}"]
            if best else [])

    def layer_extras(self, tracer):
        """Step time (zero_grads start to adamw_step end) split into the
        spans that should cover it."""
        windows: dict[int, list[float]] = {}
        for name, start, end, _, req in tracer.spans:
            if name == "models.zero_grads":
                windows[req] = [start, end]
            elif name == "training.adamw_step" and req in windows:
                windows[req][1] = end
        parts = dict.fromkeys(self.STEP_SPANS, 0.0)
        for name, start, end, _, req in tracer.spans:
            w = windows.get(req)
            if name in parts and w and w[0] <= start and end <= w[1]:
                parts[name] += end - start
        out = {}
        total = sum(b - a for a, b in windows.values())
        if total <= 0:
            return out, ""
        covered = sum(parts.values())
        out["trace.coverage"] = (covered / total, "ratio")
        note = (f"{len(windows)} steps {total * 1e3:.1f} ms = " + " + ".join(
            f"{n} {v * 1e3:.1f}" for n, v in parts.items() if v)
            + f" + uncovered {(total - covered) * 1e3:.1f} ms")
        return out, note


class TrainSurrogate(Train):
    name = "train_surrogate"
    model = "surrogate-ab"
    split = "surrogate"
    batch_size = 64
    extra = {"bypass_p": 0.2}
    model_config = {"hidden": 256}
    epochs_key = "surrogate_epochs"

    def setup(self, d):
        self.dir = d
        self.gen(d, d / "archive", [{"cycle_id": 1, "frame_count": self.sizes["surrogate_frames"],
                                     "seed": self.seed}])


class TrainLprmNet(Train):
    name = "train_lprmnet"
    model = "lprmnet:1A"
    split = "holdout:2"
    batch_size = 16
    extra = {}
    epochs_key = "lprmnet_epochs"

    @property
    def model_config(self):
        return self.sizes["lprmnet_model"]

    def setup(self, d):
        self.dir = d
        self.gen(d, d / "archive", [{"cycle_id": c, "frame_count": n, "seed": self.seed}
                                    for c, n in enumerate(self.sizes["lprmnet_cycles"], start=1)])


WORKLOADS = {w.name: w for w in (Serve, PlantData, TrainSurrogate, TrainLprmNet)}
