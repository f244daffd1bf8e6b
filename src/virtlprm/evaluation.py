"""Model evaluation: per-detector RMSE reports, virtual readings for
bypassed detectors, and residual-trend diagnostics for calibration drift.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coredata import LEVELS, CoreGeometry, DataError, DetectorId, LprmFrame
from .models import LprmNet, SurrogateNet, corestate_batch
from .synthplant import oracle_readings
from .training import batched_predict


class CoverageError(DataError):
    """A requested detector has no model able to predict it."""


# ---------------------------------------------------------------------------
# predictors: anything that can fill (part of) a 172-wide reading vector


class OraclePredictor:
    """Analytic response model: predicts every detector from the core state."""

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.arange(geom.detector_count, dtype=np.intp)

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        frames = list(frames)
        batch = corestate_batch(frames)
        tp = np.array([f.state.thermal_power for f in frames], dtype=np.float32)
        return oracle_readings(batch["np"].transpose(0, 2, 3, 1),
                               batch["rv"].transpose(0, 2, 3, 1), tp, geom)


class PairedSurrogatePredictor:
    """Both mirror-set models together: measured readings of each set feed
    the model of the other, covering the 152 paired detectors."""

    def __init__(self, model_ab: SurrogateNet, model_ba: SurrogateNet):
        self.model_ab = model_ab
        self.model_ba = model_ba

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.sort(np.concatenate([geom.indices_for_set("A"),
                                       geom.indices_for_set("B")]))

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        frames = list(frames)
        readings = np.stack([f.readings for f in frames])
        a_idx = geom.indices_for_set("A")
        b_idx = geom.indices_for_set("B")
        out = np.full((len(frames), geom.detector_count), np.nan, dtype=np.float32)
        out[:, b_idx] = batched_predict(self.model_ab, {"x": readings[:, a_idx]})
        out[:, a_idx] = batched_predict(self.model_ba, {"x": readings[:, b_idx]})
        return out


class SetSurrogatePredictor:
    """One mirror-set model alone: measured readings of its input set feed
    predictions for the opposite set."""

    def __init__(self, model: SurrogateNet, input_set: str):
        if input_set not in ("A", "B"):
            raise DataError(f"input set must be 'A' or 'B', got {input_set!r}")
        self.model = model
        self.input_set = input_set
        self.output_set = "B" if input_set == "A" else "A"

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return geom.indices_for_set(self.output_set)

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        frames = list(frames)
        readings = np.stack([f.readings for f in frames])
        out = np.full((len(frames), geom.detector_count), np.nan, dtype=np.float32)
        x = readings[:, geom.indices_for_set(self.input_set)]
        out[:, geom.indices_for_set(self.output_set)] = batched_predict(self.model, {"x": x})
        return out


class CompositePredictor:
    """Union of several predictors with disjoint coverage."""

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise DataError("composite predictor needs at least one part")

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        sets = [set(int(i) for i in p.covered(geom)) for p in self.parts]
        merged = set()
        for s in sets:
            if merged & s:
                raise DataError("composite predictor parts overlap in coverage")
            merged |= s
        return np.array(sorted(merged), dtype=np.intp)

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        frames = list(frames)
        out = np.full((len(frames), geom.detector_count), np.nan, dtype=np.float32)
        for p in self.parts:
            idx = np.asarray(p.covered(geom), dtype=np.intp)
            out[:, idx] = p.predict(frames, geom)[:, idx]
        return out


class AxisDetectorPredictor:
    """Per-detector models for the symmetry axis: each predicts its target
    from all other measured readings."""

    def __init__(self, models: dict[DetectorId, SurrogateNet]):
        self.models = dict(models)

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.sort(np.array([geom.detector_index(d) for d in self.models],
                                dtype=np.intp))

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        frames = list(frames)
        readings = np.stack([f.readings for f in frames])
        out = np.full((len(frames), geom.detector_count), np.nan, dtype=np.float32)
        for det, model in self.models.items():
            idx = geom.detector_index(det)
            x = np.delete(readings, idx, axis=1)
            out[:, idx] = batched_predict(model, {"x": x})[:, 0]
        return out


class LprmNetPredictor:
    """Per-detector core-state models; covers the detectors it holds."""

    def __init__(self, models: dict[DetectorId, LprmNet]):
        self.models = dict(models)

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.sort(np.array([geom.detector_index(d) for d in self.models],
                                dtype=np.intp))

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        frames = list(frames)
        inputs = corestate_batch(frames)
        out = np.full((len(frames), geom.detector_count), np.nan, dtype=np.float32)
        for det, model in self.models.items():
            out[:, geom.detector_index(det)] = batched_predict(model, inputs)[:, 0]
        return out


# ---------------------------------------------------------------------------
# RMSE report


@dataclass
class GroupStats:
    mean_rmse: float
    max_rmse: float
    detector_count: int


@dataclass
class RmseReport:
    """Per-detector RMSE plus aggregates: one overall row and one row per
    axial level A-D. ``reference`` optionally carries the same aggregates
    for a comparison predictor."""

    per_detector: dict[str, float]
    groups: dict[str, GroupStats]
    percent_error: float
    reference: dict[str, GroupStats] | None = None

    ROWS = ("overall",) + LEVELS

    def to_dict(self) -> dict:
        out = {
            "per_detector": self.per_detector,
            "groups": {k: vars(v) for k, v in self.groups.items()},
            "percent_error": self.percent_error,
        }
        if self.reference is not None:
            out["reference"] = {k: vars(v) for k, v in self.reference.items()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RmseReport":
        ref = data.get("reference")
        return cls(
            per_detector=dict(data["per_detector"]),
            groups={k: GroupStats(**v) for k, v in data["groups"].items()},
            percent_error=data["percent_error"],
            reference=None if ref is None else {k: GroupStats(**v) for k, v in ref.items()},
        )

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "RmseReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = ["row", "mean_rmse", "max_rmse", "detectors"]
            if self.reference is not None:
                header += ["reference_mean_rmse", "reference_max_rmse"]
            writer.writerow(header)
            for row in self.ROWS:
                g = self.groups[row]
                line = [row, repr(g.mean_rmse), repr(g.max_rmse), g.detector_count]
                if self.reference is not None:
                    r = self.reference[row]
                    line += [repr(r.mean_rmse), repr(r.max_rmse)]
                writer.writerow(line)

    def rows_text(self) -> str:
        lines = [f"{'row':<8} {'mean RMSE':>12} {'max RMSE':>12} {'detectors':>10}"]
        for row in self.ROWS:
            g = self.groups[row]
            lines.append(f"{row:<8} {g.mean_rmse:>12.6f} {g.max_rmse:>12.6f} "
                         f"{g.detector_count:>10d}")
        return "\n".join(lines)


def _group_stats(rmse: np.ndarray, covered: np.ndarray, geom: CoreGeometry):
    by_level = geom.level_indices()
    groups = {}
    covered_set = set(int(i) for i in covered)
    all_vals = rmse[covered]
    groups["overall"] = GroupStats(float(all_vals.mean()), float(all_vals.max()),
                                   int(covered.size))
    for level in LEVELS:
        idx = np.array([i for i in by_level[level] if int(i) in covered_set], dtype=np.intp)
        if idx.size:
            vals = rmse[idx]
            groups[level] = GroupStats(float(vals.mean()), float(vals.max()), int(idx.size))
        else:
            groups[level] = GroupStats(float("nan"), float("nan"), 0)
    return groups


def rmse_report(predictor, frames, geom: CoreGeometry,
                reference=None) -> RmseReport:
    """Per-detector RMSE of a predictor against measured readings.

    Aggregates are reported overall and per axial level; the percent-error
    summary is the overall mean RMSE over the mean absolute measured
    reading. ``reference`` adds the same aggregates for a second predictor.
    """
    frames = list(frames)
    if not frames:
        raise DataError("cannot evaluate on an empty frame set")
    covered = np.asarray(predictor.covered(geom), dtype=np.intp)
    if covered.size == 0:
        raise CoverageError("predictor covers no detectors")
    measured = np.stack([f.readings for f in frames])
    predictions = predictor.predict(frames, geom)
    if predictions.shape != measured.shape:
        raise DataError(f"predictions shaped {predictions.shape} for "
                        f"{measured.shape} measurements")

    err = predictions[:, covered] - measured[:, covered]
    rmse = np.full(geom.detector_count, np.nan)
    rmse[covered] = np.sqrt(np.mean(err ** 2, axis=0))
    groups = _group_stats(rmse, covered, geom)
    mean_abs = float(np.mean(np.abs(measured[:, covered])))
    percent = float(groups["overall"].mean_rmse / mean_abs * 100.0) if mean_abs > 0 else float("inf")

    ref_groups = None
    if reference is not None:
        ref_report = rmse_report(reference, frames, geom)
        ref_groups = ref_report.groups

    per_detector = {geom.detectors[i].code: float(rmse[i]) for i in covered}
    return RmseReport(per_detector=per_detector, groups=groups,
                      percent_error=percent, reference=ref_groups)


# ---------------------------------------------------------------------------
# virtual sensing


@dataclass
class VirtualReading:
    readings: np.ndarray
    virtual: tuple  # detector codes that were replaced by predictions


class VirtualSensor:
    """Serves virtual readings for bypassed detectors from whichever models
    cover them: mirror-set models for the paired sets, per-detector models
    for the symmetry axis."""

    def __init__(self, geom: CoreGeometry, model_ab: SurrogateNet | None = None,
                 model_ba: SurrogateNet | None = None,
                 axis_models: dict[DetectorId, SurrogateNet] | None = None):
        self.geom = geom
        self.model_ab = model_ab
        self.model_ba = model_ba
        self.axis_models = dict(axis_models or {})

    def check_coverage(self, bypassed) -> None:
        for d in bypassed:
            set_name = self.geom.set_of_detector(d)
            if set_name == "A" and self.model_ba is None:
                raise CoverageError(f"no mirror model covers bypassed detector {d.code}")
            if set_name == "B" and self.model_ab is None:
                raise CoverageError(f"no mirror model covers bypassed detector {d.code}")
            if set_name == "C" and d not in self.axis_models:
                raise CoverageError(f"no axis model covers bypassed detector {d.code}")

    def infer(self, frame: LprmFrame, bypassed) -> VirtualReading:
        """Measured readings with bypassed entries replaced by predictions.

        Bypassed inputs are zeroed before any model runs, so the result
        does not depend on prior virtual values: re-applying with the same
        bypass set reproduces the same output.
        """
        bypassed = sorted(set(bypassed) | set(frame.bypassed))
        self.check_coverage(bypassed)
        geom = self.geom
        inputs = frame.readings.copy()
        for d in bypassed:
            inputs[geom.detector_index(d)] = 0.0

        out = inputs.copy()
        by_set = {"A": [], "B": [], "C": []}
        for d in bypassed:
            by_set[geom.set_of_detector(d)].append(d)

        if by_set["A"]:
            pred_a = self.model_ba.forward(inputs[geom.indices_for_set("B")])
            a_order = {d: i for i, d in enumerate(geom.detectors_in_set("A"))}
            for d in by_set["A"]:
                out[geom.detector_index(d)] = pred_a[a_order[d]]
        if by_set["B"]:
            pred_b = self.model_ab.forward(inputs[geom.indices_for_set("A")])
            b_order = {d: i for i, d in enumerate(geom.detectors_in_set("B"))}
            for d in by_set["B"]:
                out[geom.detector_index(d)] = pred_b[b_order[d]]
        for d in by_set["C"]:
            idx = geom.detector_index(d)
            x = np.delete(inputs, idx)
            out[idx] = self.axis_models[d].forward(x)[0]

        return VirtualReading(readings=out, virtual=tuple(d.code for d in bypassed))


def infer_virtual(sensor: VirtualSensor, frame: LprmFrame, bypassed) -> VirtualReading:
    return sensor.infer(frame, bypassed)


# ---------------------------------------------------------------------------
# drift / calibration diagnostics


@dataclass
class DetectorDrift:
    slope: float
    offset: float
    flagged: bool


@dataclass
class DriftReport:
    threshold: float
    detectors: dict[str, DetectorDrift] = field(default_factory=dict)

    @property
    def flagged(self) -> tuple:
        return tuple(code for code, d in sorted(self.detectors.items()) if d.flagged)

    def to_dict(self) -> dict:
        return {"threshold": self.threshold,
                "detectors": {k: vars(v) for k, v in self.detectors.items()}}

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detector", "slope", "offset", "flagged"])
            for code, d in sorted(self.detectors.items()):
                writer.writerow([code, repr(d.slope), repr(d.offset), int(d.flagged)])


def drift_report(predictor, frames, geom: CoreGeometry,
                 threshold: float = 0.05) -> DriftReport:
    """Residual trend per detector over chronologically ordered frames.

    Fits measured-minus-predicted residuals against the frame timestamps by
    least squares; a detector whose fitted residual at the latest frame
    exceeds ``threshold`` in magnitude, or is not finite (a NaN or infinite
    reading), is flagged for calibration.
    """
    frames = list(frames)
    if len(frames) < 2:
        raise DataError(f"drift analysis needs at least 2 frames, got {len(frames)}")
    stamps = np.array([f.timestamp for f in frames], dtype=np.float64)
    if np.any(np.diff(stamps) < 0):
        raise DataError("frames must be chronologically ordered")

    covered = np.asarray(predictor.covered(geom), dtype=np.intp)
    measured = np.stack([f.readings for f in frames]).astype(np.float64)
    predicted = predictor.predict(frames, geom).astype(np.float64)
    residual = measured[:, covered] - predicted[:, covered]

    t = stamps - stamps[0]
    t_centered = t - t.mean()
    denom = float(np.sum(t_centered ** 2))
    if denom == 0.0:
        raise DataError("frames share one timestamp; no trend is defined")
    slope = (t_centered @ (residual - residual.mean(axis=0))) / denom
    intercept = residual.mean(axis=0) - slope * t.mean()
    offset_now = intercept + slope * t[-1]

    report = DriftReport(threshold=float(threshold))
    for col, det_idx in enumerate(covered):
        code = geom.detectors[int(det_idx)].code
        report.detectors[code] = DetectorDrift(
            slope=float(slope[col]),
            offset=float(offset_now[col]),
            flagged=bool(not abs(offset_now[col]) <= threshold),
        )
    return report
