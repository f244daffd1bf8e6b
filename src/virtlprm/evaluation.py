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
        tp = np.array([f.state.thermal_power for f in frames], dtype=np.float32)
        return oracle_readings(np.stack([f.state.nodal_power for f in frames]),
                               np.stack([f.state.rod_variable for f in frames]), tp, geom)


class _ReadingsPredictor:
    """A predictor whose only inputs are measured readings.

    ``predict_readings`` maps an (N, 172) readings matrix to (N, 172)
    predictions, NaN outside the covered detectors; ``predict`` runs it on
    the frames' readings, so frame and matrix callers share one path.
    """

    def predict(self, frames, geom: CoreGeometry) -> np.ndarray:
        return self.predict_readings(np.stack([f.readings for f in frames]), geom)


class SetSurrogatePredictor(_ReadingsPredictor):
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

    def predict_readings(self, readings: np.ndarray, geom: CoreGeometry) -> np.ndarray:
        out = np.full(readings.shape, np.nan, dtype=np.float32)
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


class _PerDetectorPredictor:
    """One model per target detector; covers the detectors it holds."""

    def __init__(self, models: dict[DetectorId, SurrogateNet | LprmNet]):
        self.models = dict(models)

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.sort(np.array([geom.detector_index(d) for d in self.models],
                                dtype=np.intp))


class AxisDetectorPredictor(_PerDetectorPredictor, _ReadingsPredictor):
    """Per-detector models for the symmetry axis: each predicts its target
    from all other measured readings."""

    def predict_readings(self, readings: np.ndarray, geom: CoreGeometry) -> np.ndarray:
        out = np.full(readings.shape, np.nan, dtype=np.float32)
        for det, model in self.models.items():
            idx = geom.detector_index(det)
            x = np.delete(readings, idx, axis=1)
            out[:, idx] = batched_predict(model, {"x": x})[:, 0]
        return out


class LprmNetPredictor(_PerDetectorPredictor):
    """Per-detector models that predict their target from the core state."""

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
    for the symmetry axis. ``parts`` adds further readings predictors
    (``SetSurrogatePredictor``, ``AxisDetectorPredictor``); no two may
    cover the same detector.

    Bypassed inputs are zeroed before any model runs, so the result does
    not depend on prior virtual values: re-applying with the same bypass
    set reproduces the same output.
    """

    def __init__(self, geom: CoreGeometry, model_ab: SurrogateNet | None = None,
                 model_ba: SurrogateNet | None = None,
                 axis_models: dict[DetectorId, SurrogateNet] | None = None, parts=()):
        self.geom = geom
        self.parts = list(parts)
        if model_ab is not None:
            self.parts.append(SetSurrogatePredictor(model_ab, "A"))
        if model_ba is not None:
            self.parts.append(SetSurrogatePredictor(model_ba, "B"))
        self.parts += [AxisDetectorPredictor({d: m}) for d, m in (axis_models or {}).items()]
        self.part_indices = [np.asarray(p.covered(geom), dtype=np.intp) for p in self.parts]
        self.coverage = np.zeros(geom.detector_count, dtype=bool)
        if self.parts:
            self.coverage[CompositePredictor(self.parts).covered(geom)] = True

    def check_coverage(self, bypassed) -> None:
        for d in bypassed:
            if not self.coverage[self.geom.detector_index(d)]:
                kind = "axis" if self.geom.set_of_detector(d) == "C" else "mirror"
                raise CoverageError(f"no {kind} model covers bypassed detector {d.code}")

    def infer_readings(self, readings, timestamps, frame_bypassed,
                       bypassed) -> tuple[np.ndarray, np.ndarray]:
        """Virtual readings of many frames at once: the (N, 172) ``readings``
        with ``bypassed`` and each row's own set in ``frame_bypassed``
        replaced by predictions, and that (N, 172) bypass mask.

        Each part runs once over all rows, and only if it covers a masked
        entry. A non-finite reading raises ``DataError`` naming the
        detector and the row's timestamp, unless its detector is bypassed.
        """
        geom = self.geom
        readings = np.asarray(readings, dtype=np.float32)
        if readings.shape != (len(timestamps), geom.detector_count):
            raise DataError(f"readings shaped {readings.shape} for {len(timestamps)} frames "
                            f"of {geom.detector_count} detectors")
        mask = np.zeros(readings.shape, dtype=bool)
        mask[:, [geom.detector_index(d) for d in bypassed]] = True
        for row, own in enumerate(frame_bypassed):
            mask[row, [geom.detector_index(d) for d in own]] = True
        self.check_coverage(geom.detectors[i]
                            for i in np.flatnonzero((mask & ~self.coverage).any(axis=0)))
        bad = np.argwhere(~np.isfinite(readings) & ~mask)
        if bad.size:
            row, col = bad[0]
            raise DataError(f"non-finite reading {readings[row, col]} from detector "
                            f"{geom.detectors[col].code} at timestamp {timestamps[row]}")

        inputs = np.where(mask, np.float32(0.0), readings)
        out = inputs.copy()
        for part, idx in zip(self.parts, self.part_indices):
            hit = mask[:, idx]
            if hit.any():
                pred = part.predict_readings(inputs, geom)[:, idx]
                out[:, idx] = np.where(hit, pred, out[:, idx])
        return out, mask

    def virtual_codes(self, mask_row: np.ndarray) -> tuple:
        """Codes of the detectors one mask row marks, in canonical order."""
        return tuple(self.geom.detectors[i].code for i in np.flatnonzero(mask_row))

    def infer(self, frame: LprmFrame, bypassed) -> VirtualReading:
        """Measured readings of one frame with ``bypassed`` and the frame's
        own bypassed set replaced by predictions."""
        readings, mask = self.infer_readings(frame.readings[None], [frame.timestamp],
                                             [frame.bypassed], bypassed)
        return VirtualReading(readings=readings[0], virtual=self.virtual_codes(mask[0]))


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
