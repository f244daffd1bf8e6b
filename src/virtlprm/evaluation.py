"""Model evaluation: per-detector RMSE reports, virtual readings for
bypassed detectors, and residual-trend diagnostics for calibration drift.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coredata import LEVELS, CoreGeometry, DataError, DetectorId, FrameTable, write_json
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

    def predict(self, table: FrameTable, geom: CoreGeometry) -> np.ndarray:
        return oracle_readings(table.column("np"), table.column("rv"), table.thermal_power,
                               geom)


class _ModelPredictor:
    """One trained ``model`` and the one decision of what it reads and
    fills: ``model_inputs(table, geom)`` is its input dict, read from a
    frame table, and ``covered(geom)`` the reading columns it predicts.
    Training arrays and predictions both come from these two, so they
    cannot disagree."""

    def training_arrays(self, table: FrameTable, geom: CoreGeometry):
        """The model's inputs and its target columns of the table's readings."""
        return self.model_inputs(table, geom), table.readings[:, self.covered(geom)]

    def predict(self, table: FrameTable, geom: CoreGeometry) -> np.ndarray:
        """(N, 172) predictions of the model, NaN outside its columns."""
        out = np.full((len(table), geom.detector_count), np.nan, dtype=np.float32)
        out[:, self.covered(geom)] = batched_predict(self.model, self.model_inputs(table, geom))
        return out


class _SurrogatePredictor(_ModelPredictor):
    """One SurrogateNet fed measured readings: ``columns(geom)`` names the
    (input, output) columns of the 172-wide readings vector."""

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return self.columns(geom)[1]

    def model_inputs(self, table: FrameTable, geom: CoreGeometry) -> dict:
        return {"x": table.readings[:, self.columns(geom)[0]]}


class SetSurrogatePredictor(_SurrogatePredictor):
    """One mirror-set model: measured readings of its input set feed
    predictions for the opposite set."""

    def __init__(self, model: SurrogateNet, input_set: str):
        if input_set not in ("A", "B"):
            raise DataError(f"input set must be 'A' or 'B', got {input_set!r}")
        self.model = model
        self.input_set = input_set
        self.output_set = "B" if input_set == "A" else "A"

    def columns(self, geom: CoreGeometry) -> tuple[np.ndarray, np.ndarray]:
        return geom.indices_for_set(self.input_set), geom.indices_for_set(self.output_set)


class AxisDetectorPredictor(_SurrogatePredictor):
    """One symmetry-axis model: predicts its target detector from all other
    measured readings."""

    def __init__(self, model: SurrogateNet, target: DetectorId):
        self.model = model
        self.target = target

    def columns(self, geom: CoreGeometry) -> tuple[np.ndarray, np.ndarray]:
        idx = geom.axis_detector_index(self.target)
        return (np.delete(np.arange(geom.detector_count, dtype=np.intp), idx),
                np.array([idx], dtype=np.intp))


class LprmNetPredictor(_ModelPredictor):
    """One LprmNet: predicts its target detector from the core state."""

    def __init__(self, model: LprmNet, target: DetectorId):
        self.model = model
        self.target = target

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.array([geom.detector_index(self.target)], dtype=np.intp)

    def model_inputs(self, table: FrameTable, geom: CoreGeometry) -> dict:
        return corestate_batch(table)


class CompositePredictor:
    """Union of several predictors (or none) with disjoint coverage: the
    one place that maps parts to their detectors and rejects overlap."""

    def __init__(self, parts):
        self.parts = list(parts)

    def part_indices(self, geom: CoreGeometry) -> list[np.ndarray]:
        """Each part's covered detector indices; parts that overlap are a ``DataError``."""
        indices = [np.asarray(p.covered(geom), dtype=np.intp) for p in self.parts]
        if len(set().union(*indices)) < sum(idx.size for idx in indices):
            raise DataError("composite predictor parts overlap in coverage")
        return indices

    def covered(self, geom: CoreGeometry) -> np.ndarray:
        return np.array(sorted(set().union(*self.part_indices(geom))), dtype=np.intp)

    def predict(self, table: FrameTable, geom: CoreGeometry) -> np.ndarray:
        out = np.full((len(table), geom.detector_count), np.nan, dtype=np.float32)
        for p, idx in zip(self.parts, self.part_indices(geom)):
            out[:, idx] = p.predict(table, geom)[:, idx]
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

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())

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


def rmse_report(predictor, table: FrameTable, geom: CoreGeometry,
                reference=None) -> RmseReport:
    """Per-detector RMSE of a predictor against measured readings.

    Aggregates are reported overall and per axial level; the percent-error
    summary is the overall mean RMSE over the mean absolute measured
    reading. ``reference`` adds the same aggregates for a second predictor.
    """
    if not len(table):
        raise DataError("cannot evaluate on an empty frame set")
    covered = np.asarray(predictor.covered(geom), dtype=np.intp)
    if covered.size == 0:
        raise CoverageError("predictor covers no detectors")
    measured = table.readings
    predictions = predictor.predict(table, geom)
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
        ref_report = rmse_report(reference, table, geom)
        ref_groups = ref_report.groups

    per_detector = {geom.detectors[i].code: float(rmse[i]) for i in covered}
    return RmseReport(per_detector=per_detector, groups=groups,
                      percent_error=percent, reference=ref_groups)


# ---------------------------------------------------------------------------
# virtual sensing


class VirtualSensor:
    """Serves virtual readings for bypassed detectors from whichever of
    ``parts`` covers them: readings predictors (``SetSurrogatePredictor``
    for a paired set, ``AxisDetectorPredictor`` for one symmetry-axis
    detector) or core-state ones (``LprmNetPredictor``), composed by
    ``CompositePredictor``, so no two may cover the same detector.

    Bypassed inputs are zeroed before any model runs, so the result does
    not depend on prior virtual values: re-applying with the same bypass
    set reproduces the same output.
    """

    def __init__(self, geom: CoreGeometry, parts=()):
        self.geom = geom
        self.predictor = CompositePredictor(parts)
        self.coverage = np.zeros(geom.detector_count, dtype=bool)
        self.coverage[self.predictor.covered(geom)] = True

    def check_coverage(self, bypassed) -> None:
        for d in bypassed:
            if not self.coverage[self.geom.detector_index(d)]:
                kind = "axis" if self.geom.set_of_detector(d) == "C" else "mirror"
                raise CoverageError(f"no {kind} model covers bypassed detector {d.code}")

    def infer(self, table: FrameTable, bypassed) -> tuple[np.ndarray, np.ndarray]:
        """Virtual readings of a frame table: its (N, 172) ``readings`` with
        ``bypassed`` and each frame's own bypassed set replaced by
        predictions, and that (N, 172) bypass mask. A core-state column is
        read only by a part whose model reads one (``LprmNetPredictor``).

        The composite predictor runs once over all rows, on the table with
        its masked entries zeroed: the ``predict`` that ``eval`` and
        ``report`` score. A non-finite reading raises ``DataError`` naming the
        detector and the row's timestamp, unless its detector is bypassed;
        so does a non-finite prediction, before any value is returned.
        """
        geom = self.geom
        readings, timestamps = table.readings, table.timestamps
        if readings.shape[1] != geom.detector_count:
            raise DataError(f"readings shaped {readings.shape} for "
                            f"{geom.detector_count} detectors")
        mask = np.zeros(readings.shape, dtype=bool)
        mask[:, [geom.detector_index(d) for d in bypassed]] = True
        for row, own in enumerate(table.bypassed):
            mask[row, [geom.detector_index(d) for d in own]] = True
        self.check_coverage(geom.detectors[i]
                            for i in np.flatnonzero((mask & ~self.coverage).any(axis=0)))
        bad = np.argwhere(~np.isfinite(readings) & ~mask)
        if bad.size:
            row, col = bad[0]
            raise DataError(f"non-finite reading {readings[row, col]} from detector "
                            f"{geom.detectors[col].code} at timestamp {timestamps[row]}")

        inputs = np.where(mask, np.float32(0.0), readings)
        masked = FrameTable(inputs, timestamps, table.cycles, table.column, table.bypassed)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is checked below
            out = np.where(mask, self.predictor.predict(masked, geom), inputs)
        bad = np.argwhere(~np.isfinite(out))  # measured entries are finite: checked above
        if bad.size:
            row, col = bad[0]
            raise DataError(f"non-finite virtual reading {out[row, col]} for detector "
                            f"{geom.detectors[col].code} at timestamp {timestamps[row]}")
        return out, mask

    def virtual_codes(self, mask_row: np.ndarray) -> tuple:
        """Codes of the detectors one mask row marks, in canonical order."""
        return tuple(self.geom.detectors[i].code for i in np.flatnonzero(mask_row))


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
        write_json(path, self.to_dict())

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detector", "slope", "offset", "flagged"])
            for code, d in sorted(self.detectors.items()):
                writer.writerow([code, repr(d.slope), repr(d.offset), int(d.flagged)])


def drift_report(predictor, table: FrameTable, geom: CoreGeometry,
                 threshold: float = 0.05) -> DriftReport:
    """Residual trend per detector over chronologically ordered frames.

    Fits measured-minus-predicted residuals against the frame timestamps by
    least squares; a detector whose fitted residual at the latest frame
    exceeds ``threshold`` in magnitude, or is not finite (a NaN or infinite
    reading), is flagged for calibration.
    """
    if len(table) < 2:
        raise DataError(f"drift analysis needs at least 2 frames, got {len(table)}")
    stamps = table.timestamps.astype(np.float64)
    if np.any(np.diff(stamps) < 0):
        raise DataError("frames must be chronologically ordered")

    covered = np.asarray(predictor.covered(geom), dtype=np.intp)
    measured = table.readings.astype(np.float64)
    predicted = predictor.predict(table, geom).astype(np.float64)
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
