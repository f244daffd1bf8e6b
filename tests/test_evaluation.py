import json

import numpy as np
import pytest

from virtlprm.coredata import DataError, DetectorId, FrameTable
from virtlprm.evaluation import (
    AxisDetectorPredictor,
    CompositePredictor,
    CoverageError,
    DriftReport,
    LprmNetPredictor,
    OraclePredictor,
    SetSurrogatePredictor,
    VirtualSensor,
    drift_report,
    rmse_report,
)
from virtlprm.models import (
    LprmNet,
    LprmNetSpec,
    SurrogateNet,
    SurrogateSpec,
    axis_surrogate_spec,
    corestate_batch,
)
from virtlprm.synthplant import PlantScenario, generate_cycle
from virtlprm.training import batched_predict

SMALL_LPRMNET = LprmNetSpec(conv_channels=2, trunk_hidden=8, trunk_out=4,
                            scalar_hidden=4, scalar_out=4, regression_hidden=4)


@pytest.fixture(scope="module")
def clean_frames(session_geom):
    return generate_cycle(PlantScenario(cycle_id=1, frame_count=40, seed=2024), session_geom)


class OffsetOracle(OraclePredictor):
    def __init__(self, offset):
        self.offset = offset

    def predict(self, table, geom):
        return super().predict(table, geom) + self.offset


class TestRmseReport:
    def test_perfect_predictions_give_zero_rmse(self, session_geom, clean_frames):
        report = rmse_report(OraclePredictor(), clean_frames, session_geom)
        assert all(v == 0.0 for v in report.per_detector.values())
        for row in report.ROWS:
            assert report.groups[row].mean_rmse == 0.0
            assert report.groups[row].max_rmse == 0.0
        assert report.percent_error == 0.0

    def test_constant_offset_gives_offset_rmse(self, session_geom, clean_frames):
        report = rmse_report(OffsetOracle(0.125), clean_frames, session_geom)
        for v in report.per_detector.values():
            assert v == pytest.approx(0.125, rel=1e-5)
        assert report.groups["overall"].mean_rmse == pytest.approx(0.125, rel=1e-5)

    def test_rows_and_group_sizes(self, session_geom, clean_frames):
        report = rmse_report(OraclePredictor(), clean_frames, session_geom)
        assert set(report.groups) == {"overall", "A", "B", "C", "D"}
        assert report.groups["overall"].detector_count == 172
        for level in "ABCD":
            assert report.groups[level].detector_count == 43

    def test_overall_mean_is_count_weighted_level_mean(self, session_geom, clean_frames):
        report = rmse_report(OffsetOracle(0.05), clean_frames, session_geom)
        weighted = sum(report.groups[lv].mean_rmse * report.groups[lv].detector_count
                       for lv in "ABCD")
        total = sum(report.groups[lv].detector_count for lv in "ABCD")
        assert report.groups["overall"].mean_rmse == pytest.approx(weighted / total, rel=1e-9)

    def test_max_at_least_mean(self, session_geom, clean_frames):
        report = rmse_report(OffsetOracle(0.3), clean_frames, session_geom)
        for row in report.ROWS:
            g = report.groups[row]
            assert g.max_rmse >= g.mean_rmse

    def test_percent_error_definition(self, session_geom, clean_frames):
        report = rmse_report(OffsetOracle(0.1), clean_frames, session_geom)
        expected = (report.groups["overall"].mean_rmse / np.mean(np.abs(clean_frames.readings))
                    * 100.0)
        assert report.percent_error == pytest.approx(expected, rel=1e-6)

    def test_reference_column(self, session_geom, clean_frames):
        report = rmse_report(OffsetOracle(0.1), clean_frames, session_geom,
                             reference=OffsetOracle(0.4))
        assert report.reference is not None
        assert report.reference["overall"].mean_rmse == pytest.approx(0.4, rel=1e-4)

    def test_partial_coverage_via_lprmnet_predictor(self, session_geom, clean_frames):
        predictor = CompositePredictor([
            LprmNetPredictor(LprmNet(SMALL_LPRMNET, seed=0), DetectorId(1, "A")),
            LprmNetPredictor(LprmNet(SMALL_LPRMNET, seed=1), DetectorId(7, "C"))])
        report = rmse_report(predictor, clean_frames.take(slice(0, 6)), session_geom)
        assert report.groups["overall"].detector_count == 2
        assert set(report.per_detector) == {"1A", "7C"}

    def test_empty_frames_rejected(self, session_geom, clean_frames):
        with pytest.raises(DataError, match="empty"):
            rmse_report(OraclePredictor(), clean_frames.take([]), session_geom)

    def test_json_round_trip_bit_exact(self, session_geom, clean_frames, tmp_path):
        report = rmse_report(OffsetOracle(1.0 / 3.0), clean_frames, session_geom,
                             reference=OffsetOracle(0.7))
        report.to_json(tmp_path / "r.json")
        with open(tmp_path / "r.json", encoding="utf-8") as fh:
            assert json.load(fh) == report.to_dict()
        report.to_json(tmp_path / "r2.json")
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_csv_layout(self, session_geom, clean_frames, tmp_path):
        report = rmse_report(OffsetOracle(0.2), clean_frames, session_geom)
        report.to_csv(tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("row,mean_rmse,max_rmse")
        assert len(lines) == 6  # header + overall + A..D
        assert [ln.split(",")[0] for ln in lines[1:]] == ["overall", "A", "B", "C", "D"]


def infer_row(sensor, frames, row, bypassed):
    """Virtual readings of frame ``row`` alone, through a one-row table, and
    the codes of the detectors it filled."""
    readings, mask = sensor.infer(frames.take([row]), bypassed)
    return readings[0], sensor.virtual_codes(mask[0])


class TestVirtualSensing:
    def test_empty_bypass_echoes_measured(self, session_geom, clean_frames):
        sensor = VirtualSensor(session_geom)
        readings, virtual = infer_row(sensor, clean_frames, 0, [])
        np.testing.assert_array_equal(readings, clean_frames.readings[0])
        assert virtual == ()
        whole, mask = sensor.infer(clean_frames, [])
        np.testing.assert_array_equal(whole, clean_frames.readings)
        assert not mask.any()

    def test_uncovered_detector_raises(self, session_geom, clean_frames):
        sensor = VirtualSensor(session_geom)
        with pytest.raises(CoverageError, match="1A"):
            sensor.infer(clean_frames, [DetectorId(1, "A")])
        with pytest.raises(CoverageError, match="7C"):
            sensor.infer(clean_frames.take([0]), [DetectorId(7, "C")])

    def test_bypassed_b_detector_close_to_partner(self, trained_surrogate):
        # Held-out frames from the training scenario: the virtual reading
        # should sit within 3 validation sigmas of the partner's measurement.
        geom = trained_surrogate["geom"]
        test_frames = trained_surrogate["splits"][2]
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(trained_surrogate["model"], "A")])
        sigma = trained_surrogate["val_residuals"].std(axis=0)
        b_set = geom.detectors_in_set("B")
        target = b_set[3]
        partner = geom.symmetry_partner(target)
        col = 3
        hits = 0
        for row in range(len(test_frames)):
            virtual = infer_row(sensor, test_frames, row, [target])[0][geom.detector_index(target)]
            partner_measured = test_frames.readings[row, geom.detector_index(partner)]
            if abs(virtual - partner_measured) <= 3.0 * sigma[col]:
                hits += 1
        assert hits / len(test_frames) >= 0.95

    def test_idempotent_with_same_bypass_set(self, trained_surrogate, clean_frames):
        geom = trained_surrogate["geom"]
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(trained_surrogate["model"], "A")])
        bypass = [geom.detectors_in_set("B")[0]]
        first = infer_row(sensor, clean_frames, 1, bypass)
        frame_again = clean_frames.take([1])
        frame_again.readings[0] = first[0]
        second = infer_row(sensor, frame_again, 0, bypass)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_bypassing_every_input_still_finite(self, trained_surrogate, clean_frames):
        # Zeroing the whole input set must not destabilize predictions.
        geom = trained_surrogate["geom"]
        model_ab = trained_surrogate["model"]
        assert np.all(np.isfinite(batched_predict(model_ab, {"x": np.zeros((1, 76), np.float32)})))
        model_ba = SurrogateNet(SurrogateSpec(76, 76, (8,) * 6), seed=2)
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(model_ab, "A"),
                                      SetSurrogatePredictor(model_ba, "B")])
        readings, _ = infer_row(sensor, clean_frames, 0, list(geom.detectors_in_set("A")))
        assert np.all(np.isfinite(readings))

    def test_axis_detector_served_by_axis_model(self, session_geom, clean_frames):
        target = session_geom.detectors_in_set("C")[2]
        model = SurrogateNet(axis_surrogate_spec(hidden=8), seed=0)
        sensor = VirtualSensor(session_geom, [AxisDetectorPredictor(model, target)])
        readings, virtual = infer_row(sensor, clean_frames, 0, [target])
        assert virtual == (target.code,)
        assert np.isfinite(readings[session_geom.detector_index(target)])

    def test_frame_bypass_set_included(self, trained_surrogate, clean_frames):
        geom = trained_surrogate["geom"]
        sensor = VirtualSensor(geom, [SetSurrogatePredictor(trained_surrogate["model"], "A")])
        target = geom.detectors_in_set("B")[1]
        marked = clean_frames.take([2])
        marked.bypassed[0] = frozenset({target})
        marked.readings[0, geom.detector_index(target)] = 0.0
        readings, virtual = infer_row(sensor, marked, 0, [])
        assert virtual == (target.code,)
        assert readings[geom.detector_index(target)] != 0.0


class TestDriftReport:
    def test_zero_drift_oracle_slopes_near_zero(self, session_geom):
        frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=60, seed=99,
                                              noise_sigma=0.002), session_geom)
        report = drift_report(OraclePredictor(), frames, session_geom, threshold=0.05)
        assert report.flagged == ()
        slopes = [d.slope for d in report.detectors.values()]
        assert max(abs(s) for s in slopes) < 1e-3

    def test_injected_drift_flagged_exactly(self, session_geom):
        drifting = frozenset({DetectorId(2, "A"), DetectorId(9, "B"), DetectorId(14, "C")})
        frames = generate_cycle(
            PlantScenario(cycle_id=1, frame_count=500, seed=7, drift_rate=0.001,
                          noise_sigma=0.005, drift_detectors=drifting), session_geom)
        report = drift_report(OraclePredictor(), frames, session_geom, threshold=0.05)
        assert set(report.flagged) == {d.code for d in drifting}

    def test_drift_slope_sign_matches_injection(self, session_geom):
        drifting = frozenset({DetectorId(5, "A")})
        frames = generate_cycle(
            PlantScenario(cycle_id=1, frame_count=200, seed=8, drift_rate=0.002,
                          drift_detectors=drifting), session_geom)
        report = drift_report(OraclePredictor(), frames, session_geom, threshold=0.05)
        assert report.detectors["5A"].slope < 0.0
        others = [d.slope for code, d in report.detectors.items() if code != "5A"]
        assert max(abs(s) for s in others) < abs(report.detectors["5A"].slope) / 10

    def test_non_finite_reading_flagged(self, session_geom, clean_frames):
        # A faulty instrument's NaN makes its offset NaN, which must not
        # read as healthy; the other detectors are unaffected.
        frames = clean_frames.take(slice(None))  # its own copy of the readings
        frames.readings[7, session_geom.detector_index(DetectorId(11, "A"))] = np.nan
        report = drift_report(OraclePredictor(), frames, session_geom, threshold=0.05)
        assert np.isnan(report.detectors["11A"].offset)
        assert report.flagged == ("11A",)

    def test_too_few_frames(self, session_geom, clean_frames):
        with pytest.raises(Exception):
            drift_report(OraclePredictor(), clean_frames.take([0]), session_geom)

    def test_unordered_frames_rejected(self, session_geom, clean_frames):
        shuffled = clean_frames.take([5, 2, 9])
        with pytest.raises(Exception, match="chronologically"):
            drift_report(OraclePredictor(), shuffled, session_geom)

    def test_serialization(self, session_geom, clean_frames, tmp_path):
        report = drift_report(OraclePredictor(), clean_frames, session_geom, threshold=0.01)
        report.to_json(tmp_path / "d.json")
        report.to_csv(tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[0] == "detector,slope,offset,flagged"
        assert len(lines) == 173


def paired_predictor(model_ab, model_ba):
    return CompositePredictor([SetSurrogatePredictor(model_ab, "A"),
                               SetSurrogatePredictor(model_ba, "B")])


class TestPairedPredictor:
    def test_covers_paired_sets_only(self, trained_surrogate):
        geom = trained_surrogate["geom"]
        model_ba = SurrogateNet(SurrogateSpec(76, 76, (8,) * 6), seed=1)
        predictor = paired_predictor(trained_surrogate["model"], model_ba)
        covered = predictor.covered(geom)
        assert covered.size == 152
        c_indices = set(int(i) for i in geom.indices_for_set("C"))
        assert not (set(int(i) for i in covered) & c_indices)

    def test_report_on_paired_predictor(self, trained_surrogate):
        geom = trained_surrogate["geom"]
        _, _, test_f = trained_surrogate["splits"]
        model_ba = SurrogateNet(SurrogateSpec(76, 76, (8,) * 6), seed=1)
        predictor = paired_predictor(trained_surrogate["model"], model_ba)
        report = rmse_report(predictor, test_f, geom)
        assert report.groups["overall"].detector_count == 152
        assert np.isfinite(report.groups["overall"].mean_rmse)


class TestReadingsPredictorColumns:
    """A model predictor feeds its model exactly the inputs its training
    arrays hold, fills only the columns its training targets hold, and is
    what ``VirtualSensor.infer`` serves."""

    @staticmethod
    def model_predictor(kind, geom):
        if kind == "cset":
            model = SurrogateNet(axis_surrogate_spec(hidden=8), seed=3)
            return AxisDetectorPredictor(model, geom.detectors_in_set("C")[4])
        if kind == "lprmnet":
            return LprmNetPredictor(LprmNet(SMALL_LPRMNET, seed=3), DetectorId(2, "B"))
        model = SurrogateNet(SurrogateSpec(76, 76, (8,) * 6), seed=3)
        return SetSurrogatePredictor(model, kind[-2].upper())

    @pytest.mark.parametrize("kind", ["surrogate-ab", "surrogate-ba", "cset", "lprmnet"])
    def test_predict_and_infer_match_training_inputs(self, session_geom, clean_frames, kind):
        geom = session_geom
        predictor = self.model_predictor(kind, geom)
        readings = clean_frames.readings
        if kind == "lprmnet":
            outputs = np.array([geom.detector_index(predictor.target)])
            want_inputs = corestate_batch(clean_frames)
        elif kind == "cset":
            outputs = np.array([geom.detector_index(predictor.target)])
            want_inputs = {"x": np.delete(readings, outputs, axis=1)}
        else:
            outputs = geom.indices_for_set(predictor.output_set)
            want_inputs = {"x": readings[:, geom.indices_for_set(predictor.input_set)]}
        inputs, targets = predictor.training_arrays(clean_frames, geom)
        assert inputs.keys() == want_inputs.keys()
        for key, value in want_inputs.items():
            np.testing.assert_array_equal(inputs[key], value)
        np.testing.assert_array_equal(predictor.covered(geom), outputs)
        np.testing.assert_array_equal(targets, readings[:, outputs])

        got = predictor.predict(clean_frames, geom)
        want = batched_predict(predictor.model, inputs)
        assert np.array_equal(got[:, outputs].view(np.uint32), want.view(np.uint32))
        assert np.all(np.isnan(np.delete(got, outputs, axis=1)))

        # infer serves predict, run on the table with the served columns zeroed
        zeroed = readings.copy()
        zeroed[:, outputs] = 0.0
        table = FrameTable(zeroed, clean_frames.timestamps, clean_frames.cycles,
                           clean_frames.column, clean_frames.bypassed)
        want = predictor.predict(table, geom)[:, outputs]
        served, mask = VirtualSensor(geom, [predictor]).infer(
            clean_frames, [geom.detectors[i] for i in outputs])
        assert np.array_equal(np.flatnonzero(mask.any(axis=0)), outputs)
        assert np.array_equal(served[:, outputs].view(np.uint32), want.view(np.uint32))

    def test_axis_predictor_rejects_paired_target(self, session_geom, clean_frames):
        model = SurrogateNet(axis_surrogate_spec(hidden=8), seed=3)
        predictor = AxisDetectorPredictor(model, DetectorId(1, "A"))
        with pytest.raises(DataError, match="symmetry axis"):
            predictor.predict(clean_frames, session_geom)
