import hashlib

import numpy as np
import pytest

from virtlprm.coredata import (
    ARCHIVE_FIELDS,
    DataError,
    DetectorId,
    default_geometry,
    geometry_from_layout,
)
from virtlprm import coredata, synthplant
from virtlprm.synthplant import (
    LEVEL_AXIAL_NODE,
    PlantScenario,
    generate_cycle,
    generate_plant,
    oracle_readings,
    plant_blocks,
)


@pytest.fixture(scope="module")
def geom():
    return default_geometry()


@pytest.fixture(scope="module")
def geoms(geom):
    """The default layout, and an edge layout built from it with strings on
    the grid border: set-C strings at the corners (0, 0) and (29, 29), and
    one A/B mirror pair at (0, 5)/(5, 0), so their 3x3 windows reach
    outside the grid."""
    layout = geom.to_layout()
    moved = {7: (0, 0), 38: (29, 29), 1: (0, 5), 6: (5, 0)}
    for entry in layout["strings"]:
        entry["row"], entry["col"] = moved.get(entry["index"], (entry["row"], entry["col"]))
    return {"default": geom, "edge": geometry_from_layout(layout)}


@pytest.fixture(scope="module")
def symmetric_cycle(geom):
    return generate_cycle(PlantScenario(cycle_id=1, frame_count=60, seed=314), geom)


def oracle_of(np_arr, rv_arr, geom, tp=1.0):
    """The oracle readings of one core state, a batch of one."""
    return oracle_readings(np_arr[None], rv_arr[None], np.array([tp], dtype=np.float32), geom)[0]


def oracle_of_table(frames, geom):
    return oracle_readings(frames.column("np"), frames.column("rv"), frames.thermal_power, geom)


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(DataError):
            PlantScenario(cycle_id=1, frame_count=0, seed=0)
        for sigma in (-0.1, float("nan"), float("inf")):  # a NaN is no zero
            with pytest.raises(DataError, match="noise_sigma must be finite"):
                PlantScenario(cycle_id=1, frame_count=1, seed=0, noise_sigma=sigma)
        with pytest.raises(DataError):
            PlantScenario(cycle_id=1, frame_count=1, seed=0, drift_rate=1.0)
        with pytest.raises(DataError):
            PlantScenario(cycle_id=1, frame_count=1, seed=0, symmetry_fidelity=1.5)


class TestOracle:
    def test_zero_power_means_zero_readings(self, geom):
        readings = oracle_of(np.zeros((30, 30, 25), dtype=np.float32),
                             np.zeros((30, 30, 24), dtype=np.float32), geom)
        np.testing.assert_array_equal(readings, 0.0)

    def test_uniform_power_no_rods_gives_equal_readings(self, geom):
        readings = oracle_of(np.full((30, 30, 25), 3.0, dtype=np.float32),
                             np.zeros((30, 30, 24), dtype=np.float32), geom, tp=0.5)
        np.testing.assert_allclose(readings, readings[0], rtol=1e-6)
        assert readings[0] == pytest.approx(0.5 * 3.0, rel=1e-6)

    def test_linear_in_nodal_power(self, geom):
        rng = np.random.default_rng(0)
        np_arr = rng.random((30, 30, 25)).astype(np.float32)
        rv_arr = rng.random((30, 30, 24)).astype(np.float32)
        r1 = oracle_of(np_arr, rv_arr, geom)
        r2 = oracle_of(2.0 * np_arr, rv_arr, geom)
        np.testing.assert_array_equal(r2, 2.0 * r1)

    def test_reflection_equivariance(self, geoms):
        # Reflecting the state permutes the readings by the partner map, and
        # a diagonal-symmetric state gives bitwise-equal partner readings.
        rng = np.random.default_rng(1)
        np_arr = rng.random((30, 30, 25)).astype(np.float32)
        rv_arr = rng.random((30, 30, 24)).astype(np.float32)
        for geom in geoms.values():
            base = oracle_of(np_arr, rv_arr, geom)
            mirrored = oracle_of(np_arr.transpose(1, 0, 2), rv_arr.transpose(1, 0, 2), geom)
            symmetric = oracle_of(np_arr + np_arr.transpose(1, 0, 2),
                                  rv_arr + rv_arr.transpose(1, 0, 2), geom)
            for d in geom.detectors:
                p = geom.symmetry_partner(d) or d
                assert mirrored[geom.detector_index(d)] == base[geom.detector_index(p)]
                assert symmetric[geom.detector_index(d)] == symmetric[geom.detector_index(p)]

    def test_matches_brute_force_reference(self, geoms):
        # Independent re-derivation: plain f64 loops, no pair grouping; a
        # window cell outside the grid is left out of every sum.
        rng = np.random.default_rng(2)
        np_arr = rng.random((30, 30, 25)).astype(np.float32)
        rv_arr = rng.random((30, 30, 24)).astype(np.float32)
        tp = 0.97
        for geom in geoms.values():
            got = oracle_of(np_arr, rv_arr, geom, tp=tp)
            for d in geom.detectors:
                r, c = geom.position_of(d.string_index)
                z = LEVEL_AXIAL_NODE[d.level]
                num = den = rods = count = 0.0
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if not (0 <= r + di < 30 and 0 <= c + dj < 30):
                            continue
                        w = np.exp(-(di * di + dj * dj) / 2.0)
                        num += w * float(np_arr[r + di, c + dj, z])
                        den += w
                        rods += float(rv_arr[r + di, c + dj, min(z, 23)])
                        count += 1.0
                expected = tp * (num / den) * (1.0 - 0.3 * rods / count)
                assert got[geom.detector_index(d)] == pytest.approx(expected, rel=1e-5)

    # SHA-256 of the float32 readings of three random core states: a change
    # to the summation order or the arithmetic of the window changes it
    @pytest.mark.parametrize("layout, digest", [
        ("default", "b606490007a1e6dfef6e60aa3669b0e3b02d71025868c11e8482ed20e2cbbd38"),
        ("edge", "97c924580ab30fccc1a10adb3422ac40a071af1334347ff866eec83e9ec454f7"),
    ])
    def test_readings_are_pinned(self, layout, digest, geoms):
        geom = geoms[layout]
        rng = np.random.default_rng(6)
        np_stack = rng.random((3, 30, 30, 25)).astype(np.float32)
        rv_stack = rng.random((3, 30, 30, 24)).astype(np.float32)
        tp = np.array([1.0, 0.93, 0.81], dtype=np.float32)
        readings = oracle_readings(np_stack, rv_stack, tp, geom)
        assert readings.dtype == np.float32
        assert hashlib.sha256(readings.tobytes()).hexdigest() == digest

    def test_thermal_power_scales_readings(self, geom):
        rng = np.random.default_rng(3)
        np_arr = rng.random((30, 30, 25)).astype(np.float32)
        rv_arr = np.zeros((30, 30, 24), dtype=np.float32)
        r_half = oracle_of(np_arr, rv_arr, geom, tp=0.5)
        r_full = oracle_of(np_arr, rv_arr, geom, tp=1.0)
        np.testing.assert_allclose(r_full, 2.0 * r_half, rtol=1e-6)

    def test_rod_shadowing_reduces_readings(self, geom):
        rng = np.random.default_rng(4)
        np_arr = rng.random((30, 30, 25)).astype(np.float32) + 0.5
        no_rods = oracle_of(np_arr, np.zeros((30, 30, 24), dtype=np.float32), geom)
        all_rods = oracle_of(np_arr, np.ones((30, 30, 24), dtype=np.float32), geom)
        np.testing.assert_allclose(all_rods, 0.7 * no_rods, rtol=1e-6)


class TestGenerator:
    def test_symmetric_cycle_partner_readings_equal_exactly(self, geom, symmetric_cycle):
        for readings in symmetric_cycle.readings[::9]:
            for d in geom.detectors:
                p = geom.symmetry_partner(d)
                if p is None:
                    continue
                assert readings[geom.detector_index(d)] == readings[geom.detector_index(p)]

    def test_broken_symmetry_produces_unequal_partners(self, geom):
        frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=3, seed=9,
                                              symmetry_fidelity=0.5), geom)
        readings = frames.readings[1]
        diffs = [abs(float(readings[geom.detector_index(d)])
                     - float(readings[geom.detector_index(geom.symmetry_partner(d))]))
                 for d in geom.detectors_in_set("A")]
        assert max(diffs) > 1e-3

    def test_nbd_monotone_nondecreasing(self, symmetric_cycle):
        assert np.all(np.diff(symmetric_cycle.column("nbd"), axis=0) >= 0.0)

    def test_long_cycle_exercises_transient_filter(self, geom):
        frames = generate_cycle(PlantScenario(cycle_id=3, frame_count=2000, seed=42), geom)
        assert np.sum(frames.thermal_power < 0.9) >= 1

    def test_deterministic_function_of_scenario(self, geom):
        scenario = PlantScenario(cycle_id=2, frame_count=8, seed=7, noise_sigma=0.02)
        a = generate_cycle(scenario, geom)
        b = generate_cycle(scenario, geom)
        for name in ARCHIVE_FIELDS:
            np.testing.assert_array_equal(a.column(name), b.column(name))
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_different_seeds_differ(self, geom):
        a = generate_cycle(PlantScenario(cycle_id=1, frame_count=2, seed=1), geom)
        b = generate_cycle(PlantScenario(cycle_id=1, frame_count=2, seed=2), geom)
        assert not np.array_equal(a.readings[0], b.readings[0])

    def test_drift_decays_reading_to_oracle_ratio(self, geom):
        frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=120, seed=5,
                                              drift_rate=0.002), geom)
        ratios = [float(np.median(row)) for row in
                  (frames.readings / oracle_of_table(frames, geom))[[0, 60, 119]]]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] == pytest.approx(0.998 ** 119, rel=1e-4)

    def test_drift_subset_only_affects_selected_detectors(self, geom):
        target = DetectorId(5, "B")
        frames = generate_cycle(
            PlantScenario(cycle_id=1, frame_count=50, seed=6, drift_rate=0.01,
                          drift_detectors=frozenset({target})), geom)
        ratio = (frames.readings / oracle_of_table(frames, geom))[-1]
        idx = geom.detector_index(target)
        assert ratio[idx] == pytest.approx(0.99 ** 49, rel=1e-4)
        others = np.delete(ratio, idx)
        np.testing.assert_allclose(others, 1.0, atol=1e-6)

    def test_noise_scale(self, geom):
        frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=200, seed=8,
                                              noise_sigma=0.01), geom)
        rel = frames.readings / oracle_of_table(frames, geom) - 1.0
        assert np.std(rel) == pytest.approx(0.01, rel=0.1)

    def test_generated_columns_are_pinned(self, geom):
        # SHA-256 over all six columns of three cycles: a drifting subset
        # with noise and broken symmetry, all detectors drifting, and plain
        frames = generate_plant([
            PlantScenario(cycle_id=1, frame_count=12, seed=21, symmetry_fidelity=0.6,
                          noise_sigma=0.01, drift_rate=0.01,
                          drift_detectors=frozenset({DetectorId(5, "B"), DetectorId(12, "A")})),
            PlantScenario(cycle_id=2, frame_count=8, seed=21, noise_sigma=0.02,
                          drift_rate=0.005),
            PlantScenario(cycle_id=3, frame_count=5, seed=21),
        ], geom)
        digest = hashlib.sha256()
        for name in ARCHIVE_FIELDS:
            digest.update(np.ascontiguousarray(frames.column(name)).tobytes())
        assert digest.hexdigest() == \
            "a92b42d11d32d90e48fbaca2aeeb91e6f7e22d2ec81d7f3467d09cfe2614640c"

    @pytest.mark.parametrize("budget", [None, 1, 7])
    def test_streamed_cycle_across_sub_blocks_is_pinned(self, geom, monkeypatch, budget):
        # SHA-256 over all six columns of one 90-frame cycle with broken
        # symmetry, noise and a drifting subset, streamed by plant_blocks
        # under a core-state budget of 1 frame, 7 frames or the default 62,
        # each block filled as one range: any budget yields the bytes of the
        # whole cycle filled at the default
        scenario = PlantScenario(cycle_id=4, frame_count=90, seed=33, symmetry_fidelity=0.6,
                                 noise_sigma=0.01, drift_rate=0.004,
                                 drift_detectors=frozenset({DetectorId(9, "C"),
                                                            DetectorId(20, "D")}))
        whole = generate_cycle(scenario, geom)
        sizes = [62, 28]
        if budget is not None:
            frame_bytes = 4 * (geom.h * geom.w * (geom.d + 2 * geom.dprime + 1) + 3)
            monkeypatch.setattr(coredata, "CORE_BLOCK_BYTES", budget * frame_bytes)
            sizes = [budget] * (90 // budget) + [90 % budget] * (90 % budget > 0)
        blocks = [{name: block.column(name).copy() for name in ARCHIVE_FIELDS}
                  for block in plant_blocks([scenario], geom)]
        assert [len(block["readings"]) for block in blocks] == sizes
        digest = hashlib.sha256()
        for name in ARCHIVE_FIELDS:
            column = np.concatenate([block[name] for block in blocks])
            assert column.tobytes() == whole.column(name).tobytes(), name
            digest.update(column.tobytes())
        assert digest.hexdigest() == \
            "3615e75c30cfdbee8518439871cb53197741e0e51fda6c6e83ddddfce5915840"

    def test_generate_plant_fills_block_rows_at_a_time(self, geom, monkeypatch):
        # one all-rows table, still filled in ranges of at most block_rows
        # frames; a range ends with its cycle
        ranges = []
        fill = synthplant._fill_cycle

        def record(model, frames, core, readings):
            ranges.append((model.scenario.cycle_id, len(frames)))
            fill(model, frames, core, readings)
        monkeypatch.setattr(synthplant, "_fill_cycle", record)
        frames = generate_plant([PlantScenario(cycle_id=1, frame_count=70, seed=2),
                                 PlantScenario(cycle_id=2, frame_count=65, seed=2)], geom)
        assert len(frames) == 135
        assert ranges == [(1, 62), (1, 8), (2, 62), (2, 3)]

    def test_generate_plant_concatenates_cycles(self, geom):
        frames = generate_plant([
            PlantScenario(cycle_id=1, frame_count=4, seed=0),
            PlantScenario(cycle_id=2, frame_count=3, seed=0),
        ], geom)
        assert frames.cycles.tolist() == [1, 1, 1, 1, 2, 2, 2]
        assert frames.timestamps[0] < frames.timestamps[4]

    def test_states_within_invariants(self, symmetric_cycle):
        for nodal_power, rod_variable in zip(symmetric_cycle.column("np")[::13],
                                             symmetric_cycle.column("rv")[::13]):
            assert nodal_power.min() >= 0.0
            assert 0.0 <= rod_variable.min()
            assert rod_variable.max() <= 1.0
            assert nodal_power.mean() == pytest.approx(1.0, rel=1e-5)


class TestOracleBatch:
    def test_batch_matches_single(self, geom, symmetric_cycle):
        frames = symmetric_cycle.take(slice(0, 5))
        batch = oracle_of_table(frames, geom)
        for i in range(len(frames)):
            np.testing.assert_array_equal(batch[i], oracle_of(
                frames.column("np")[i], frames.column("rv")[i], geom,
                tp=frames.thermal_power[i]))
        np.testing.assert_array_equal(batch, symmetric_cycle.readings[:5])
