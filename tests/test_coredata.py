import json

import numpy as np
import pytest

from virtlprm import coredata as cd
from virtlprm.coredata import (
    CoreState,
    DataError,
    DetectorId,
    GeometryError,
    LprmFrame,
    RodInputs,
    bypass_augment,
    default_geometry,
    derive_rod_variable,
    filter_transients,
    load_archive,
    save_archive,
    split_holdout_cycle,
    split_surrogate,
)


@pytest.fixture(scope="module")
def geom():
    return default_geometry()


def make_frame(cycle=1, timestamp=0, power=0.98, readings=None, geom=None):
    h = w = 30
    state = CoreState(
        nodal_power=np.ones((h, w, 25), dtype=np.float32),
        rod_variable=np.zeros((h, w, 24), dtype=np.float32),
        thermal_power=power,
        core_inlet_subcooling=1.0,
        core_flow=0.99,
    )
    rod = RodInputs(rod_pattern=np.zeros((h, w), dtype=np.float32),
                    nodal_blade_depletion=np.zeros((h, w, 24), dtype=np.float32))
    if readings is None:
        readings = np.full(172, 2.0, dtype=np.float32)
    return LprmFrame(timestamp=timestamp, cycle_id=cycle, state=state,
                     readings=readings, rod_inputs=rod)


class TestDetectorId:
    def test_code_round_trip(self):
        d = DetectorId(17, "C")
        assert d.code == "17C"
        assert DetectorId.parse("17C") == d
        assert DetectorId.parse(" 3a ") == DetectorId(3, "A")

    def test_rejects_garbage(self):
        for bad in ("", "A", "12", "0X", "1E"):
            with pytest.raises(DataError):
                DetectorId.parse(bad)

    def test_invalid_fields(self):
        with pytest.raises(DataError):
            DetectorId(0, "A")
        with pytest.raises(DataError):
            DetectorId(1, "E")


class TestGeometry:
    def test_cardinalities(self, geom):
        assert len(geom.string_indices) == 43
        assert geom.detector_count == 172
        assert len(geom.detectors_in_set("A")) == 76
        assert len(geom.detectors_in_set("B")) == 76
        assert len(geom.detectors_in_set("C")) == 20
        paired = [d for d in geom.detectors if geom.symmetry_partner(d) is not None]
        assert len(paired) == 152

    def test_partner_example_pairing(self, geom):
        assert geom.symmetry_partner(DetectorId(1, "A")) == DetectorId(6, "A")

    def test_partner_is_level_preserving_involution(self, geom):
        for d in geom.detectors:
            p = geom.symmetry_partner(d)
            if geom.set_of_detector(d) == "C":
                assert p is None
            else:
                assert p.level == d.level
                assert geom.symmetry_partner(p) == d

    def test_reflection_consistency(self, geom):
        for d in geom.detectors:
            p = geom.symmetry_partner(d)
            if p is None:
                r, c = geom.position_of(d.string_index)
                assert r == c
            else:
                r, c = geom.position_of(d.string_index)
                assert geom.position_of(p.string_index) == (c, r)

    def test_detector_ordering_is_string_major(self, geom):
        assert geom.detectors[0] == DetectorId(1, "A")
        assert geom.detectors[3] == DetectorId(1, "D")
        assert geom.detectors[4] == DetectorId(2, "A")
        assert geom.detector_index(DetectorId(43, "D")) == 171

    def test_unknown_detector(self, geom):
        with pytest.raises(DataError):
            geom.symmetry_partner(DetectorId(44, "A"))

    def test_layout_round_trip(self, geom, tmp_path):
        path = tmp_path / "layout.json"
        path.write_text(json.dumps(geom.to_layout()))
        again = cd.load_geometry(path)
        assert again.to_layout() == geom.to_layout()

    def test_validation_rejects_broken_symmetry(self, geom):
        layout = geom.to_layout()
        layout["strings"][0]["row"] += 1  # string 1 no longer mirrors string 6
        with pytest.raises(GeometryError):
            cd.geometry_from_layout(layout)

    def test_validation_rejects_off_axis_c_string(self, geom):
        layout = geom.to_layout()
        for s in layout["strings"]:
            if s["set"] == "C":
                s["col"] += 4
                break
        with pytest.raises(GeometryError):
            cd.geometry_from_layout(layout)

    def test_validation_rejects_wrong_cardinalities(self, geom):
        layout = geom.to_layout()
        layout["strings"] = layout["strings"][:-1]
        with pytest.raises(GeometryError):
            cd.geometry_from_layout(layout)


class TestRodVariable:
    def test_half_insertion_example(self):
        rp = np.full((1, 1), 0.5, dtype=np.float32)
        nbd = np.zeros((1, 1, 24), dtype=np.float32)
        rv = derive_rod_variable(rp, nbd)
        assert rv.shape == (1, 1, 24)
        np.testing.assert_array_equal(rv[0, 0, :12], 1.0)
        np.testing.assert_array_equal(rv[0, 0, 12:], 0.0)

    def test_full_depletion_kills_rod_variable(self):
        rp = np.ones((2, 2), dtype=np.float32)
        nbd = np.ones((2, 2, 24), dtype=np.float32)
        np.testing.assert_array_equal(derive_rod_variable(rp, nbd), 0.0)

    def test_pointwise_weighting(self):
        rp = np.ones((1, 1), dtype=np.float32)
        nbd = np.zeros((1, 1, 24), dtype=np.float32)
        nbd[0, 0, 5] = 0.25
        rv = derive_rod_variable(rp, nbd)
        assert rv[0, 0, 5] == pytest.approx(0.75)
        np.testing.assert_array_equal(np.delete(rv[0, 0], 5), 1.0)

    def test_fills_from_rod_entry_end(self):
        rp = np.full((1, 1), 0.25, dtype=np.float32)
        nbd = np.zeros((1, 1, 24), dtype=np.float32)
        rv = derive_rod_variable(rp, nbd)[0, 0]
        assert rv[:6].sum() == 6.0 and rv[6:].sum() == 0.0

    def test_ties_round_up(self):
        # 0.5/24 of a notch: f*24 = 0.5 exactly, which rounds up to one node.
        rp = np.full((1, 1), 0.5 / 24.0, dtype=np.float32)
        nbd = np.zeros((1, 1, 24), dtype=np.float32)
        assert derive_rod_variable(rp, nbd)[0, 0].sum() == 1.0

    def test_monotonicity_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rp = rng.random((3, 3)).astype(np.float32)
            nbd = rng.random((3, 3, 24)).astype(np.float32)
            rv = derive_rod_variable(rp, nbd)
            # Non-increasing in depletion.
            deeper = np.clip(nbd + rng.random((3, 3, 24)).astype(np.float32) * 0.2, 0, 1)
            assert np.all(derive_rod_variable(rp, deeper) <= rv + 1e-7)
            # Non-decreasing in insertion.
            more = np.clip(rp + rng.random((3, 3)).astype(np.float32) * 0.2, 0, 1)
            assert np.all(derive_rod_variable(more, nbd) >= rv - 1e-7)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            derive_rod_variable(np.full((1, 1), 1.5), np.zeros((1, 1, 24)))
        with pytest.raises(DataError):
            derive_rod_variable(np.zeros((1, 1)), np.full((1, 1, 24), -0.1))


class TestFilterTransients:
    def test_power_threshold(self):
        kept = filter_transients([make_frame(power=0.95), make_frame(power=0.89)],
                                 rated_power=1.0)
        assert len(kept) == 1
        assert kept[0].state.thermal_power == pytest.approx(0.95)

    def test_exactly_at_threshold_kept(self):
        assert len(filter_transients([make_frame(power=0.9)])) == 1

    def test_nan_reading_dropped(self):
        readings = np.full(172, 2.0, dtype=np.float32)
        frame = make_frame()
        frame.readings[0] = np.nan
        assert filter_transients([frame, make_frame()]) != []
        assert len(filter_transients([frame, make_frame()])) == 1

    def test_negative_reading_dropped(self):
        bad = make_frame()
        bad.readings[5] = -1.0
        assert len(filter_transients([bad, make_frame()])) == 1

    def test_outlier_above_cycle_median_dropped(self):
        frames = [make_frame(timestamp=i) for i in range(10)]
        frames[3].readings[7] = 50.0  # 25x the median of 2.0
        kept = filter_transients(frames)
        assert len(kept) == 9
        assert all(f.timestamp != 3 for f in kept)

    def test_invalid_rated_power(self):
        with pytest.raises(DataError):
            filter_transients([make_frame()], rated_power=0.0)


class TestSplits:
    def test_surrogate_exact_proportions(self):
        frames = [make_frame(timestamp=i) for i in range(100)]
        train, val, test = split_surrogate(frames, seed=3)
        assert (len(train), len(val), len(test)) == (70, 20, 10)

    def test_surrogate_deterministic(self):
        frames = [make_frame(timestamp=i) for i in range(37)]
        a = split_surrogate(frames, seed=11)
        b = split_surrogate(frames, seed=11)
        for pa, pb in zip(a, b):
            assert [f.timestamp for f in pa] == [f.timestamp for f in pb]

    def test_surrogate_partition(self):
        frames = [make_frame(timestamp=i) for i in range(23)]
        train, val, test = split_surrogate(frames, seed=5)
        ids = [f.timestamp for part in (train, val, test) for f in part]
        assert sorted(ids) == list(range(23))

    def test_surrogate_too_few(self):
        with pytest.raises(DataError):
            split_surrogate([make_frame()] * 9, seed=0)

    def test_holdout_excludes_cycle(self):
        frames = [make_frame(cycle=c, timestamp=10 * c + i)
                  for c in (20, 21, 22, 23) for i in range(6)]
        train, val, test = split_holdout_cycle(frames, holdout_cycle=22, seed=0)
        assert {f.cycle_id for f in train} == {20, 21, 23}
        assert {f.cycle_id for f in val} == {22}
        assert {f.cycle_id for f in test} == {22}

    def test_holdout_half_split(self):
        frames = [make_frame(cycle=1, timestamp=i) for i in range(10)]
        frames += [make_frame(cycle=2, timestamp=100 + i) for i in range(100)]
        _, val, test = split_holdout_cycle(frames, holdout_cycle=2, seed=1)
        assert len(val) == 50 and len(test) == 50

    def test_holdout_partition_disjoint(self):
        frames = [make_frame(cycle=c, timestamp=17 * c + i)
                  for c in (1, 2) for i in range(9)]
        train, val, test = split_holdout_cycle(frames, holdout_cycle=2, seed=2)
        ids = [f.timestamp for part in (train, val, test) for f in part]
        assert len(ids) == len(set(ids)) == len(frames)

    def test_holdout_missing_cycle(self):
        with pytest.raises(DataError):
            split_holdout_cycle([make_frame(cycle=1)], holdout_cycle=2, seed=0)
        with pytest.raises(DataError):
            split_holdout_cycle([make_frame(cycle=2)], holdout_cycle=2, seed=0)

    def test_holdout_too_small_to_split(self):
        frames = [make_frame(cycle=1, timestamp=i) for i in range(5)]
        with pytest.raises(DataError, match="at least 2"):
            split_holdout_cycle(frames + [make_frame(cycle=2, timestamp=9)],
                                holdout_cycle=2, seed=0)
        two = [make_frame(cycle=2, timestamp=9 + i) for i in range(2)]
        _, val, test = split_holdout_cycle(frames + two, holdout_cycle=2, seed=0)
        assert len(val) == len(test) == 1


class TestBypassAugment:
    def test_p_zero_identity(self):
        x = np.arange(10, dtype=np.float32)
        out = bypass_augment(x, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_p_one_all_zero(self):
        x = np.ones(10, dtype=np.float32)
        out = bypass_augment(x, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, 0.0)

    def test_zeroing_frequency(self):
        rng = np.random.default_rng(1234)
        x = np.ones(100_000, dtype=np.float32)
        out = bypass_augment(x, 0.2, rng)
        frac = 1.0 - out.mean()
        assert 0.196 <= frac <= 0.204

    def test_deterministic_under_seeded_rng(self):
        x = np.ones(64, dtype=np.float32)
        a = bypass_augment(x, 0.3, np.random.default_rng(7))
        b = bypass_augment(x, 0.3, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_per_sample_mode_zeroes_whole_rows(self):
        x = np.ones((2000, 4), dtype=np.float32)
        out = bypass_augment(x, 0.5, np.random.default_rng(3), mode="per-sample")
        row_sums = out.sum(axis=1)
        assert set(np.unique(row_sums)) == {0.0, 4.0}
        assert 0.4 < (row_sums == 0).mean() < 0.6

    def test_invalid_probability(self):
        with pytest.raises(DataError):
            bypass_augment(np.ones(3), 1.5, np.random.default_rng(0))


class TestArchive:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        frames = []
        for i in range(4):
            f = make_frame(cycle=1 + i % 2, timestamp=i)
            f.state.nodal_power = rng.random((30, 30, 25)).astype(np.float32)
            f.readings = rng.random(172).astype(np.float32)
            frames.append(f)
        frames[2].bypassed = frozenset({DetectorId(3, "B")})
        frames[2].apply_bypass(default_geometry())

        save_archive(frames, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        assert len(loaded) == 4
        for orig, back in zip(frames, loaded):
            assert back.timestamp == orig.timestamp
            assert back.cycle_id == orig.cycle_id
            assert back.bypassed == orig.bypassed
            np.testing.assert_array_equal(back.readings, orig.readings)
            np.testing.assert_array_equal(back.state.nodal_power, orig.state.nodal_power)
            np.testing.assert_array_equal(back.rod_inputs.rod_pattern,
                                          orig.rod_inputs.rod_pattern)

        save_archive(loaded, tmp_path / "arch2")
        for name in ("manifest.json", "np.bin", "rv.bin", "rp.bin", "nbd.bin",
                     "scalars.bin", "readings.bin"):
            assert (tmp_path / "arch" / name).read_bytes() == \
                   (tmp_path / "arch2" / name).read_bytes()

    def test_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_archive(tmp_path)

    def test_rejects_truncated_blob(self, tmp_path):
        save_archive([make_frame(timestamp=i) for i in range(3)], tmp_path / "a")
        blob = tmp_path / "a" / "readings.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(DataError, match="readings"):
            load_archive(tmp_path / "a")

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(DataError):
            save_archive([], tmp_path / "a")

    def test_core_state_read_once_on_first_use(self, tmp_path, blob_reads):
        frames = [make_frame(cycle=1 + i % 2, timestamp=10 * i) for i in range(3)]
        frames[1].bypassed = frozenset({DetectorId(3, "B")})
        frames[1].apply_bypass(default_geometry())
        save_archive(frames, tmp_path / "a")

        archive = load_archive(tmp_path / "a")
        assert len(archive) == 3
        assert archive.timestamps == [0, 10, 20]
        assert archive.bypassed == [frozenset(), frozenset({DetectorId(3, "B")}), frozenset()]
        np.testing.assert_array_equal(archive.readings, np.stack([f.readings for f in frames]))
        assert blob_reads == ["readings.bin"]

        first = list(archive)
        assert sorted(blob_reads) == sorted(f"{name}.bin" for name in cd.ARCHIVE_FIELDS)
        assert [f.cycle_id for f in first] == [1, 2, 1]
        assert [f.bypassed for f in first] == archive.bypassed
        blob_reads.clear()
        second = [archive[i] for i in range(len(archive))] + list(archive)
        assert blob_reads == []
        assert all(a is b for a, b in zip(first + first, second))

    @pytest.mark.parametrize("name", ["np", "rv", "rp", "nbd", "scalars"])
    def test_rejects_short_core_state_blob_at_open(self, tmp_path, blob_reads, name):
        save_archive([make_frame(timestamp=i) for i in range(3)], tmp_path / "a")
        blob = tmp_path / "a" / f"{name}.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(DataError, match=f"{name}.bin"):
            load_archive(tmp_path / "a")
        assert blob_reads == []

    def test_core_state_fault_raised_on_first_use(self, tmp_path):
        save_archive([make_frame(timestamp=i) for i in range(3)], tmp_path / "a")
        with open(tmp_path / "a" / "np.bin", "r+b") as fh:
            fh.seek(4 * 30 * 30 * 25 + 8)  # into the second frame
            fh.write(np.array([np.nan], dtype="<f4").tobytes())
        archive = load_archive(tmp_path / "a")
        assert archive.timestamps == [0, 1, 2]
        for _ in range(2):  # a failed read is not cached
            with pytest.raises(DataError, match="non-finite"):
                archive[0]

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(frame_count=4),
        lambda m: m["frames"][1].pop("timestamp"),
        lambda m: m["frames"].__setitem__(2, [0, 1]),
        lambda m: m["shapes"].pop("rv"),
        lambda m: m["shapes"].__setitem__("readings", [4, 43]),
    ], ids=["frame_count", "no timestamp", "record not an object", "no rv shape",
            "readings not flat"])
    def test_rejects_inconsistent_manifest(self, tmp_path, edit):
        save_archive([make_frame(timestamp=i) for i in range(3)], tmp_path / "a")
        path = tmp_path / "a" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError):
            load_archive(tmp_path / "a")


class TestContainers:
    def test_core_state_validation(self):
        with pytest.raises(DataError):
            CoreState(np.full((2, 2, 3), -1.0), np.zeros((2, 2, 2)), 1.0, 1.0, 1.0)
        with pytest.raises(DataError):
            CoreState(np.ones((2, 2, 3)), np.full((2, 2, 2), 1.5), 1.0, 1.0, 1.0)

    def test_bypassed_readings_zeroed(self, geom):
        f = make_frame()
        f.bypassed = frozenset({DetectorId(1, "A")})
        f.apply_bypass(geom)
        assert f.readings[geom.detector_index(DetectorId(1, "A"))] == 0.0

    def test_rod_inputs_validation(self):
        with pytest.raises(DataError):
            RodInputs(np.full((2, 2), 2.0), np.zeros((2, 2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["nodal_power", "rod_variable"])
    def test_core_state_rejects_non_finite(self, field, bad):
        arrays = {"nodal_power": np.ones((2, 2, 3)), "rod_variable": np.zeros((2, 2, 2))}
        arrays[field][1, 0, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            CoreState(**arrays, thermal_power=1.0, core_inlet_subcooling=1.0, core_flow=1.0)

    def test_unit_range_message_names_the_range(self):
        rv = np.zeros((2, 2, 2))
        rv[0, 1, 1] = -0.5
        with pytest.raises(DataError, match=r"rod variable must lie in \[0, 1\], got range "
                                            r"\[-0\.5, 0\]"):
            CoreState(np.ones((2, 2, 3)), rv, 1.0, 1.0, 1.0)
        nbd = np.zeros((2, 2, 4))
        nbd[1, 1, 3] = 3.0
        with pytest.raises(DataError, match=r"nodal blade depletion .* \[0, 3\]"):
            RodInputs(np.zeros((2, 2)), nbd)

    def test_zero_size_arrays_are_valid(self):
        state = CoreState(np.zeros((0, 2, 3)), np.zeros((0, 2, 2)), 1.0, 1.0, 1.0)
        assert state.nodal_power.size == 0
        rod = RodInputs(np.zeros((0, 2)), np.zeros((0, 2, 4)))
        assert rod.rod_pattern.size == 0
