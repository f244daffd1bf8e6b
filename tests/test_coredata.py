import json
import re

import numpy as np
import pytest

from virtlprm import coredata as cd
from virtlprm.coredata import (
    DataError,
    DetectorId,
    FrameTable,
    GeometryError,
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


def make_frames(cycles=(1,), timestamps=None, power=0.98, readings=None):
    """A frame table of uniform core states, one frame per entry of ``cycles``;
    ``power`` is one thermal power or one per frame, and every reading is 2.0
    unless ``readings`` is given."""
    n = len(cycles)
    scalars = np.empty((n, 3), dtype=np.float32)
    scalars[:] = (0.0, 1.0, 0.99)
    scalars[:, 0] = power
    core = {"np": np.ones((n, 30, 30, 25)), "rv": np.zeros((n, 30, 30, 24)),
            "rp": np.zeros((n, 30, 30)), "nbd": np.zeros((n, 30, 30, 24)), "scalars": scalars}
    if readings is None:
        readings = np.full((n, 172), 2.0, dtype=np.float32)
    return FrameTable(readings, np.arange(n) if timestamps is None else timestamps, cycles, core)


def tiny_core(n=1, **arrays):
    """Valid core-state columns of ``n`` frames on a 2x2 grid (D=3, D'=2),
    with the given fields replaced."""
    core = {"np": np.ones((n, 2, 2, 3)), "rv": np.zeros((n, 2, 2, 2)),
            "rp": np.zeros((n, 2, 2)), "nbd": np.zeros((n, 2, 2, 2)),
            "scalars": np.ones((n, 3))}
    core.update(arrays)
    return core


def tiny_table(**arrays):
    """A frame table over ``tiny_core``, stamped 100, 101, ...; its frame count
    is that of the given arrays, or 1."""
    n = len(next(iter(arrays.values()), np.ones(1)))
    return FrameTable(np.ones((n, 4)), 100 + np.arange(n), np.ones(n), tiny_core(n, **arrays))


class TestDetectorId:
    def test_code_round_trip(self):
        d = DetectorId(17, "C")
        assert d.code == "17C"
        assert DetectorId.parse("17C") == d
        assert DetectorId.parse(" 3a ") == DetectorId(3, "A")

    def test_rejects_garbage(self):
        for bad in ("", "A", "12", "0X", "1E", "\u00b2A"):  # a superscript is no decimal digit
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

    def test_axis_detector_index(self, geom):
        for d in geom.detectors_in_set("C"):
            assert geom.axis_detector_index(d) == geom.detector_index(d)
        with pytest.raises(DataError, match="not on the symmetry axis"):
            geom.axis_detector_index(DetectorId(1, "A"))
        with pytest.raises(DataError, match="unknown detector"):
            geom.axis_detector_index(DetectorId(44, "A"))

    def test_set_indices_are_shared_and_read_only(self, geom):
        for name in ("A", "B", "C"):
            idx = geom.indices_for_set(name)
            assert idx.dtype == np.intp
            assert idx.tolist() == [geom.detector_index(d) for d in geom.detectors_in_set(name)]
            assert geom.indices_for_set(name) is idx
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                idx.sort()
            with pytest.raises(ValueError):
                idx.flags.writeable = True
        with pytest.raises(DataError, match="unknown set 'D'"):
            geom.indices_for_set("D")

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

    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_stacked_frames_match_per_frame_calls(self, lead):
        rng = np.random.default_rng(4)
        rp = rng.random(lead + (6, 7)).astype(np.float32)
        rp.reshape(-1)[::5] = 0.5 / 24.0  # ties, which round up
        nbd = rng.random(lead + (6, 7, 24)).astype(np.float32)
        stacked = derive_rod_variable(rp, nbd)
        assert stacked.shape == nbd.shape and stacked.dtype == np.float32
        for i in np.ndindex(lead):
            assert stacked[i].tobytes() == derive_rod_variable(rp[i], nbd[i]).tobytes()
        out = np.empty_like(nbd)
        assert derive_rod_variable(rp, nbd, out=out) is out
        assert out.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("field, bad, message", [
        ("rp", 1.5, r"rod pattern must lie in \[0, 1\], got range \[0, 1.5\]"),
        ("rp", np.nan, r"rod pattern must lie in \[0, 1\]"),
        ("nbd", -0.1, r"nodal blade depletion must lie in \[0, 1\], got range \[-0.1, 0\]"),
        ("nbd", np.inf, r"nodal blade depletion must lie in \[0, 1\]")])
    def test_bad_value_in_one_frame_of_a_stack_rejected(self, field, bad, message):
        arrays = {"rp": np.zeros((4, 3, 3), dtype=np.float32),
                  "nbd": np.zeros((4, 3, 3, 24), dtype=np.float32)}
        arrays[field][2].flat[4] = bad
        with pytest.raises(DataError, match=message):
            derive_rod_variable(arrays["rp"], arrays["nbd"])

    @pytest.mark.parametrize("rp_shape, nbd_shape", [
        ((4, 3, 3), (3, 3, 3, 24)), ((3, 3), (2, 3, 3, 24)), ((2, 3, 3), (3, 3, 24)),
        ((2, 3, 3), (2, 3, 4, 24)), ((3,), (3, 24))])
    def test_stack_shape_mismatch_rejected(self, rp_shape, nbd_shape):
        with pytest.raises(DataError, match=r"rod variable needs \(H,W\) and \(H,W,D'\) "
                                            r"inputs, got " + re.escape(f"{rp_shape} and {nbd_shape}")):
            derive_rod_variable(np.zeros(rp_shape), np.zeros(nbd_shape))

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            derive_rod_variable(np.full((1, 1), 1.5), np.zeros((1, 1, 24)))
        with pytest.raises(DataError):
            derive_rod_variable(np.zeros((1, 1)), np.full((1, 1, 24), -0.1))


class TestFilterTransients:
    def test_power_threshold(self):
        kept = filter_transients(make_frames(cycles=(1, 1), power=[0.95, 0.89]),
                                 rated_power=1.0)
        assert len(kept) == 1
        assert kept.thermal_power[0] == pytest.approx(0.95)

    def test_exactly_at_threshold_kept(self):
        assert len(filter_transients(make_frames(power=0.9))) == 1

    def test_nan_reading_dropped(self):
        frames = make_frames(cycles=(1, 1))
        frames.readings[0, 0] = np.nan
        assert filter_transients(frames).timestamps.tolist() == [1]

    def test_negative_reading_dropped(self):
        frames = make_frames(cycles=(1, 1))
        frames.readings[0, 5] = -1.0
        assert len(filter_transients(frames)) == 1

    def test_outlier_above_cycle_median_dropped(self):
        frames = make_frames(cycles=(1,) * 10)
        frames.readings[3, 7] = 50.0  # 25x the median of 2.0
        kept = filter_transients(frames)
        assert len(kept) == 9
        assert 3 not in kept.timestamps

    def test_invalid_rated_power(self):
        with pytest.raises(DataError):
            filter_transients(make_frames(), rated_power=0.0)

    def test_mixed_rows_keep_what_the_per_frame_rule_keeps(self):
        # Two interleaved cycles with every kind of bad row. Cycle 2's
        # readings run high on its sub-90% rows, which pull its medians up,
        # so the outlier at row 9 stays under the cap only because dropped
        # rows still count towards the medians.
        cycles = (1, 2) * 8
        power = [0.98, 0.5, 0.95, 0.6, 0.89, 0.7, 0.99, 0.97,
                 0.92, 0.96, 0.93, 0.8, 0.97, 0.98, 0.9, 0.99]
        readings = np.full((16, 172), 2.0, dtype=np.float32)
        readings[1::2] = 3.0
        readings[[1, 3, 5, 11], :] = 40.0     # cycle 2, dropped for low power
        readings[9, 4] = 40.0                 # cycle 2, under 5x its median with them
        readings[2, 8] = np.nan               # cycle 1
        readings[7, 100] = -0.5               # cycle 2
        readings[12, 0] = np.inf              # cycle 1
        readings[6, 3] = 10.5                 # cycle 1, over 5x its median of 2
        readings[10, 3] = 9.5                 # cycle 1, under it
        frames = make_frames(cycles, timestamps=100 + np.arange(16), power=power,
                             readings=readings)

        def per_frame_rule():
            medians = {}
            for c in set(cycles):
                stack = readings[np.array(cycles) == c]
                with np.errstate(invalid="ignore"):
                    medians[c] = np.nanmedian(np.where(np.isfinite(stack), stack, np.nan),
                                              axis=0)
            kept = []
            for i, (c, row) in enumerate(zip(cycles, readings)):
                cap = np.where(np.isfinite(medians[c]) & (medians[c] > 0), 5.0 * medians[c],
                               np.inf)
                if (np.float32(power[i]) >= np.float32(0.9) and np.all(np.isfinite(row))
                        and row.min() >= 0.0 and not np.any(row > cap)):
                    kept.append(100 + i)
            return kept

        kept = filter_transients(frames)
        assert kept.timestamps.tolist() == per_frame_rule()
        assert kept.timestamps.tolist() == [100, 108, 109, 110, 113, 114, 115]
        np.testing.assert_array_equal(kept.readings, readings[kept.timestamps - 100])
        assert kept.cycles.tolist() == [1, 1, 2, 1, 2, 1, 2]


class TestSplits:
    def test_surrogate_exact_proportions(self):
        train, val, test = split_surrogate(make_frames(cycles=(1,) * 100), seed=3)
        assert (len(train), len(val), len(test)) == (70, 20, 10)

    def test_surrogate_deterministic(self):
        frames = make_frames(cycles=(1,) * 37)
        a = split_surrogate(frames, seed=11)
        b = split_surrogate(frames, seed=11)
        for pa, pb in zip(a, b):
            assert pa.timestamps.tolist() == pb.timestamps.tolist()

    def test_surrogate_partition(self):
        train, val, test = split_surrogate(make_frames(cycles=(1,) * 23), seed=5)
        ids = np.concatenate([part.timestamps for part in (train, val, test)])
        assert sorted(ids.tolist()) == list(range(23))

    def test_surrogate_too_few(self):
        with pytest.raises(DataError):
            split_surrogate(make_frames(cycles=(1,) * 9), seed=0)

    def test_holdout_excludes_cycle(self):
        cycles = [c for c in (20, 21, 22, 23) for _ in range(6)]
        frames = make_frames(cycles, timestamps=10 * np.array(cycles) + np.arange(24) % 6)
        train, val, test = split_holdout_cycle(frames, holdout_cycle=22, seed=0)
        assert set(train.cycles.tolist()) == {20, 21, 23}
        assert set(val.cycles.tolist()) == {22}
        assert set(test.cycles.tolist()) == {22}

    def test_holdout_half_split(self):
        frames = make_frames((1,) * 10 + (2,) * 100)
        _, val, test = split_holdout_cycle(frames, holdout_cycle=2, seed=1)
        assert len(val) == 50 and len(test) == 50

    def test_holdout_partition_disjoint(self):
        frames = make_frames((1,) * 9 + (2,) * 9)
        train, val, test = split_holdout_cycle(frames, holdout_cycle=2, seed=2)
        ids = np.concatenate([part.timestamps for part in (train, val, test)]).tolist()
        assert len(ids) == len(set(ids)) == len(frames)

    def test_holdout_missing_cycle(self):
        with pytest.raises(DataError):
            split_holdout_cycle(make_frames(cycles=(1,)), holdout_cycle=2, seed=0)
        with pytest.raises(DataError):
            split_holdout_cycle(make_frames(cycles=(2,)), holdout_cycle=2, seed=0)

    def test_holdout_too_small_to_split(self):
        with pytest.raises(DataError, match="at least 2"):
            split_holdout_cycle(make_frames((1,) * 5 + (2,)), holdout_cycle=2, seed=0)
        _, val, test = split_holdout_cycle(make_frames((1,) * 5 + (2,) * 2),
                                           holdout_cycle=2, seed=0)
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

    def test_invalid_probability(self):
        with pytest.raises(DataError):
            bypass_augment(np.ones(3), 1.5, np.random.default_rng(0))


def mark_bypassed(frames, row, detector, geom):
    """Mark ``detector`` bypassed in frame ``row``, its reading stored as zero."""
    frames.bypassed[row] = frozenset({detector})
    frames.readings[row, geom.detector_index(detector)] = 0.0


class TestArchive:
    def test_round_trip_bit_exact(self, tmp_path, geom):
        rng = np.random.default_rng(9)
        frames = make_frames(cycles=(1, 2, 1, 2), readings=rng.random((4, 172)))
        frames.column("np")[:] = rng.random((4, 30, 30, 25))
        mark_bypassed(frames, 2, DetectorId(3, "B"), geom)

        save_archive(frames, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        assert len(loaded) == 4
        for name in ("timestamps", "cycles", "bypassed"):
            assert getattr(loaded, name).tolist() == getattr(frames, name).tolist()
        for name in cd.ARCHIVE_FIELDS:
            np.testing.assert_array_equal(loaded.column(name), frames.column(name))

        save_archive(loaded, tmp_path / "arch2")
        for name in ("manifest.json", "np.bin", "rv.bin", "rp.bin", "nbd.bin",
                     "scalars.bin", "readings.bin"):
            assert (tmp_path / "arch" / name).read_bytes() == \
                   (tmp_path / "arch2" / name).read_bytes()

    def test_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_archive(tmp_path)

    def test_rejects_truncated_blob(self, tmp_path):
        save_archive(make_frames(cycles=(1,) * 3), tmp_path / "a")
        blob = tmp_path / "a" / "readings.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(DataError, match="readings"):
            load_archive(tmp_path / "a")

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(DataError):
            save_archive(make_frames(cycles=()), tmp_path / "a")

    def test_core_state_read_once_on_first_use(self, tmp_path, blob_reads, geom, monkeypatch):
        frames = make_frames(cycles=(1, 2, 1), timestamps=[0, 10, 20])
        mark_bypassed(frames, 1, DetectorId(3, "B"), geom)
        save_archive(frames, tmp_path / "a")

        archive = load_archive(tmp_path / "a")
        assert len(archive) == 3
        assert archive.timestamps.tolist() == [0, 10, 20]
        assert archive.cycles.tolist() == [1, 2, 1]
        assert archive.bypassed.tolist() == [frozenset(), frozenset({DetectorId(3, "B")}),
                                             frozenset()]
        np.testing.assert_array_equal(archive.readings, frames.readings)
        assert blob_reads == ["readings.bin"]

        selected = archive.take([2, 0])  # a row selection reads nothing either
        assert selected.timestamps.tolist() == [20, 0]
        assert blob_reads == ["readings.bin"]

        # one-frame blocks: the check and every selection read at most one frame a call
        monkeypatch.setattr(cd, "CORE_BLOCK_BYTES", 1)
        frame_reads = []
        recorded = cd.read_blob
        frame_size = {f"{name}.bin": frames.column(name)[0].size for name in cd.ARCHIVE_FIELDS}

        def count_frames(path, *args, **kwargs):
            raw = recorded(path, *args, **kwargs)
            frame_reads.append(raw.size / frame_size[path.name])
            return raw
        monkeypatch.setattr(cd, "read_blob", count_frames)
        np.testing.assert_array_equal(selected.column("rv"), frames.column("rv")[[2, 0]])
        assert sorted(set(blob_reads)) == sorted(f"{name}.bin" for name in cd.ARCHIVE_FIELDS)
        assert frame_reads and max(frame_reads) == 1
        assert selected.thermal_power.tolist() == frames.thermal_power[[2, 0]].tolist()
        for name in cd.CORE_STATE_FIELDS:  # bit-exact
            np.testing.assert_array_equal(archive.column(name), frames.column(name))

    def test_read_blob_fills_out_or_refuses(self, tmp_path):
        blob = tmp_path / "x.bin"
        np.arange(5, dtype="<f4").tofile(blob)
        out = np.empty(3, dtype="<f4")
        assert cd.read_blob(blob, out, 2) is out
        assert out.tolist() == [2.0, 3.0, 4.0]
        with pytest.raises(DataError, match="holds fewer than 6 values"):
            cd.read_blob(blob, out, 3)

    @pytest.mark.parametrize("name", ["np", "rv", "rp", "nbd", "scalars"])
    def test_rejects_short_core_state_blob_at_open(self, tmp_path, blob_reads, name):
        save_archive(make_frames(cycles=(1,) * 3), tmp_path / "a")
        blob = tmp_path / "a" / f"{name}.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(DataError, match=f"{name}.bin"):
            load_archive(tmp_path / "a")
        assert blob_reads == []

    def test_core_state_fault_raised_on_first_use(self, tmp_path):
        save_archive(make_frames(cycles=(1,) * 3, timestamps=[7, 8, 9]), tmp_path / "a")
        with open(tmp_path / "a" / "np.bin", "r+b") as fh:
            fh.seek(4 * 30 * 30 * 25 + 8)  # into the second frame
            fh.write(np.array([np.nan], dtype="<f4").tobytes())
        archive = load_archive(tmp_path / "a")
        assert archive.timestamps.tolist() == [7, 8, 9]
        selected = archive.take([0, 2])  # the check covers every frame of the archive
        for _ in range(2):  # a failed read is not cached
            with pytest.raises(DataError, match=r"nodal power .*non-finite.*'np'.*timestamp 8\b"):
                selected.column("scalars")

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(frame_count=4),
        lambda m: m["frames"][1].pop("timestamp"),
        lambda m: m["frames"].__setitem__(2, [0, 1]),
        lambda m: m["shapes"].pop("rv"),
        lambda m: m["shapes"].__setitem__("readings", [4, 43]),
    ], ids=["frame_count", "no timestamp", "record not an object", "no rv shape",
            "readings not flat"])
    def test_rejects_inconsistent_manifest(self, tmp_path, edit):
        save_archive(make_frames(cycles=(1,) * 3), tmp_path / "a")
        path = tmp_path / "a" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError):
            load_archive(tmp_path / "a")


class TestContainers:
    """A frame table checks the core-state columns it is given."""

    def test_core_state_validation(self):
        with pytest.raises(DataError, match="nodal power must be finite and non-negative"):
            tiny_table(np=np.full((1, 2, 2, 3), -1.0))
        with pytest.raises(DataError, match=r"rod variable must lie in \[0, 1\]"):
            tiny_table(rv=np.full((1, 2, 2, 2), 1.5))
        with pytest.raises(DataError, match="field 'rv' has shape"):
            tiny_table(rv=np.zeros((1, 3, 2, 2)))  # another radial grid
        with pytest.raises(DataError, match="field 'scalars' has shape"):
            tiny_table(scalars=np.ones((1, 2)))

    def test_rod_inputs_validation(self):
        with pytest.raises(DataError, match="rod pattern"):
            tiny_table(rp=np.full((1, 2, 2), 2.0))

    @pytest.mark.parametrize("field,name", [("rod_pattern", "rod pattern"),
                                            ("nodal_blade_depletion", "nodal blade depletion")])
    def test_nan_rod_input_rejected(self, field, name):
        # NaN fails both of the range's comparisons, so it must not pass as in range
        arrays = {"rod_pattern": np.full((2, 2), 0.5), "nodal_blade_depletion": np.zeros((2, 2, 4))}
        arrays[field].flat[3] = np.nan
        column = {"rod_pattern": "rp", "nodal_blade_depletion": "nbd"}[field]
        with pytest.raises(DataError, match=name + r" must lie in \[0, 1\]"):
            tiny_table(rp=arrays["rod_pattern"][None], nbd=arrays["nodal_blade_depletion"][None])
        with pytest.raises(DataError, match=name + r" must lie in \[0, 1\]"):
            derive_rod_variable(**arrays)
        with pytest.raises(DataError, match=f"'{column}'"):
            tiny_table(rp=arrays["rod_pattern"][None], nbd=arrays["nodal_blade_depletion"][None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["nodal_power", "rod_variable"])
    def test_core_state_rejects_non_finite(self, field, bad):
        name = {"nodal_power": "np", "rod_variable": "rv"}[field]
        column = tiny_core(3)[name]
        column[2, 1, 0, 1] = bad
        with pytest.raises(DataError, match=f"non-finite values \\(field '{name}', first in "
                                            f"the frame at timestamp 102\\)"):
            tiny_table(**{name: column})

    def test_unit_range_message_names_the_range(self):
        rv = np.zeros((1, 2, 2, 2))
        rv[0, 0, 1, 1] = -0.5
        with pytest.raises(DataError, match=r"rod variable must lie in \[0, 1\], got range "
                                            r"\[-0\.5, 0\]"):
            tiny_table(rv=rv)
        nbd = np.zeros((2, 2, 2, 2))
        nbd[1, 1, 1, 1] = 3.0
        with pytest.raises(DataError, match=r"nodal blade depletion .* \[0, 3\] "
                                            r"\(field 'nbd', first in the frame at timestamp 101"):
            tiny_table(**tiny_core(2, nbd=nbd))

    def test_zero_size_arrays_are_valid(self):
        frames = tiny_table(np=np.zeros((1, 0, 2, 3)), rv=np.zeros((1, 0, 2, 2)),
                            rp=np.zeros((1, 0, 2)), nbd=np.zeros((1, 0, 2, 4)))
        assert frames.column("np").size == 0 and frames.column("rp").size == 0
        assert len(make_frames(cycles=())) == 0
