import dataclasses
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from virtlprm import autodiff as ad
from virtlprm import coredata, models
from virtlprm.autodiff import Tensor, grad_check
from virtlprm.coredata import DataError, DetectorId, default_geometry
from virtlprm.evaluation import AxisDetectorPredictor, LprmNetPredictor, SetSurrogatePredictor
from virtlprm.models import (
    LprmNet,
    LprmNetSpec,
    SurrogateNet,
    SurrogateSpec,
    axis_surrogate_spec,
    corestate_batch,
    load_checkpoint,
    paired_surrogate_spec,
    save_checkpoint,
)
from virtlprm.synthplant import PlantScenario, generate_cycle
from virtlprm.training import batched_predict


@pytest.fixture(scope="module")
def geom():
    return default_geometry()


@pytest.fixture(scope="module")
def frames(geom):
    return generate_cycle(PlantScenario(cycle_id=1, frame_count=12, seed=100,
                                        noise_sigma=0.01), geom)


CHECKPOINTS = Path(__file__).resolve().parent / "fixtures" / "checkpoints"


def checkpoint_fixture_model(kind: str):
    """The model each ``fixtures/checkpoints/<kind>`` directory was saved
    from: a seeded network with every state entry overwritten by normal draws."""
    if kind == "surrogate":
        net = SurrogateNet(SurrogateSpec(5, 2, (3,) * 6), seed=31)
    else:
        net = LprmNet(LprmNetSpec(grid=(3, 2), power_channels=2, rod_channels=2, scalar_count=3,
                                  conv_channels=2, trunk_hidden=3, trunk_out=2, scalar_hidden=2,
                                  scalar_out=2, regression_hidden=2), seed=32)
    rng = np.random.default_rng(33)
    for arr in net.state().values():
        arr[...] = rng.standard_normal(arr.shape)
    return net


def small_lprmnet_spec():
    return LprmNetSpec(grid=(6, 6), power_channels=5, rod_channels=4, scalar_count=3,
                       conv_channels=4, trunk_hidden=24, trunk_out=12,
                       scalar_hidden=8, scalar_out=8, regression_hidden=8)


def assert_live_gradients(net):
    """Every bias but the readout's feeds a train-mode batch norm, which
    subtracts the batch mean, so its exact gradient is zero: it must be zero
    to rounding, at most 1e-3 of the model's largest gradient. Every other
    parameter must get a nonzero gradient."""
    for key, p in net.params.items():
        assert p.grad is not None, f"no gradient for {key}"
    largest = max(float(np.abs(p.grad).max()) for p in net.params.values())
    for key, p in net.params.items():
        if key.endswith(".bias") and key != "out.bias":
            assert np.abs(p.grad).max() <= 1e-3 * largest, f"live batch-normed bias {key}"
        else:
            assert np.any(p.grad != 0.0), f"dead parameter {key}"


def lprmnet_inputs(rng, spec, n=4, dtype=np.float32):
    h, w = spec.grid
    return {
        "np": rng.random((n, spec.power_channels, h, w)).astype(dtype),
        "rv": rng.random((n, spec.rod_channels, h, w)).astype(dtype),
        "scalars": rng.random((n, spec.scalar_count)).astype(dtype),
    }


class TestSurrogateSpec:
    def test_exactly_six_hidden_layers(self):
        with pytest.raises(DataError):
            SurrogateSpec(input_size=4, output_size=4, hidden_sizes=(8, 8))

    def test_paired_and_axis_presets(self):
        p = paired_surrogate_spec()
        assert (p.input_size, p.output_size) == (76, 76)
        a = axis_surrogate_spec()
        assert (a.input_size, a.output_size) == (171, 1)
        assert a.hidden_sizes == (512,) * 6


class TestLprmNetSpec:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LprmNetSpec)])
    def test_every_size_at_least_one(self, name):
        with pytest.raises(DataError, match=f"{name} must be at least 1"):
            LprmNetSpec(**{name: (30, 0) if name == "grid" else 0})

    def test_qk_channels_may_be_none(self):
        assert LprmNetSpec(qk_channels=None).attention_qk == 32


class TestSurrogateNet:
    def test_parameter_count_closed_form(self):
        net = SurrogateNet(SurrogateSpec(76, 76, (256,) * 6), seed=0)
        expected = (76 * 256 + 256) + 5 * (256 * 256 + 256) + (256 * 76 + 76) \
            + 6 * 2 * 256
        assert net.parameter_count() == expected

    def test_same_seed_identical_parameters(self):
        a = SurrogateNet(SurrogateSpec(76, 76, (32,) * 6), seed=5)
        b = SurrogateNet(SurrogateSpec(76, 76, (32,) * 6), seed=5)
        for key in a.params:
            np.testing.assert_array_equal(a.params[key].data, b.params[key].data)
        c = SurrogateNet(SurrogateSpec(76, 76, (32,) * 6), seed=6)
        assert not np.array_equal(a.params["fc1.weight"].data, c.params["fc1.weight"].data)

    def test_zero_input_finite_output(self):
        net = SurrogateNet(SurrogateSpec(76, 76, (32,) * 6), seed=1)
        out = batched_predict(net, {"x": np.zeros((1, 76), dtype=np.float32)})
        assert out.shape == (1, 76)
        assert np.all(np.isfinite(out))

    def test_eval_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(2)
        net = SurrogateNet(SurrogateSpec(76, 76, (32,) * 6), seed=1)
        x = {"x": rng.random((1, 76)).astype(np.float32)}
        np.testing.assert_array_equal(batched_predict(net, x), batched_predict(net, x))

    def test_identical_rows_identical_outputs_in_eval(self):
        rng = np.random.default_rng(3)
        net = SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=1)
        row = rng.random(10).astype(np.float32)
        batch = np.tile(row, (5, 1))
        out = batched_predict(net, {"x": batch})
        for i in range(1, 5):
            np.testing.assert_array_equal(out[i], out[0])

    def test_wrong_input_length_rejected(self):
        net = SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=1)
        with pytest.raises(DataError):
            net.forward_batch({"x": np.zeros((1, 11), dtype=np.float32)})

    def test_every_parameter_gets_gradient(self):
        rng = np.random.default_rng(4)
        net = SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=2)
        x = rng.random((6, 10)).astype(np.float32)
        y = rng.random((6, 4)).astype(np.float32)
        net.zero_grads()
        loss = ad.mse_loss(net.forward_batch({"x": x}, mode="train"), Tensor(y))
        loss.backward()
        assert_live_gradients(net)

    def test_full_network_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        net = SurrogateNet(SurrogateSpec(6, 3, (5,) * 6), seed=3, dtype=np.float64)
        x = rng.random((4, 6))
        y = rng.random((4, 3))

        def loss_for(key):
            def f(t):
                saved = net.params[key]
                net.params[key] = t
                try:
                    out = net.forward_batch({"x": x}, mode="train")
                    return ad.mse_loss(out, Tensor(y))
                finally:
                    net.params[key] = saved
            return f

        for key in ("fc1.weight", "bn3.gamma", "bn6.beta", "out.bias"):
            p = net.params[key]
            p.grad = None
            assert grad_check(loss_for(key), p, step=1e-6) < 1e-6


class TestLprmNet:
    def test_parameter_count_closed_form(self):
        spec = LprmNetSpec()
        net = LprmNet(spec, seed=0)
        cc, k = spec.conv_channels, spec.kernel_size
        sc = spec.stacked_channels
        qk = spec.attention_qk
        conv = (cc * 25 * k * k + cc) + (cc * cc * k * k + cc) \
             + (cc * 24 * k * k + cc) + (cc * cc * k * k + cc) + 4 * 2 * cc
        att = 2 * (qk * sc + qk * sc + sc * sc)
        trunk = (spec.flat_size * 512 + 512) + 2 * 512 + (512 * 128 + 128) + 2 * 128
        scal = (3 * 32 + 32) + 2 * 32 + (32 * 32 + 32) + 2 * 32
        reg = (160 * 64 + 64) + 2 * 64 + (64 * 1 + 1)
        assert net.parameter_count() == conv + att + trunk + scal + reg

    def test_scalar_output_for_any_valid_state(self, geom, frames):
        spec = LprmNetSpec(conv_channels=4, trunk_hidden=16, trunk_out=8,
                           scalar_hidden=8, scalar_out=8, regression_hidden=8)
        net = LprmNet(spec, seed=1)
        value = batched_predict(net, corestate_batch(frames.take([0])))
        assert value.shape == (1, 1)
        assert np.isfinite(value[0, 0])

    def test_batch_output_shape(self):
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=2)
        inputs = lprmnet_inputs(np.random.default_rng(0), spec, n=5)
        assert net.forward_batch(inputs).shape == (5, 1)

    def test_zero_value_projection_duplicates_stacked_map(self):
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=3)
        for name in ("att.h.wv", "att.w.wv"):
            net.params[name].data[:] = 0.0
        inputs = lprmnet_inputs(np.random.default_rng(1), spec)
        captured = {}
        net.forward_batch(inputs, intermediates=captured)
        np.testing.assert_array_equal(captured["attended"].data, captured["stacked"].data)

    def test_every_parameter_gets_gradient(self):
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=4)
        rng = np.random.default_rng(2)
        inputs = lprmnet_inputs(rng, spec, n=4)
        y = rng.random((4, 1)).astype(np.float32)
        net.zero_grads()
        loss = ad.mse_loss(net.forward_batch(inputs, mode="train"), Tensor(y))
        loss.backward()
        assert_live_gradients(net)

    def test_gradient_wrt_single_power_node(self):
        # End-to-end: output derivative against one nodal-power entry.
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=5)
        rng = np.random.default_rng(3)
        inputs = lprmnet_inputs(rng, spec, n=1)
        np_tensor = Tensor(inputs["np"], requires_grad=True)

        def f(t):
            out = net.forward_batch({"np": t, "rv": inputs["rv"],
                                     "scalars": inputs["scalars"]}, mode="eval")
            return ad.reshape(out, ())

        err = grad_check(f, np_tensor, step=3e-3, floor=1e-3, sample=8,
                         rng=np.random.default_rng(0))
        assert err < 1e-2

    def test_rejects_wrong_grid(self):
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=6)
        bad = lprmnet_inputs(np.random.default_rng(4), spec)
        bad["np"] = bad["np"][:, :, :4, :4]
        with pytest.raises(DataError):
            net.forward_batch(bad)

    def test_eval_deterministic(self):
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=7)
        inputs = lprmnet_inputs(np.random.default_rng(5), spec)
        a = net.forward_batch(inputs).data
        b = net.forward_batch(inputs).data
        np.testing.assert_array_equal(a, b)


def mirror_set_arrays(frames, geom, input_set):
    """The training arrays of a small mirror-set model fed ``input_set``."""
    model = SurrogateNet(SurrogateSpec(76, 76, (8,) * 6), seed=0)
    inputs, y = SetSurrogatePredictor(model, input_set).training_arrays(frames, geom)
    return inputs["x"], y


def axis_predictor(target):
    return AxisDetectorPredictor(SurrogateNet(axis_surrogate_spec(hidden=8), seed=0), target)


class TestDatasetAssembly:
    """Each model's training arrays come from the predictor that serves it."""

    def test_surrogate_arrays_shapes_and_alignment(self, geom, frames):
        x, y = mirror_set_arrays(frames, geom, "A")
        assert x.shape == (len(frames), 76)
        assert y.shape == (len(frames), 76)
        a_set = geom.detectors_in_set("A")
        idx0 = geom.detector_index(a_set[0])
        np.testing.assert_array_equal(x[:, 0], frames.readings[:, idx0])

    def test_surrogate_arrays_reversed(self, geom, frames):
        x_ab, y_ab = mirror_set_arrays(frames, geom, "A")
        x_ba, y_ba = mirror_set_arrays(frames, geom, "B")
        np.testing.assert_array_equal(x_ab, y_ba)
        np.testing.assert_array_equal(y_ab, x_ba)

    def test_axis_detector_arrays(self, geom, frames):
        target = geom.detectors_in_set("C")[0]
        inputs, y = axis_predictor(target).training_arrays(frames, geom)
        x = inputs["x"]
        assert x.shape == (len(frames), 171)
        assert y.shape == (len(frames), 1)
        idx = geom.detector_index(target)
        np.testing.assert_array_equal(y[:, 0], frames.readings[:, idx])
        np.testing.assert_array_equal(x, np.delete(frames.readings, idx, axis=1))

    def test_axis_detector_rejects_paired_target(self, geom, frames):
        with pytest.raises(DataError, match="symmetry axis"):
            axis_predictor(DetectorId(1, "A")).training_arrays(frames, geom)

    def test_corestate_batch_layout(self, frames):
        batch = corestate_batch(frames.take(slice(0, 3)))
        assert batch["np"].shape == (3, 25, 30, 30)
        assert batch["rv"].shape == (3, 24, 30, 30)
        assert batch["scalars"].shape == (3, 3)
        np.testing.assert_array_equal(batch["np"][1, 4], frames.column("np")[1, :, :, 4])
        np.testing.assert_array_equal(batch["rv"][2, 7], frames.column("rv")[2, :, :, 7])
        np.testing.assert_array_equal(batch["scalars"], frames.column("scalars")[:3])
        assert all(a.flags.c_contiguous for a in batch.values())

    @pytest.mark.parametrize("rows", [None, slice(2, 9), [7, 0, 7, 3], "mask", "nested"])
    def test_corestate_batch_is_one_copy_of_the_transposed_columns(self, frames, rows):
        if rows is None:
            table = frames
        elif rows == "mask":
            table = frames.take(np.arange(len(frames)) % 3 != 1)
        elif rows == "nested":
            table = frames.take(slice(1, None)).take([4, 0, 2])
        else:
            table = frames.take(rows)
        table.column("np")  # the archive's columns are read before measuring
        tracemalloc.start()
        try:
            batch = corestate_batch(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in ("np", "rv"):
            old = np.ascontiguousarray(table.column(name).transpose(0, 3, 1, 2))
            assert batch[name].flags.c_contiguous
            assert batch[name].dtype == old.dtype and batch[name].shape == old.shape
            assert batch[name].tobytes() == old.tobytes()
        out_bytes = batch["np"].nbytes + batch["rv"].nbytes + batch["scalars"].nbytes
        assert peak < out_bytes + (64 << 10)

    def test_lprmnet_arrays(self, geom, frames):
        target = DetectorId(2, "B")
        model = LprmNet(LprmNetSpec(conv_channels=2, trunk_hidden=8, trunk_out=4,
                                    scalar_hidden=4, scalar_out=4, regression_hidden=4), seed=0)
        inputs, y = LprmNetPredictor(model, target).training_arrays(frames, geom)
        for key, value in corestate_batch(frames).items():
            np.testing.assert_array_equal(inputs[key], value)
        assert y.shape == (len(frames), 1)
        idx = geom.detector_index(target)
        np.testing.assert_array_equal(y[:, 0], frames.readings[:, idx])


class TestCheckpoints:
    def test_surrogate_round_trip_bit_exact(self, tmp_path):
        net = SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=11)
        rng = np.random.default_rng(6)
        for p in net.params.values():
            p.data = rng.random(p.shape).astype(np.float32)
        for s in net.stats.values():
            s.mean = rng.random(s.mean.shape).astype(np.float32)
            s.var = rng.random(s.var.shape).astype(np.float32) + 0.5
        save_checkpoint(net, tmp_path / "ckpt", training_meta={"epochs": 3})

        again = load_checkpoint(tmp_path / "ckpt")
        assert isinstance(again, SurrogateNet)
        assert again.spec == net.spec
        assert again.training_meta == {"epochs": 3}
        for key in net.params:
            np.testing.assert_array_equal(again.params[key].data, net.params[key].data)
        for key in net.stats:
            np.testing.assert_array_equal(again.stats[key].mean, net.stats[key].mean)
            np.testing.assert_array_equal(again.stats[key].var, net.stats[key].var)

        x = rng.random((3, 10)).astype(np.float32)
        np.testing.assert_array_equal(batched_predict(again, {"x": x}),
                                      batched_predict(net, {"x": x}))

        save_checkpoint(again, tmp_path / "ckpt2")
        assert (tmp_path / "ckpt" / "params.bin").read_bytes() == \
               (tmp_path / "ckpt2" / "params.bin").read_bytes()

    def test_lprmnet_round_trip(self, tmp_path):
        spec = small_lprmnet_spec()
        net = LprmNet(spec, seed=12)
        save_checkpoint(net, tmp_path / "l")
        again = load_checkpoint(tmp_path / "l")
        assert isinstance(again, LprmNet)
        assert again.spec == spec
        inputs = lprmnet_inputs(np.random.default_rng(7), spec)
        np.testing.assert_array_equal(again.forward_batch(inputs).data,
                                      net.forward_batch(inputs).data)

    @pytest.mark.parametrize("make", [
        lambda: SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=15),
        lambda: LprmNet(small_lprmnet_spec(), seed=16),
    ])
    def test_loaded_entries_own_their_memory(self, tmp_path, make):
        save_checkpoint(make(), tmp_path / "c")
        again = load_checkpoint(tmp_path / "c")
        entries = [p.data for p in again.params.values()]
        entries += [a for s in again.stats.values() for a in (s.mean, s.var)]
        for arr in entries:
            assert arr.dtype == np.float32
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                assert not np.shares_memory(a, b)
        save_checkpoint(again, tmp_path / "c2")
        for name in ("params.bin", "manifest.json"):
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()

    # SHA-256 of params.bin for a fresh model: a reordered or re-derived
    # initial draw changes it
    @pytest.mark.parametrize("make, digest", [
        (lambda: SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=11),
         "1f31c76d391a58ad62c337ed048f0ffc957414dace2b4bf6ed9e2073c1674fed"),
        (lambda: LprmNet(small_lprmnet_spec(), seed=12),
         "925211fca40fec9d14927c7753591e418cd27727bc0c9ae9c5264bb5dbbb177a"),
    ], ids=["surrogate", "lprmnet"])
    def test_seeded_initial_state_is_pinned(self, tmp_path, make, digest):
        save_checkpoint(make(), tmp_path / "c")
        assert hashlib.sha256((tmp_path / "c" / "params.bin").read_bytes()).hexdigest() == digest

    def test_state_follows_the_layout(self):
        for net in (SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=1),
                    SurrogateNet(SurrogateSpec(4, 2, (3,) * 6, use_batch_norm=False), seed=1),
                    LprmNet(small_lprmnet_spec(), seed=2)):
            layout = type(net).layout(net.spec)
            assert list(net.state()) == [e.key for e in layout]
            assert all(arr.shape == e.shape for arr, e in zip(net.state().values(), layout))

    def test_loading_draws_nothing(self, tmp_path, monkeypatch):
        nets = {"s": SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=17),
                "l": LprmNet(small_lprmnet_spec(), seed=18)}
        for name, net in nets.items():
            save_checkpoint(net, tmp_path / name)

        def refuse(*args, **kwargs):
            pytest.fail("load_checkpoint drew a random initialisation")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        for name, net in nets.items():
            again = load_checkpoint(tmp_path / name)
            for key, arr in net.state().items():
                np.testing.assert_array_equal(again.state()[key], arr)

    @pytest.mark.parametrize("kind", ["surrogate", "lprmnet"])
    def test_stored_checkpoint_loads_bit_identically(self, tmp_path, kind):
        """A checkpoint kept in the repository, written by an earlier version
        of ``save_checkpoint``, loads to exactly the state it was written
        from, and saving that model again gives the same two files."""
        stored = CHECKPOINTS / kind
        want = checkpoint_fixture_model(kind)
        again = load_checkpoint(stored)
        assert again.spec == want.spec and again.seed == want.seed
        assert list(again.state()) == list(want.state())
        for key, arr in want.state().items():
            assert again.state()[key].tobytes() == arr.tobytes(), key
        save_checkpoint(again, tmp_path / "c", training_meta=again.training_meta)
        for name in ("manifest.json", "params.bin"):
            assert (tmp_path / "c" / name).read_bytes() == (stored / name).read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, tmp_path, bad):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=13)
        net.stats["bn2"].var[1] = bad
        save_checkpoint(net, tmp_path / "c")
        with pytest.raises(DataError, match="bn2.running_var"):
            load_checkpoint(tmp_path / "c")

    def test_truncated_blob_rejected(self, tmp_path):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=13)
        save_checkpoint(net, tmp_path / "c")
        blob = tmp_path / "c" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-16])
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "c")

    def test_blob_shrunk_after_its_size_check_rejected(self, tmp_path, monkeypatch):
        # the blob is cut between its size check and the read: the entries
        # it no longer holds are not left unfilled
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=13)
        save_checkpoint(net, tmp_path / "c")
        blob = tmp_path / "c" / "params.bin"

        def check_then_cut(path, values):
            coredata.check_blob_size(path, values)
            blob.write_bytes(blob.read_bytes()[:-4])
        monkeypatch.setattr(models, "check_blob_size", check_then_cut)
        with pytest.raises(DataError, match="ends inside entry bn6.running_var"):
            load_checkpoint(tmp_path / "c")

    @pytest.mark.parametrize("extra", [b"\x00" * 4, b"\x00" * 2])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=13)
        save_checkpoint(net, tmp_path / "c")
        with open(tmp_path / "c" / "params.bin", "ab") as fh:
            fh.write(extra)
        with pytest.raises(DataError, match="bytes"):
            load_checkpoint(tmp_path / "c")

    def test_snapshot_into_overwrites_buffers(self):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=14)
        snap = net.snapshot()
        buf = snap["fc1.weight"]
        net.params["fc1.weight"].data += 1.0
        net.stats["bn1"].mean += 2.0
        assert net.snapshot(into=snap) is snap
        assert snap["fc1.weight"] is buf
        np.testing.assert_array_equal(buf, net.params["fc1.weight"].data)
        np.testing.assert_array_equal(snap["bn1.running_mean"], np.full(3, 2.0))

    def test_zero_grads_clears_to_none(self):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=14)
        for p in net.params.values():
            p.grad = np.ones_like(p.data)
        net.zero_grads()
        assert all(p.grad is None for p in net.params.values())

    def test_snapshot_restore(self):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=14)
        snap = net.snapshot()
        before = net.params["fc1.weight"].data.copy()
        net.params["fc1.weight"].data += 1.0
        net.stats["bn1"].mean += 2.0
        net.restore(snap)
        np.testing.assert_array_equal(net.params["fc1.weight"].data, before)
        np.testing.assert_array_equal(net.stats["bn1"].mean, np.zeros(3))
