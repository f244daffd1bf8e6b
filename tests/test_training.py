import csv
import hashlib

import numpy as np
import pytest

from virtlprm import autodiff as ad
from virtlprm.autodiff import Tensor
from virtlprm.evaluation import SetSurrogatePredictor
from virtlprm.models import LprmNet, LprmNetSpec, SurrogateNet, SurrogateSpec, _NetworkBase
from virtlprm.synthplant import PlantScenario, generate_cycle
from virtlprm.training import (
    ADAMW_BLOCK,
    AdamWState,
    DataSplit,
    DivergenceError,
    TrainConfig,
    adamw_step,
    batched_predict,
    history_to_csv,
    one_cycle_lr,
    train,
)


class LinearModel(_NetworkBase):
    """One-weight linear map, for convex-convergence checks."""

    def __init__(self, w0=0.0):
        self.params = {"w": Tensor(np.array([[w0]], dtype=np.float32), requires_grad=True)}
        self.stats = {}

    def forward_batch(self, inputs, mode="eval"):
        x = inputs["x"]
        return ad.matmul(x if isinstance(x, Tensor) else Tensor(x), self.params["w"])


def scalar_params(value):
    return {"theta": Tensor(np.array([value], dtype=np.float64), requires_grad=True)}


def base_cfg(**kw):
    defaults = dict(max_lr=0.1, epochs=1, batch_size=8, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def reference_adamw_step(params, grads, state):
    """The update as whole-array passes over a full-size scratch: the
    arithmetic the blocked ``adamw_step`` must reproduce bit for bit."""
    state.t += 1
    bias1 = 1.0 - state.beta1 ** state.t
    bias2 = 1.0 - state.beta2 ** state.t
    for key, g in grads.items():
        p, m, v = params[key], state.m[key], state.v[key]
        s = np.empty_like(p.data)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=s)
        m += s
        v *= state.beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - state.beta2
        v += s
        np.sqrt(v, out=s)
        s *= 1.0 / np.sqrt(bias2)
        s += state.eps
        np.divide(m, s, out=s)
        s *= state.lr / bias1
        if state.weight_decay:
            p.data *= 1.0 - state.lr * state.weight_decay
        p.data -= s


def multi_block_params(rng):
    """A float64 scalar, then a float32 matrix spanning 2.5 blocks."""
    return {
        "scale": Tensor(np.array(0.7), requires_grad=True),
        "weight": Tensor(rng.standard_normal((5, ADAMW_BLOCK // 2 + 7)).astype(np.float32),
                         requires_grad=True),
    }


def random_grads(rng, params):
    return {k: (rng.standard_normal(p.shape) * 10.0 ** rng.uniform(-4, 1)).astype(p.dtype)
            for k, p in params.items()}


class TestAdamW:
    def test_blocked_update_matches_whole_array_update_bitwise(self):
        rng = np.random.default_rng(31)
        params = multi_block_params(rng)
        ref = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
        assert params["weight"].size > 2 * ADAMW_BLOCK
        cfg = base_cfg()
        state, ref_state = AdamWState(params, cfg), AdamWState(ref, cfg)
        for lr in (1e-3, 0.05, 0.3, 7e-6, 0.02):
            grads = random_grads(rng, params)
            state.lr = ref_state.lr = lr
            adamw_step(params, grads, state)
            reference_adamw_step(ref, grads, ref_state)
            for key in params:
                assert params[key].data.dtype == ref[key].data.dtype
                for ours, theirs in ((params[key].data, ref[key].data),
                                     (state.m[key], ref_state.m[key]),
                                     (state.v[key], ref_state.v[key])):
                    assert ours.tobytes() == theirs.tobytes(), f"{key} differs at lr {lr}"
        assert state.t == ref_state.t == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_in_last_block_changes_nothing(self, bad):
        rng = np.random.default_rng(32)
        params = multi_block_params(rng)
        state = AdamWState(params, base_cfg())
        for _ in range(2):
            adamw_step(params, random_grads(rng, params), state)
        before = ({k: p.data.copy() for k, p in params.items()},
                  {k: m.copy() for k, m in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()})
        grads = random_grads(rng, params)
        grads["weight"].reshape(-1)[-1] = bad
        with pytest.raises(DivergenceError, match="non-finite gradient for parameter 'weight'"):
            adamw_step(params, grads, state)
        assert state.t == 2
        after = ({k: p.data for k, p in params.items()}, state.m, state.v)
        for old, new in zip(before, after):
            for key in params:
                assert old[key].tobytes() == new[key].tobytes(), key

    def test_missing_gradient_named(self):
        params = scalar_params(1.0)
        state = AdamWState(params, base_cfg())
        with pytest.raises(ValueError, match="no gradient for parameter 'theta'"):
            adamw_step(params, {"theta": None}, state)
        assert state.t == 0
        np.testing.assert_array_equal(params["theta"].data, [1.0])

    def test_non_contiguous_parameter_rejected(self):
        # A flat view of a transposed array would be a copy, so the update
        # would be lost instead of applied.
        params = {"w": Tensor(np.ones((3, 4)), requires_grad=True)}
        state = AdamWState(params, base_cfg())
        params["w"].data = np.ones((4, 3)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            adamw_step(params, {"w": np.ones((3, 4))}, state)

    def test_zero_gradient_no_decay_leaves_parameters(self):
        params = scalar_params(1.5)
        state = AdamWState(params, base_cfg(weight_decay=0.0))
        state.lr = 0.1
        adamw_step(params, {"theta": np.zeros(1)}, state)
        np.testing.assert_array_equal(params["theta"].data, [1.5])

    def test_single_step_hand_oracle(self):
        # theta=1, g=1, lr=0.1, default betas, wd=0.01:
        # bias-corrected moments are exactly 1, so
        # theta <- 1 - 0.1 * 1/(1 + 1e-8) - 0.1 * 0.01 * 1 = 0.899.
        params = scalar_params(1.0)
        state = AdamWState(params, base_cfg())
        state.lr = 0.1
        adamw_step(params, {"theta": np.ones(1)}, state)
        assert abs(float(params["theta"].data[0]) - 0.899) < 1e-6
        assert state.t == 1

    def test_decay_alone_shrinks_geometrically(self):
        params = scalar_params(2.0)
        cfg = base_cfg(weight_decay=0.05)
        state = AdamWState(params, cfg)
        state.lr = 0.1
        for _ in range(10):
            adamw_step(params, {"theta": np.zeros(1)}, state)
        expected = 2.0 * (1.0 - 0.1 * 0.05) ** 10
        assert float(params["theta"].data[0]) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_loss_contracts(self):
        # One step on 0.5*(theta - target)^2 with a small lr moves theta
        # toward the target.
        target = 3.0
        params = scalar_params(1.0)
        state = AdamWState(params, base_cfg(weight_decay=0.0))
        state.lr = 1e-3
        grad = np.array([float(params["theta"].data[0]) - target])
        before = abs(float(params["theta"].data[0]) - target)
        adamw_step(params, {"theta": grad}, state)
        after = abs(float(params["theta"].data[0]) - target)
        assert after < before

    def test_non_finite_gradient_aborts_with_diagnostics(self):
        params = scalar_params(1.0)
        state = AdamWState(params, base_cfg())
        with pytest.raises(DivergenceError, match="theta"):
            adamw_step(params, {"theta": np.array([np.nan])}, state)

    def test_moment_buffers_match_parameter_shapes(self):
        net = SurrogateNet(SurrogateSpec(4, 2, (3,) * 6), seed=0)
        state = AdamWState(net.params, base_cfg())
        for key, p in net.params.items():
            assert state.m[key].shape == p.shape
            assert state.v[key].shape == p.shape


class TestOneCycle:
    def test_start_is_max_over_div_start(self):
        cfg = base_cfg(max_lr=0.005)
        assert one_cycle_lr(0, 1000, cfg) == pytest.approx(0.005 / 25.0)

    def test_peak_attained_exactly_at_end_of_warmup(self):
        cfg = base_cfg(max_lr=0.005)
        total = 1000
        warmup = round(0.3 * (total - 1))
        assert one_cycle_lr(warmup, total, cfg) == 0.005

    def test_peak_attained_exactly_once_and_never_exceeded(self):
        cfg = base_cfg(max_lr=0.08)
        total = 1000
        lrs = np.array([one_cycle_lr(s, total, cfg) for s in range(total)])
        assert lrs.max() == 0.08
        assert int((lrs == 0.08).sum()) == 1

    def test_monotone_ramp_then_anneal(self):
        cfg = base_cfg(max_lr=0.01)
        total = 1000
        warmup = round(0.3 * (total - 1))
        lrs = [one_cycle_lr(s, total, cfg) for s in range(total)]
        assert all(b >= a for a, b in zip(lrs[:warmup], lrs[1:warmup + 1]))
        assert all(b <= a for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))

    def test_final_lr_is_max_over_div_final(self):
        cfg = base_cfg(max_lr=0.01)
        assert one_cycle_lr(999, 1000, cfg) == pytest.approx(0.01 / 1e4)

    def test_out_of_range_step(self):
        cfg = base_cfg()
        with pytest.raises(ValueError):
            one_cycle_lr(10, 10, cfg)
        with pytest.raises(ValueError):
            one_cycle_lr(-1, 10, cfg)

    def test_single_step_schedule(self):
        assert one_cycle_lr(0, 1, base_cfg(max_lr=0.3)) == 0.3


class TestTrainLoop:
    def make_linear_data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(n, 1)).astype(np.float32)
        y = 2.0 * x
        return DataSplit({"x": x[: n - 40]}, y[: n - 40], {"x": x[n - 40:]}, y[n - 40:])

    def test_linear_model_converges(self):
        data = self.make_linear_data()
        model = LinearModel()
        cfg = TrainConfig(max_lr=0.2, epochs=40, batch_size=32, seed=1, weight_decay=0.0)
        result = train(model, data, cfg)
        total_steps = sum(1 for _ in result.history) * 5
        assert total_steps <= 200
        assert result.best_val_loss < 1e-6
        assert float(model.params["w"].data[0, 0]) == pytest.approx(2.0, abs=1e-3)

    def test_identical_seeds_identical_history(self):
        data = self.make_linear_data(seed=3)

        def run():
            model = LinearModel()
            cfg = TrainConfig(max_lr=0.1, epochs=5, batch_size=16, seed=7)
            return train(model, data, cfg).history

        a, b = run(), run()
        assert a == b

    def test_different_seed_changes_history(self):
        data = self.make_linear_data(seed=3)

        def run(seed):
            model = LinearModel()
            return train(model, data, TrainConfig(max_lr=0.1, epochs=3,
                                                  batch_size=16, seed=seed)).history

        assert run(1) != run(2)

    def test_returned_params_match_best_recorded_val_loss(self, trained_surrogate):
        result = trained_surrogate["result"]
        model = trained_surrogate["model"]
        recorded = min(h["val_loss"] for h in result.history)
        assert result.best_val_loss == recorded
        pred = batched_predict(model, trained_surrogate["val_inputs"])
        actual = float(np.mean((pred - trained_surrogate["val_targets"]) ** 2))
        assert actual == pytest.approx(result.best_val_loss, rel=1e-6)

    def test_surrogate_beats_mean_predictor_by_4x(self, trained_surrogate):
        pred = batched_predict(trained_surrogate["model"],
                               trained_surrogate["val_inputs"])
        rmse = float(np.sqrt(np.mean((pred - trained_surrogate["val_targets"]) ** 2)))
        mean_pred = trained_surrogate["train_targets"].mean(axis=0)
        baseline = float(np.sqrt(np.mean((mean_pred - trained_surrogate["val_targets"]) ** 2)))
        assert rmse <= 0.25 * baseline

    def test_divergence_aborts_with_batch_index(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((64, 1)) * 1e25).astype(np.float32)
        # Squared residuals of ~2e25 overflow float32 on the first batch.
        data = DataSplit({"x": x[:48]}, -x[:48], {"x": x[48:]}, -x[48:])
        model = LinearModel(w0=1.0)
        cfg = TrainConfig(max_lr=1e6, epochs=3, batch_size=16, seed=0, weight_decay=0.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="batch"):
            train(model, data, cfg)

    def test_bypass_augmentation_changes_training(self, session_geom):
        geom = session_geom
        frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=40, seed=55), geom)

        def run(p):
            model = SurrogateNet(SurrogateSpec(76, 76, (8,) * 6), seed=1)
            predictor = SetSurrogatePredictor(model, "A")
            data = DataSplit(*predictor.training_arrays(frames.take(slice(0, 30)), geom),
                             *predictor.training_arrays(frames.take(slice(30, None)), geom))
            cfg = TrainConfig(max_lr=0.005, epochs=2, batch_size=16, seed=3, bypass_p=p)
            return train(model, data, cfg).history

        assert run(0.0) != run(0.5)

    def test_single_leftover_sample_folded_into_last_batch(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((33, 4)).astype(np.float32)
        y = x[:, :2]
        data = DataSplit({"x": x}, y, {"x": x[:4]}, y[:4])
        model = SurrogateNet(SurrogateSpec(4, 2, (4,) * 6), seed=2)
        cfg = TrainConfig(max_lr=0.01, epochs=1, batch_size=32, seed=0)
        result = train(model, data, cfg)  # would raise DegenerateBatchError unfolded
        assert len(result.history) == 1


class TestTrainingPins:
    """SHA-256 of a model's whole state and loss history after a few
    ``train`` steps: a change to the arithmetic of any op, its backward
    rule, AdamW or the schedule changes it, and a change to when the graph
    is freed must not."""

    @staticmethod
    def digest(model, result):
        h = hashlib.sha256()
        for arr in model.state().values():
            h.update(arr.tobytes())
        h.update(repr(result.history).encode())
        return h.hexdigest()

    def test_surrogate_state_is_pinned(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 10)).astype(np.float32)
        y = rng.standard_normal((40, 4)).astype(np.float32)
        data = DataSplit({"x": x[:32]}, y[:32], {"x": x[32:]}, y[32:])
        model = SurrogateNet(SurrogateSpec(10, 4, (8,) * 6), seed=5)
        result = train(model, data, TrainConfig(max_lr=0.01, epochs=2, batch_size=12,
                                                seed=3, bypass_p=0.2))
        assert self.digest(model, result) == \
            "d8290c7add4ec50c704e224fbb165da8aa603080d040d2e7fb3954c5c4c48983"

    def test_lprmnet_state_is_pinned(self):
        spec = LprmNetSpec(grid=(6, 6), power_channels=5, rod_channels=4, scalar_count=3,
                           conv_channels=4, trunk_hidden=24, trunk_out=12,
                           scalar_hidden=8, scalar_out=8, regression_hidden=8)
        rng = np.random.default_rng(13)
        inputs = {"np": rng.random((24, 5, 6, 6), dtype=np.float32),
                  "rv": rng.random((24, 4, 6, 6), dtype=np.float32),
                  "scalars": rng.random((24, 3), dtype=np.float32)}
        y = rng.random((24, 1), dtype=np.float32)
        data = DataSplit({k: v[:18] for k, v in inputs.items()}, y[:18],
                         {k: v[18:] for k, v in inputs.items()}, y[18:])
        model = LprmNet(spec, seed=6)
        result = train(model, data, TrainConfig(max_lr=0.02, epochs=2, batch_size=8, seed=4))
        assert self.digest(model, result) == \
            "92ff960fc6a364e0d5f35827d4a94620c41b7479e570db9dd9a59f493e93b100"


class TestHistoryCsv:
    def test_round_trip_and_determinism(self, tmp_path):
        history = [
            {"epoch": 0, "train_loss": 0.5, "val_loss": 0.25, "lr": 0.001},
            {"epoch": 1, "train_loss": 0.125, "val_loss": 1.0 / 3.0, "lr": 0.0025},
        ]
        history_to_csv(history, tmp_path / "h1.csv")
        history_to_csv(history, tmp_path / "h2.csv")
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        with open(tmp_path / "h1.csv", encoding="utf-8", newline="") as fh:
            back = [{"epoch": int(r["epoch"]), "train_loss": float(r["train_loss"]),
                     "val_loss": float(r["val_loss"]), "lr": float(r["lr"])}
                    for r in csv.DictReader(fh)]
        assert back == history

    def test_header_layout(self, tmp_path):
        history_to_csv([], tmp_path / "h.csv")
        assert (tmp_path / "h.csv").read_text().splitlines()[0] == \
            "epoch,train_loss,val_loss,lr"


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_lr=0.1, bypass_p=1.5)
        with pytest.raises(ValueError):
            TrainConfig(max_lr=0.1, batch_size=1)
        for bad in ({"epochs": 2.5}, {"batch_size": 8.0}, {"epochs": True}):
            with pytest.raises(ValueError, match="must be an integer"):
                TrainConfig(max_lr=0.1, **bad)
        assert TrainConfig(max_lr=0.1, epochs=np.int64(3)).epochs == 3

    REAL_CASES = [
        ("max_lr", float("nan"), "max_lr must be a finite number"),
        ("max_lr", float("inf"), "max_lr must be a finite number"),
        ("max_lr", True, "max_lr must be a finite number"),
        ("max_lr", "0.1", "max_lr must be a finite number"),
        ("weight_decay", "0.01", "weight_decay must be a finite number"),
        ("weight_decay", -5, "weight_decay non-negative, got 0.1 and -5"),
        ("max_lr", 0, "max_lr must be positive"),
        ("weight_decay", float("nan"), "weight_decay must be a finite number"),
        ("warmup_frac", "0.3", "warmup_frac must be a finite number"),
        ("warmup_frac", -0.1, r"warmup_frac must lie in \[0, 1\]"),
        ("warmup_frac", 1.5, r"warmup_frac must lie in \[0, 1\]"),
        ("bypass_p", True, "bypass_p must be a finite number"),
    ]

    @pytest.mark.parametrize("key, value, message", REAL_CASES,
                             ids=[f"{key}={value!r}" for key, value, _ in REAL_CASES])
    def test_real_setting_checked_not_coerced(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{"max_lr": 0.1, key: value})

    def test_int_for_real_setting_is_valid(self):
        cfg = TrainConfig(max_lr=1, weight_decay=0, warmup_frac=1, bypass_p=0)
        assert (cfg.max_lr, cfg.weight_decay, cfg.warmup_frac, cfg.bypass_p) == (1, 0, 1, 0)
