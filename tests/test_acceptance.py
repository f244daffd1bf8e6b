"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The end-to-end
convergence criterion trains real models on the full synthetic dataset
and dominates the runtime; everything else completes in seconds.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from virtlprm import autodiff as ad
from virtlprm.attention import (
    AxialAttentionParams,
    affinity,
    aggregate,
    axial_attention,
)
from virtlprm.autodiff import RunningStats, Tensor, grad_check
from virtlprm.coredata import (
    DetectorId,
    bypass_augment,
    default_geometry,
    derive_rod_variable,
    filter_transients,
    split_holdout_cycle,
    split_surrogate,
)
from virtlprm.evaluation import (
    LprmNetPredictor,
    OraclePredictor,
    SetSurrogatePredictor,
    VirtualSensor,
    drift_report,
)
from virtlprm.models import (
    LprmNet,
    LprmNetSpec,
    SurrogateNet,
    SurrogateSpec,
    center_output_bias,
)
from virtlprm.synthplant import PlantScenario, generate_cycle, generate_plant
from virtlprm.training import (
    AdamWState,
    DataSplit,
    TrainConfig,
    adamw_step,
    batched_predict,
    one_cycle_lr,
    train,
)

from test_attention import brute_force_affinity, brute_force_aggregate


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def geom():
    return default_geometry()


# -- criterion 8 dataset and models, shared with criterion 9 ----------------

C8_SEED = 2030
# Eight representative detectors: evenly spaced strings, cycling through
# the four axial levels, covering all three symmetry sets.
C8_DETECTORS = ("1A", "7B", "13C", "19D", "25A", "31B", "37C", "43D")
C8_LPRMNET_SPEC = dict(conv_channels=4, trunk_hidden=64, trunk_out=32,
                       scalar_hidden=16, scalar_out=16, regression_hidden=32)
C8_LPRMNET_CFG = dict(max_lr=0.02, epochs=24, batch_size=32, seed=5,
                      warmup_frac=0.15)


@pytest.fixture(scope="module")
def c8_frames(geom):
    scenarios = [PlantScenario(cycle_id=c, frame_count=700, seed=C8_SEED,
                               noise_sigma=0.01) for c in (1, 2, 3)]
    return filter_transients(generate_plant(scenarios, geom))


def _flatten_states(frames):
    n = len(frames)
    return np.concatenate([frames.column(name).reshape(n, -1)
                           for name in ("np", "rv", "scalars")], axis=1)


def _linear_baselines(train_f, val_f, test_f, target_indices):
    """Linear regression on flattened core states, solved in dual form.

    Returns the per-detector test RMSE of (a) ordinary least squares (the
    minimum-norm interpolator, since features far outnumber samples) - the
    criterion's baseline - and (b) a ridge variant with its strength picked
    on the validation split, reported as a stronger reference point.
    """
    x_tr, x_va, x_te = (_flatten_states(fs) for fs in (train_f, val_f, test_f))
    y_tr = train_f.readings[:, target_indices]
    y_va = val_f.readings[:, target_indices]
    y_te = test_f.readings[:, target_indices]
    xm, ym = x_tr.mean(axis=0), y_tr.mean(axis=0)
    xc = x_tr - xm
    gram = (xc @ xc.T).astype(np.float64)
    eye = np.eye(gram.shape[0])
    kv = ((x_va - xm) @ xc.T).astype(np.float64)
    kt = ((x_te - xm) @ xc.T).astype(np.float64)

    def solve(lam):
        alpha = np.linalg.solve(gram + lam * eye, (y_tr - ym).astype(np.float64))
        return alpha

    # Numerically-stabilized least squares: regularization negligible next
    # to the gram's scale.
    tiny = 1e-10 * float(np.trace(gram)) / gram.shape[0]
    ols_pred = kt @ solve(tiny) + ym
    ols_rmse = np.sqrt(np.mean((ols_pred - y_te) ** 2, axis=0))

    best = None
    for lam in (1e-2, 1e-1, 1.0, 10.0, 100.0):
        alpha = solve(lam)
        val_rmse = float(np.sqrt(np.mean((kv @ alpha + ym - y_va) ** 2)))
        if best is None or val_rmse < best[0]:
            best = (val_rmse, lam, np.sqrt(np.mean((kt @ alpha + ym - y_te) ** 2, axis=0)))
    return ols_rmse, best[2], best[1]


def _train_lprmnet_for(code: str):
    """Worker: regenerate the criterion-8 dataset deterministically and
    train one per-detector model; returns per-frame test predictions."""
    geom = default_geometry()
    scenarios = [PlantScenario(cycle_id=c, frame_count=700, seed=C8_SEED,
                               noise_sigma=0.01) for c in (1, 2, 3)]
    kept = filter_transients(generate_plant(scenarios, geom))
    train_f, val_f, test_f = split_holdout_cycle(kept, holdout_cycle=2, seed=17)
    model = LprmNet(LprmNetSpec(**C8_LPRMNET_SPEC), seed=11)
    predictor = LprmNetPredictor(model, DetectorId.parse(code))
    in_tr, y_tr = predictor.training_arrays(train_f, geom)
    in_va, y_va = predictor.training_arrays(val_f, geom)
    in_te, y_te = predictor.training_arrays(test_f, geom)
    center_output_bias(model, y_tr)
    train(model, DataSplit(in_tr, y_tr, in_va, y_va), TrainConfig(**C8_LPRMNET_CFG))
    pred = batched_predict(model, in_te)
    return code, pred[:, 0], y_te[:, 0]


def _model_gradient_error(make, inputs, target, dtype, tol, sample, rng):
    """Worst gradient error of ``make(dtype)``'s train-mode MSE loss.

    The engine's gradient is taken in ``dtype``. Each sampled coordinate is
    compared with float64 central differences (step 1e-6) on a float64 copy
    of the network that holds the same ``dtype``-rounded parameters and
    inputs, relative to max(|engine|, |reference|, the largest |engine
    gradient| in that parameter tensor): a coordinate far below its tensor's
    scale holds little but the rounding of the engine and of the
    differences. Every bias but the readout's feeds a train-mode batch norm,
    which subtracts the batch mean, so its exact gradient is zero; those are
    checked as zero to rounding against the model's largest gradient.
    Asserts each tensor's error is within ``tol`` and returns the worst.
    """
    net, ref = make(dtype), make(np.float64)
    for key, p in ref.params.items():
        p.data = net.params[key].data.astype(np.float64)
    inputs = {k: v.astype(dtype) for k, v in inputs.items()}
    target = target.astype(dtype)
    net.zero_grads()
    ad.mse_loss(net.forward_batch(inputs, "train"), Tensor(target)).backward()
    grads = {k: p.grad.astype(np.float64).reshape(-1) for k, p in net.params.items()}
    largest = max(float(np.abs(g).max()) for g in grads.values())

    ref_inputs = {k: v.astype(np.float64) for k, v in inputs.items()}
    ref_target = Tensor(target.astype(np.float64))

    def loss():
        return float(ad.mse_loss(ref.forward_batch(ref_inputs, "train"), ref_target).data)

    step = 1e-6
    worst = 0.0
    for key, g in grads.items():
        scale = float(np.abs(g).max())
        if key.endswith(".bias") and key != "out.bias":
            err = scale / largest
        else:
            flat = ref.params[key].data.reshape(-1)
            err = 0.0
            for i in rng.choice(flat.size, size=min(sample, flat.size), replace=False):
                keep = flat[i]
                flat[i] = keep + step
                hi = loss()
                flat[i] = keep - step
                lo = loss()
                flat[i] = keep
                numeric = (hi - lo) / (2.0 * step)
                a = float(g[i])
                err = max(err, abs(a - numeric) / max(abs(a), abs(numeric), scale))
        assert err <= tol, (f"{type(net).__name__} {key} {np.dtype(dtype).name} "
                            f"gradient error {err:.2e}")
        worst = max(worst, err)
    return worst


class TestCriterion1GradientCorrectness:
    def test_gradients(self, geom):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst64 = 0.0
        worst32 = 0.0

        def op_cases(dtype):
            x2 = Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True)
            w2 = Tensor(rng.standard_normal((3, 5)).astype(dtype))
            img = Tensor(rng.standard_normal((2, 6, 6)).astype(dtype), requires_grad=True)
            ker = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(dtype), requires_grad=True)
            bias = Tensor(np.zeros(3, dtype=dtype), requires_grad=True)
            gam = Tensor(rng.uniform(0.5, 1.5, 3).astype(dtype), requires_grad=True)
            bet = Tensor(rng.standard_normal(3).astype(dtype), requires_grad=True)
            bn_x = Tensor(rng.standard_normal((8, 3)).astype(dtype), requires_grad=True)
            target = Tensor(rng.standard_normal((4, 5)).astype(dtype))
            fm = Tensor(rng.standard_normal((2, 4, 4)).astype(dtype), requires_grad=True)
            q = Tensor(rng.standard_normal((2, 4, 4)).astype(dtype), requires_grad=True)
            k = Tensor(rng.standard_normal((2, 4, 4)).astype(dtype))
            m = Tensor(rng.standard_normal((4, 4, 4)).astype(dtype), requires_grad=True)
            hp = AxialAttentionParams(
                Tensor(rng.standard_normal((1, 2, 1, 1)).astype(dtype) * 0.5,
                       requires_grad=True),
                Tensor(rng.standard_normal((1, 2, 1, 1)).astype(dtype) * 0.5),
                Tensor(rng.standard_normal((2, 2, 1, 1)).astype(dtype) * 0.5))
            wp = AxialAttentionParams(
                Tensor(rng.standard_normal((1, 2, 1, 1)).astype(dtype) * 0.5),
                Tensor(rng.standard_normal((1, 2, 1, 1)).astype(dtype) * 0.5),
                Tensor(rng.standard_normal((2, 2, 1, 1)).astype(dtype) * 0.5))
            # Probe weights are drawn once: grad_check needs a deterministic f.
            sm_w = Tensor(rng.standard_normal((4, 3)).astype(dtype))
            bn_w = Tensor(rng.standard_normal((8, 3)).astype(dtype))
            return [
                ("matmul", lambda t: ad.tsum(ad.mul(y := ad.matmul(t, w2), y)), x2),
                ("conv2d.x", lambda t: ad.tsum(ad.mul(
                    y := ad.conv2d(t, ker, bias, "same"), y)), img),
                ("conv2d.k", lambda t: ad.tsum(ad.mul(
                    y := ad.conv2d(img, t, bias, "valid"), y)), ker),
                ("gelu", lambda t: ad.tsum(ad.gelu(t)), x2),
                ("softmax", lambda t: ad.tsum(ad.mul(ad.softmax(t, axis=1), sm_w)), x2),
                # tsum(y * y) through a train-mode norm depends on x only through
                # eps, so x's probe weights the output by a fixed tensor instead.
                ("batch_norm", lambda t: ad.tsum(ad.mul(
                    ad.batch_norm(t, gam, bet, RunningStats(3, dtype), "train"), bn_w)),
                    bn_x),
                ("bn.gamma", lambda t: ad.tsum(ad.mul(
                    y := ad.batch_norm(bn_x, t, bet, RunningStats(3, dtype), "train"), y)),
                    gam),
                ("mse_loss", lambda t: ad.mse_loss(ad.matmul(t, w2), target), x2),
                ("affinity", lambda t: ad.tsum(ad.mul(y := affinity(t, k, "height"), y)), q),
                ("aggregate", lambda t: ad.tsum(ad.mul(
                    y := aggregate(t, fm, fm, "width"), y)), m),
                ("axial_attention", lambda t: ad.tsum(ad.mul(
                    y := axial_attention(t, hp, wp), y)), fm),
            ]

        for name, f, x in op_cases(np.float64):
            err = grad_check(f, x, step=1e-6)
            worst64 = max(worst64, err)
            assert err <= 1e-6, f"{name} float64 gradient error {err:.2e}"
        for name, f, x in op_cases(np.float32):
            err = grad_check(f, x, step=3e-3, floor=1e-3)
            worst32 = max(worst32, err)
            assert err <= 1e-3, f"{name} float32 gradient error {err:.2e}"

        def surrogate(dtype):
            return SurrogateNet(SurrogateSpec(76, 76, (32,) * 6), seed=3, dtype=dtype)

        def surrogate_data(drng):
            return ({"x": drng.standard_normal((4, 76))},
                    drng.standard_normal((4, 76)))

        def lprmnet(dtype):
            spec = LprmNetSpec(grid=(8, 8), conv_channels=4, trunk_hidden=24,
                               trunk_out=12, scalar_hidden=8, scalar_out=8,
                               regression_hidden=8)
            return LprmNet(spec, seed=4, dtype=dtype)

        def lprmnet_data(drng):
            return ({"np": drng.random((4, 25, 8, 8)), "rv": drng.random((4, 24, 8, 8)),
                     "scalars": drng.random((4, 3))},
                    drng.standard_normal((4, 1)))

        for make, data, sample in ((surrogate, surrogate_data, 6), (lprmnet, lprmnet_data, 4)):
            for dtype, tol in ((np.float64, 1e-6), (np.float32, 1e-3)):
                for seed in range(8):
                    drng = np.random.default_rng(seed)
                    inputs, target = data(drng)
                    err = _model_gradient_error(make, inputs, target, dtype, tol,
                                                sample, drng)
                    if dtype == np.float64:
                        worst64 = max(worst64, err)
                    else:
                        worst32 = max(worst32, err)

        elapsed = time.time() - t0
        report(1, "gradient correctness", elapsed < 120.0,
               f"worst float64 {worst64:.2e} (tol 1e-6), worst float32 "
               f"{worst32:.2e} (tol 1e-3), {elapsed:.0f}s")


class TestCriterion2AttentionOracle:
    def test_attention_matches_loop_reference(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(200):
            c, h, w = rng.integers(1, 9, size=3)
            axis = "height" if rng.random() < 0.5 else "width"
            span = h if axis == "height" else w
            q = rng.standard_normal((c, h, w))
            k = rng.standard_normal((c, h, w))
            m = rng.standard_normal((h, w, span))
            v = rng.standard_normal((c, h, w))
            l = rng.standard_normal((c, h, w))
            got_a = affinity(Tensor(q), Tensor(k), axis).data
            ref_a = brute_force_affinity(q, k, axis)
            got_g = aggregate(Tensor(m), Tensor(v), Tensor(l), axis).data
            ref_g = brute_force_aggregate(m, v, l, axis)
            for got, ref in ((got_a, ref_a), (got_g, ref_g)):
                scale = np.maximum(np.abs(ref), 1e-12)
                worst = max(worst, float(np.max(np.abs(got - ref) / scale)))
        report(2, "attention oracle equivalence", worst <= 1e-6,
               f"200 random shapes up to 8x8x8, max relative deviation {worst:.2e}")


class TestCriterion3AttentionIdentity:
    def test_zero_value_projection_is_identity(self):
        rng = np.random.default_rng(3)
        failures = 0
        for _ in range(100):
            c = int(rng.integers(1, 6))
            h = int(rng.integers(1, 8))
            w = int(rng.integers(1, 8))
            l = rng.standard_normal((c, h, w)).astype(np.float32)

            def zeroed():
                p = AxialAttentionParams.init(c, seed=int(rng.integers(1 << 30)))
                p.wv.data[:] = 0.0
                return p

            out = axial_attention(Tensor(l), zeroed(), zeroed())
            if not np.array_equal(out.data, l):
                failures += 1
        report(3, "attention identity at wv=0", failures == 0,
               f"{100 - failures}/100 random inputs reproduced exactly")


class TestCriterion4RodVariable:
    def test_half_insertion_and_monotonicity(self):
        rp = np.full((1, 1), 0.5, dtype=np.float32)
        nbd = np.zeros((1, 1, 24), dtype=np.float32)
        rv = derive_rod_variable(rp, nbd)[0, 0]
        half_exact = np.array_equal(rv[:12], np.ones(12)) and \
            np.array_equal(rv[12:], np.zeros(12))

        rng = np.random.default_rng(4)
        checks = 10_000
        rp = rng.random((checks, 1)).astype(np.float32)
        nbd = rng.random((checks, 1, 24)).astype(np.float32)
        rv = derive_rod_variable(rp, nbd)
        deeper = np.clip(nbd + rng.random((checks, 1, 24)).astype(np.float32) * 0.3,
                         0, 1)
        more = np.clip(rp + rng.random((checks, 1)).astype(np.float32) * 0.3, 0, 1)
        mono_nbd = bool(np.all(derive_rod_variable(rp, deeper) <= rv + 1e-7))
        mono_rp = bool(np.all(derive_rod_variable(more, nbd) >= rv - 1e-7))
        report(4, "rod variable", half_exact and mono_nbd and mono_rp,
               f"50% example exact, monotone over {checks} random inputs")


class TestCriterion5GeometryInvariants:
    def test_shipped_layout(self, geom):
        sets_ok = (len(geom.string_indices) == 43
                   and geom.detector_count == 172
                   and len(geom.detectors_in_set("A")) == 76
                   and len(geom.detectors_in_set("B")) == 76
                   and len(geom.detectors_in_set("C")) == 20)
        paired = 0
        involution_ok = True
        reflection_ok = True
        for d in geom.detectors:
            p = geom.symmetry_partner(d)
            r, c = geom.position_of(d.string_index)
            if p is None:
                reflection_ok &= (r == c)
            else:
                paired += 1
                involution_ok &= (geom.symmetry_partner(p) == d and p.level == d.level)
                reflection_ok &= (geom.position_of(p.string_index) == (c, r))
        report(5, "geometry invariants",
               sets_ok and paired == 152 and involution_ok and reflection_ok,
               "43 strings, 172 detectors, 152 paired, involution and "
               "reflection consistent")


class TestCriterion6AugmentationStatistics:
    def test_zeroing_frequency(self):
        rng = np.random.default_rng(20_24)
        draws = 100_000
        out = bypass_augment(np.ones(draws, dtype=np.float32), 0.2, rng)
        frac = float(1.0 - out.mean())
        report(6, "augmentation statistics", 0.196 <= frac <= 0.204,
               f"zeroed fraction {frac:.4f} over {draws} draws at p=0.2")


class TestCriterion7OptimizerOracle:
    def test_adamw_and_schedule(self):
        params = {"theta": Tensor(np.array([1.0], dtype=np.float64),
                                  requires_grad=True)}
        cfg = TrainConfig(max_lr=0.1)
        state = AdamWState(params, cfg)
        state.lr = 0.1
        adamw_step(params, {"theta": np.ones(1)}, state)
        theta = float(params["theta"].data[0])
        adamw_ok = abs(theta - 0.899) <= 1e-6

        schedule_ok = True
        for total in (10, 100, 1000):
            for max_lr in (0.005, 0.08):
                c = TrainConfig(max_lr=max_lr)
                lrs = np.array([one_cycle_lr(s, total, c) for s in range(total)])
                schedule_ok &= lrs.max() == max_lr
                schedule_ok &= int((lrs == max_lr).sum()) == 1
        report(7, "optimizer oracle", adamw_ok and schedule_ok,
               f"single-step value {theta:.9f} (target 0.899 +/- 1e-6); "
               "peak reached exactly once, never exceeded")


@pytest.mark.slow
class TestCriterion8EndToEndConvergence:
    def test_convergence_against_baselines(self, geom, c8_frames):
        t0 = time.time()

        # Mirror-set surrogate under the shuffled 70/20/10 protocol.
        tr_f, va_f, te_f = split_surrogate(c8_frames, seed=17)
        model = SurrogateNet(SurrogateSpec(76, 76, (128,) * 6), seed=9)
        predictor = SetSurrogatePredictor(model, "A")
        x_tr, y_tr = predictor.training_arrays(tr_f, geom)
        x_va, y_va = predictor.training_arrays(va_f, geom)
        x_te, y_te = predictor.training_arrays(te_f, geom)
        cfg = TrainConfig(max_lr=0.005, epochs=60, batch_size=64, seed=11,
                          bypass_p=0.2)
        train(model, DataSplit(x_tr, y_tr, x_va, y_va), cfg)
        pred = batched_predict(model, x_te)
        surr_rmse = float(np.sqrt(np.mean((pred - y_te) ** 2)))
        surr_base = float(np.sqrt(np.mean((y_tr.mean(axis=0) - y_te) ** 2)))
        surr_ratio = surr_rmse / surr_base

        # Per-detector core-state models under the cycle-holdout protocol,
        # on 8 representative detectors, against both baselines.
        tr_h, va_h, te_h = split_holdout_cycle(c8_frames, holdout_cycle=2, seed=17)
        idxs = np.array([geom.detector_index(DetectorId.parse(c))
                         for c in C8_DETECTORS])
        y_tr_all = tr_h.readings[:, idxs]
        y_te_all = te_h.readings[:, idxs]
        mean_rmse = np.sqrt(np.mean((y_te_all - y_tr_all.mean(axis=0)) ** 2, axis=0))
        ols_rmse, ridge_rmse, lam = _linear_baselines(tr_h, va_h, te_h, idxs)

        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            ctx = get_context("spawn")
            with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
                results = list(pool.map(_train_lprmnet_for, C8_DETECTORS))
        finally:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        net_rmse = {}
        for code, pred_col, y_col in results:
            net_rmse[code] = float(np.sqrt(np.mean((pred_col - y_col) ** 2)))
        net_mean = float(np.mean([net_rmse[c] for c in C8_DETECTORS]))
        mean_base = float(mean_rmse.mean())
        ols_base = float(ols_rmse.mean())
        ridge_base = float(ridge_rmse.mean())

        elapsed = time.time() - t0
        ok = (surr_ratio <= 0.25
              and net_mean <= 0.5 * mean_base
              and 2.0 * net_mean <= ols_base
              and elapsed < 1800.0)
        report(8, "end-to-end convergence", ok,
               f"surrogate {surr_rmse:.4f} = {surr_ratio:.2f}x mean-predictor; "
               f"core-state nets {net_mean:.4f} vs mean-predictor {mean_base:.4f} "
               f"({net_mean / mean_base:.2f}x) and least-squares linear "
               f"{ols_base:.4f} ({ols_base / net_mean:.1f}x higher; val-tuned "
               f"ridge lam={lam} reaches {ridge_base:.4f}); {elapsed / 60:.1f} min")


class TestCriterion9VirtualSensing:
    def test_bypassed_detector_matches_partner(self, geom):
        frames = filter_transients(generate_cycle(
            PlantScenario(cycle_id=1, frame_count=500, seed=606), geom))
        tr_f, va_f, te_f = split_surrogate(frames, seed=3)
        model_ba = SurrogateNet(SurrogateSpec(76, 76, (128,) * 6), seed=4)
        predictor = SetSurrogatePredictor(model_ba, "B")
        x_tr, y_tr = predictor.training_arrays(tr_f, geom)
        x_va, y_va = predictor.training_arrays(va_f, geom)
        cfg = TrainConfig(max_lr=0.005, epochs=120, batch_size=32, seed=6,
                          bypass_p=0.2)
        train(model_ba, DataSplit(x_tr, y_tr, x_va, y_va), cfg)

        sigma = (batched_predict(model_ba, x_va) - y_va).std(axis=0)
        sensor = VirtualSensor(geom, [predictor])
        target = geom.detectors_in_set("A")[0]
        partner = geom.symmetry_partner(target)
        col = list(geom.detectors_in_set("A")).index(target)
        hits = 0
        for row in range(len(te_f)):  # one frame at a time, through one-row tables
            virtual = sensor.infer(te_f.take([row]), [target])[0][0, geom.detector_index(target)]
            partner_val = te_f.readings[row, geom.detector_index(partner)]
            if abs(virtual - partner_val) <= 3.0 * sigma[col]:
                hits += 1
        coverage = hits / len(te_f)
        report(9, "virtual sensing", coverage >= 0.95,
               f"bypassed {target.code}: {coverage:.1%} of {len(te_f)} noiseless "
               f"test frames within 3 validation sigmas of partner {partner.code}")


class TestCriterion10DriftDetection:
    def test_injected_drift_flagged_exactly(self, geom):
        drifting = frozenset({DetectorId.parse(c) for c in
                              ("2A", "9C", "17B", "30D", "41A")})
        frames = generate_cycle(PlantScenario(
            cycle_id=1, frame_count=500, seed=707, noise_sigma=0.005,
            drift_rate=0.001, drift_detectors=drifting), geom)
        result = drift_report(OraclePredictor(), frames, geom, threshold=0.05)
        flagged = set(result.flagged)
        expected = {d.code for d in drifting}
        caught = len(flagged & expected)
        false_alarms = len(flagged - expected)
        ok = flagged == expected
        report(10, "drift detection", ok,
               f"{caught}/{len(expected)} drifting detectors flagged, "
               f"{false_alarms} of {172 - len(expected)} stable detectors flagged")


class TestCriterion11DeterminismAndFormats:
    def test_byte_identical_outputs(self, tmp_path):
        import json

        from virtlprm.cli import main

        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({
            "geometry": "default",
            "cycles": [{"cycle_id": 1, "frame_count": 30, "seed": 21},
                       {"cycle_id": 2, "frame_count": 24, "seed": 21}],
        }))
        exp_cfg = tmp_path / "exp.json"

        def run_all(tag):
            archive = tmp_path / f"arch-{tag}"
            assert main(["gen", "--config", str(gen_cfg), "--out", str(archive)]) == 0
            exp_cfg.write_text(json.dumps({
                "archive": str(archive), "model": "surrogate-ab",
                "split": "surrogate", "seed": 5,
                "out_dir": str(tmp_path / f"run-{tag}"),
                "model_config": {"hidden": 16},
                "train": {"max_lr": 0.005, "epochs": 3, "batch_size": 16},
            }))
            assert main(["train", "--config", str(exp_cfg)]) == 0
            assert main(["eval", "--checkpoint",
                         str(tmp_path / f"run-{tag}" / "checkpoint"),
                         "--archive", str(archive), "--out",
                         str(tmp_path / f"rep-{tag}"), "--seed", "5"]) == 0
            assert main(["report", "--checkpoint", "oracle", "--archive",
                         str(archive), "--out", str(tmp_path / f"drift-{tag}")]) == 0

        run_all("a")
        run_all("b")

        compared = []
        for rel in ("manifest.json", "np.bin", "rv.bin", "rp.bin", "nbd.bin",
                    "scalars.bin", "readings.bin"):
            compared.append(("archive/" + rel,
                             (tmp_path / "arch-a" / rel).read_bytes()
                             == (tmp_path / "arch-b" / rel).read_bytes()))
        for rel in ("history.csv", "checkpoint/manifest.json", "checkpoint/params.bin"):
            compared.append((f"run/{rel}",
                             (tmp_path / "run-a" / rel).read_bytes()
                             == (tmp_path / "run-b" / rel).read_bytes()))
        for rel in ("report.csv", "report.json"):
            compared.append((f"report/{rel}",
                             (tmp_path / "rep-a" / rel).read_bytes()
                             == (tmp_path / "rep-b" / rel).read_bytes()))
        for rel in ("drift.csv", "drift.json"):
            compared.append((f"drift/{rel}",
                             (tmp_path / "drift-a" / rel).read_bytes()
                             == (tmp_path / "drift-b" / rel).read_bytes()))

        # Round-trips are bit-exact as well.
        from virtlprm.coredata import load_archive, save_archive
        frames = load_archive(tmp_path / "arch-a")
        save_archive(frames, tmp_path / "arch-rt")
        for name in ("manifest.json", "np.bin", "rv.bin", "rp.bin", "nbd.bin",
                     "scalars.bin", "readings.bin"):
            compared.append((f"roundtrip/{name}",
                             (tmp_path / "arch-a" / name).read_bytes()
                             == (tmp_path / "arch-rt" / name).read_bytes()))
        from virtlprm.models import load_checkpoint, save_checkpoint
        ckpt = load_checkpoint(tmp_path / "run-a" / "checkpoint")
        save_checkpoint(ckpt, tmp_path / "ckpt-rt", training_meta=ckpt.training_meta)
        compared.append(("roundtrip/params.bin",
                         (tmp_path / "run-a" / "checkpoint" / "params.bin").read_bytes()
                         == (tmp_path / "ckpt-rt" / "params.bin").read_bytes()))

        bad = [name for name, ok in compared if not ok]
        report(11, "determinism and formats", not bad,
               f"{len(compared)} byte comparisons identical" if not bad
               else f"mismatches: {bad}")
