import numpy as np
import pytest
from scipy.special import erf

from virtlprm import autodiff as ad
from virtlprm.autodiff import (
    DegenerateBatchError,
    Graph,
    RunningStats,
    ShapeError,
    Tensor,
    grad_check,
)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestTensor:
    def test_shape_matches_data(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.data.size == 4
        assert t.dtype == np.float32

    def test_preserves_float64(self):
        t = t64([1.0, 2.0])
        assert t.dtype == np.float64

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            Tensor([np.inf])

    def test_non_finite_message_counts_bad_values(self):
        with pytest.raises(ValueError, match="holds 3 non-finite"):
            Tensor([np.nan, 1.0, -np.inf, np.inf, 0.0])
        with pytest.raises(ValueError, match="holds 1 non-finite"):
            Tensor(np.float64(np.nan))

    def test_wraps_a_ready_array_without_copying(self):
        for dtype in (np.float32, np.float64):
            arr = np.arange(6, dtype=dtype).reshape(2, 3)
            assert np.shares_memory(Tensor(arr).data, arr)
        scalar = np.array(2.0, dtype=np.float32)
        assert Tensor(scalar).shape == ()

    def test_copies_a_strided_or_converted_array(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        for t in (Tensor(arr.T), Tensor(arr[:, ::2]), Tensor(arr, dtype=np.float64)):
            assert not np.shares_memory(t.data, arr) and t.data.flags.c_contiguous
        np.testing.assert_array_equal(Tensor(arr.T).data, arr.T)

    def test_zero_size_is_valid(self):
        assert Tensor(np.zeros((0, 3))).shape == (0, 3)

    def test_grad_shape_after_backward(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        assert x.grad.shape == x.shape


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2, dtype=np.float32))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, b.data)

    def test_forced_arithmetic(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[11.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\) x \(2, 3\)"):
            ad.matmul(a, b)

    def test_gradient_of_sum_against_finite_differences(self):
        # d/dA sum(A @ B) with B = 2*I comes out to all twos.
        a = t64([[1.0, 1.0], [1.0, 1.0]], requires_grad=True)
        b = t64([[2.0, 0.0], [0.0, 2.0]])
        loss = ad.tsum(ad.matmul(a, b))
        loss.backward()
        np.testing.assert_allclose(a.grad, [[2.0, 2.0], [2.0, 2.0]], rtol=1e-12)
        err = grad_check(lambda t: ad.tsum(ad.matmul(t, b)), a, step=1e-4)
        assert err < 1e-9

    def test_associativity(self):
        rng = np.random.default_rng(7)
        a, b, c = (rng.standard_normal((8, 8)).astype(np.float32) for _ in range(3))
        left = (Tensor(a) @ Tensor(b)) @ Tensor(c)
        right = Tensor(a) @ (Tensor(b) @ Tensor(c))
        np.testing.assert_allclose(left.data, right.data, rtol=1e-5, atol=1e-5)


class TestConv2d:
    def test_scaling_kernel(self):
        x = Tensor(np.ones((1, 3, 3), dtype=np.float32))
        w = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = ad.conv2d(x, w, b, padding="same")
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3), 2.0))

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 3, 3)).astype(np.float32))
        k = np.zeros((1, 1, 3, 3), dtype=np.float32)
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(x, Tensor(k), Tensor(np.zeros(1, dtype=np.float32)), padding="same")
        np.testing.assert_allclose(out.data, x.data, rtol=1e-6)

    def test_kernel_gradient_matches_finite_differences_f32(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        err = grad_check(lambda k: ad.tsum(ad.mul(y := ad.conv2d(x, k, b, "same"), y)),
                         w, step=3e-3, floor=1e-3)
        assert err < 1e-3

    def test_input_and_bias_gradients_f64(self):
        rng = np.random.default_rng(4)
        x = t64(rng.standard_normal((2, 4, 4)), requires_grad=True)
        w = t64(rng.standard_normal((3, 2, 3, 3)))
        b = t64(rng.standard_normal(3), requires_grad=True)

        def f(t):
            y = ad.conv2d(t, w, b, "same")
            return ad.tsum(ad.mul(y, y))

        assert grad_check(f, x, step=1e-6) < 1e-6
        assert grad_check(lambda bb: ad.tsum(ad.conv2d(x, w, bb, "valid")), b, step=1e-6) < 1e-6

    def test_valid_padding_shrinks(self):
        x = Tensor(np.zeros((1, 5, 5), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        assert ad.conv2d(x, w, b, "valid").shape == (1, 3, 3)

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((2, 3, 3), dtype=np.float32))
        w = Tensor(np.zeros((1, 3, 1, 1), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError, match="channel mismatch"):
            ad.conv2d(x, w, b, "same")

    def test_kernel_larger_than_input(self):
        x = Tensor(np.zeros((1, 2, 2), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError, match="larger than"):
            ad.conv2d(x, w, b, "valid")

    def test_even_kernel_rejected_for_same(self):
        x = Tensor(np.zeros((1, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        with pytest.raises(ShapeError, match="odd"):
            ad.conv2d(x, w, b, "same")

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((3, 2, 6, 6)).astype(np.float32)
        w = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal(4).astype(np.float32))
        batched = ad.conv2d(Tensor(xs), w, b, "same").data
        for i in range(3):
            single = ad.conv2d(Tensor(xs[i]), w, b, "same").data
            np.testing.assert_allclose(batched[i], single, rtol=1e-6, atol=1e-6)


class TestGelu:
    def test_zero(self):
        assert ad.gelu(Tensor([0.0])).data[0] == 0.0

    def test_large_input_asymptote(self):
        assert abs(ad.gelu(Tensor([10.0])).data[0] - 10.0) < 1e-6

    def test_unit_value_against_independent_erf(self):
        # x * Phi(x) at x=1, with Phi from scipy's erf directly.
        expected = 1.0 * 0.5 * (1.0 + erf(1.0 / np.sqrt(2.0)))
        assert abs(expected - 0.8413447460685429) < 1e-12
        got = ad.gelu(t64([1.0])).data[0]
        assert abs(got - expected) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal(16), requires_grad=True)
        err = grad_check(lambda t: ad.tsum(ad.gelu(t)), x, step=1e-6)
        assert err < 1e-6

    def test_float32_cdf_within_5e7_of_float64(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([np.linspace(-8.0, 8.0, (1 << 21) + 1, dtype=np.float32),
                            (rng.standard_normal(1 << 18) * 3.0).astype(np.float32),
                            rng.uniform(-40.0, 40.0, 1 << 16).astype(np.float32)])
        phi32 = ad._gelu_and_cdf(x)[1]
        assert phi32.dtype == np.float32
        exact = 0.5 * (1.0 + erf(x.astype(np.float64) / np.sqrt(2.0)))
        assert np.abs(phi32 - exact).max() <= 5e-7

    @staticmethod
    def half_erf(x):
        out, sq, poly = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        ad._half_erf_block(x, out, sq, poly)
        return out

    def test_float32_erf_is_odd_bitwise(self):
        x = np.linspace(-8.0, 8.0, 100_001, dtype=np.float32)
        np.testing.assert_array_equal(self.half_erf(-x), -self.half_erf(x))

    def test_float32_clamp_is_where_the_kernel_reaches_one_half(self):
        clamp = np.float32(ad._HALF_ERF_CLAMP)
        bits = np.arange(np.float32(2.0).view(np.int32), clamp.view(np.int32) + 1,
                         dtype=np.int32)
        half = self.half_erf(bits.view(np.float32))
        assert half[-1] == 0.5 and (half[:-1] < 0.5).all()

    def test_float32_saturates_exactly(self):
        big = np.array([10.0, 4.0 * np.sqrt(2.0) + 1e-3, 50.0, 3e38], dtype=np.float32)
        assert ad.gelu(Tensor(big)).data.tolist() == big.tolist()
        assert ad.gelu(Tensor(-big)).data.tolist() == [0.0] * len(big)
        assert ad.gelu(Tensor([10.0])).data[0] == 10.0

    def test_float32_result_does_not_depend_on_block_size(self, monkeypatch):
        x = Tensor(np.random.default_rng(32).standard_normal((5, 41)).astype(np.float32))
        whole = ad.gelu(x).data
        monkeypatch.setattr(ad, "GELU_BLOCK", 16)
        np.testing.assert_array_equal(ad.gelu(x).data, whole)

    def test_float64_is_scipy_bit_for_bit(self):
        rng = np.random.default_rng(33)
        xd = np.concatenate([rng.standard_normal(5000) * 3.0, [0.0, -7.5, 12.0]])
        x = t64(xd, requires_grad=True)
        y = ad.gelu(x)
        phi = 0.5 * (1.0 + erf(xd * (1.0 / np.sqrt(2.0))))
        np.testing.assert_array_equal(y.data, xd * phi)
        g = rng.standard_normal(xd.shape)
        pdf = np.exp(-0.5 * xd * xd) * (1.0 / np.sqrt(2.0 * np.pi))
        np.testing.assert_array_equal(y.node.rule(g)[0], g * (phi + xd * pdf))

    def test_float32_gradient_against_float64_differences(self):
        rng = np.random.default_rng(34)
        x = Tensor((rng.standard_normal((4, 8)) * 2.0).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        err = grad_check(lambda t: ad.tsum(ad.mul(ad.gelu(t), w)), x, step=1e-6, floor=1e-3)
        assert err < 1e-3

    def test_closure_keeps_only_input_and_cdf(self):
        # spans several kernel blocks, so every per-block scratch buffer is exercised
        x = Tensor(np.random.default_rng(35).standard_normal((3, ad.GELU_BLOCK))
                   .astype(np.float32), requires_grad=True)
        y = ad.gelu(x)
        kept = [c.cell_contents for c in y.node.rule.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        others = [a for a in kept if a is not x.data]
        assert len(kept) == 2 and len(others) == 1
        phi = others[0]
        assert (phi if phi.base is None else phi.base).nbytes == x.data.nbytes
        np.testing.assert_array_equal(y.data, x.data * phi)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_no_overflow(self):
        out = ad.softmax(Tensor([1000.0, 0.0])).data
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(2)
        v = Tensor(rng.standard_normal((4, 5, 6)).astype(np.float32))
        for axis in range(3):
            out = ad.softmax(v, axis=axis).data
            np.testing.assert_allclose(out.sum(axis=axis), 1.0, atol=1e-6)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_jvp_against_finite_differences(self):
        rng = np.random.default_rng(13)
        x = t64(rng.standard_normal((3, 4)), requires_grad=True)
        w = t64(rng.standard_normal((3, 4)))

        def f(t):
            return ad.tsum(ad.mul(ad.softmax(t, axis=1), w))

        assert grad_check(f, x, step=1e-6) < 1e-6

    def test_jvp_f32_tolerance(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((2, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 5)).astype(np.float32))
        err = grad_check(lambda t: ad.tsum(ad.mul(ad.softmax(t, axis=1), w)),
                         x, step=3e-3, floor=1e-3)
        assert err < 1e-3


class TestBatchNorm:
    def test_two_row_batch(self):
        x = Tensor([[1.0], [3.0]], requires_grad=False, dtype=np.float64)
        gamma = t64([1.0])
        beta = t64([0.0])
        out = ad.batch_norm(x, gamma, beta, RunningStats(1, np.float64), "train", eps=1e-12)
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((8, 3)).astype(np.float32))
        gamma = Tensor(np.zeros(3, dtype=np.float32))
        beta = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32))
        out = ad.batch_norm(x, gamma, beta, RunningStats(3), "train")
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (8, 3)), atol=1e-6)

    def test_train_output_statistics(self):
        rng = np.random.default_rng(6)
        x = Tensor((rng.standard_normal((64, 4)) * 3.0 + 1.0).astype(np.float32))
        gamma = Tensor(np.ones(4, dtype=np.float32))
        beta = Tensor(np.zeros(4, dtype=np.float32))
        out = ad.batch_norm(x, gamma, beta, RunningStats(4), "train").data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_degenerate_batch(self):
        x = Tensor(np.zeros((1, 2), dtype=np.float32))
        p = Tensor(np.ones(2, dtype=np.float32))
        with pytest.raises(DegenerateBatchError):
            ad.batch_norm(x, p, p, RunningStats(2), "train")

    def test_eval_uses_running_stats(self):
        running = RunningStats(2, np.float64)
        running.mean[:] = [1.0, -1.0]
        running.var[:] = [4.0, 0.25]
        x = t64([[3.0, 0.0]])
        gamma = t64([1.0, 1.0])
        beta = t64([0.0, 0.0])
        out = ad.batch_norm(x, gamma, beta, running, "eval", eps=0.0)
        np.testing.assert_allclose(out.data, [[1.0, 2.0]], atol=1e-12)

    def test_train_gradients(self):
        rng = np.random.default_rng(21)
        x = t64(rng.standard_normal((6, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = t64(rng.standard_normal(3), requires_grad=True)
        w = t64(rng.standard_normal((6, 3)))

        def make(target):
            def f(t):
                args = {"x": x, "gamma": gamma, "beta": beta}
                args[target] = t
                out = ad.batch_norm(args["x"], args["gamma"], args["beta"],
                                    RunningStats(3, np.float64), "train")
                return ad.tsum(ad.mul(out, w))
            return f

        assert grad_check(make("x"), x, step=1e-6) < 1e-6
        assert grad_check(make("gamma"), gamma, step=1e-6) < 1e-6
        assert grad_check(make("beta"), beta, step=1e-6) < 1e-6

    def test_eval_gradients(self):
        rng = np.random.default_rng(22)
        running = RunningStats(3, np.float64)
        running.mean[:] = rng.standard_normal(3)
        running.var[:] = rng.uniform(0.5, 2.0, 3)
        x = t64(rng.standard_normal((4, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, 3))
        beta = t64(rng.standard_normal(3))

        def f(t):
            out = ad.batch_norm(t, gamma, beta, running, "eval")
            return ad.tsum(ad.mul(out, out))

        assert grad_check(f, x, step=1e-6) < 1e-6

    @staticmethod
    def reference_train(x, gamma, beta, running, g, eps=1e-5, momentum=0.1):
        """Train-mode forward, running update and gradients by x.mean / x.var."""
        n = x.shape[0]
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv_std
        running.mean[:] = (1.0 - momentum) * running.mean + momentum * mu
        running.var[:] = (1.0 - momentum) * running.var + momentum * var * (n / (n - 1.0))
        gsum = g.sum(axis=0)
        gxhat_sum = (g * xhat).sum(axis=0)
        gx = (gamma * inv_std / n) * (n * g - gsum - xhat * gxhat_sum)
        return gamma * xhat + beta, (gx, gxhat_sum, gsum)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 7), (64, 256), (4, 8, 6, 5)],
                             ids=["n=2", "dense", "batch_norm2d"])
    def test_train_bit_identical_to_mean_var_formula(self, dtype, shape):
        rng = np.random.default_rng(24)
        x = Tensor((rng.standard_normal(shape) * 2.0 + 0.7).astype(dtype), requires_grad=True)
        c = shape[1]
        gamma = Tensor(rng.uniform(0.5, 1.5, c).astype(dtype), requires_grad=True)
        beta = Tensor(rng.standard_normal(c).astype(dtype), requires_grad=True)
        running, expected = RunningStats(c, dtype), RunningStats(c, dtype)
        g = rng.standard_normal(shape).astype(dtype)
        if len(shape) == 4:
            out = ad.batch_norm2d(x, gamma, beta, running, "train")
            flat = lambda a: a.transpose(0, 2, 3, 1).reshape(-1, c)  # noqa: E731
            want, _ = self.reference_train(flat(x.data), gamma.data, beta.data, expected,
                                           flat(g))
            np.testing.assert_array_equal(flat(out.data), want)
        else:
            out = ad.batch_norm(x, gamma, beta, running, "train")
            want, want_grads = self.reference_train(x.data, gamma.data, beta.data, expected, g)
            assert out.data.tobytes() == want.tobytes()
            for got, ref in zip(out.node.rule(g), want_grads):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert running.mean.tobytes() == expected.mean.tobytes()
        assert running.var.tobytes() == expected.var.tobytes()

    def test_running_stats_move_toward_batch(self):
        rng = np.random.default_rng(23)
        running = RunningStats(2)
        x = Tensor((rng.standard_normal((32, 2)) + 5.0).astype(np.float32))
        p1 = Tensor(np.ones(2, dtype=np.float32))
        p0 = Tensor(np.zeros(2, dtype=np.float32))
        ad.batch_norm(x, p1, p0, running, "train")
        np.testing.assert_allclose(running.mean, 0.1 * x.data.mean(axis=0), rtol=1e-5)


class TestMseLoss:
    def test_equal_inputs(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert ad.mse_loss(x, Tensor([1.0, 2.0, 3.0])).item() == 0.0

    def test_constant_offset(self):
        pred = Tensor(np.full((3, 2), 5.0, dtype=np.float32))
        target = Tensor(np.full((3, 2), 3.0, dtype=np.float32))
        assert ad.mse_loss(pred, target).item() == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_gradient_closed_form_and_fd(self):
        rng = np.random.default_rng(31)
        pred = t64(rng.standard_normal((4, 3)), requires_grad=True)
        target = t64(rng.standard_normal((4, 3)))
        loss = ad.mse_loss(pred, target)
        loss.backward()
        expected = 2.0 * (pred.data - target.data) / pred.data.size
        np.testing.assert_allclose(pred.grad, expected, rtol=1e-12)
        pred.grad = None
        assert grad_check(lambda t: ad.mse_loss(t, target), pred, step=1e-6) < 1e-6


class TestBackward:
    def test_square(self):
        x = t64([3.0], requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_fanout_accumulation(self):
        x = t64([2.5], requires_grad=True)
        y = ad.mul(x, Tensor(np.ones(1, dtype=np.float64)))
        loss = ad.tsum(ad.add(y, y))
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(Graph.trace(y), y)

    def test_loss_must_be_the_graph_root(self):
        x = t64([1.0], requires_grad=True)
        inner = ad.tsum(ad.mul(x, x))
        outer = ad.tsum(ad.mul(inner, t64([2.0])))
        graph = Graph.trace(outer)
        assert graph.tensors[-1] is outer and any(t is inner for t in graph.tensors)
        with pytest.raises(ValueError, match="root"):
            ad.backward(graph, inner)
        assert x.grad is None
        ad.backward(graph, outer)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_disconnected_tensor_gets_zero_gradient(self):
        # a cleared gradient is None, and a tensor the loss does not reach keeps it
        x = t64([1.0], requires_grad=True)
        unused = t64([5.0], requires_grad=True)
        unused.grad = None
        ad.tsum(ad.mul(x, x)).backward()
        assert unused.grad is None

    def test_sum_of_losses_equals_sum_of_backwards(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal((3, 3))

        def build():
            x = t64(base, requires_grad=True)
            a = ad.tsum(ad.mul(x, x))
            b = ad.tsum(ad.gelu(x))
            return x, a, b

        x1, a1, b1 = build()
        ad.tsum(ad.add(ad.reshape(a1, (1,)), ad.reshape(b1, (1,)))).backward()
        x2, a2, b2 = build()
        a2.backward()
        b2.backward()
        np.testing.assert_allclose(x1.grad, x2.grad, rtol=1e-10)

    def test_accumulation_is_additive_until_zeroed(self):
        x = t64([1.0], requires_grad=True)
        for _ in range(2):
            ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [4.0])
        x.grad = None
        ad.tsum(ad.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_graph_visits_each_node_once(self):
        x = t64([1.0], requires_grad=True)
        y = ad.mul(x, x)
        z = ad.add(y, y)
        graph = Graph.trace(ad.tsum(z))
        with_nodes = [t for t in graph.tensors if t.node is not None]
        assert len(with_nodes) == len({id(t) for t in with_nodes})


class TestGraphLifetime:
    """``backward`` frees every operation it passes, and ``no_grad``
    records none."""

    @staticmethod
    def chain(x, w, gamma, beta):
        h = ad.matmul(x, w)
        n = ad.batch_norm(h, gamma, beta, RunningStats(5, np.float64), "train")
        s = ad.softmax(ad.gelu(n))
        return ad.tsum(ad.mul(s, s))

    def leaves(self):
        rng = np.random.default_rng(52)
        return [t64(rng.standard_normal((4, 3)), requires_grad=True),
                t64(rng.standard_normal((3, 5)), requires_grad=True),
                t64(rng.uniform(0.5, 1.5, 5), requires_grad=True),
                t64(rng.standard_normal(5), requires_grad=True)]

    def test_backward_frees_every_intermediate(self):
        leaves = self.leaves()
        loss = self.chain(*leaves)
        graph = Graph.trace(loss)
        made = [t for t in graph.tensors if t.node is not None]
        assert len(made) == 6 and made[-1] is loss
        ad.backward(graph, loss)
        assert all(t.node is None and t.grad is None for t in made)
        assert all(leaf.grad is not None for leaf in leaves)

    def test_leaf_gradients_pass_gradient_checks(self):
        leaves = self.leaves()
        self.chain(*leaves).backward()
        grads = [leaf.grad for leaf in leaves]
        for i, leaf in enumerate(leaves):
            def f(t, i=i):
                return self.chain(*(t if j == i else other for j, other in enumerate(leaves)))
            assert grad_check(f, leaf, step=1e-6) < 1e-6
            np.testing.assert_array_equal(leaf.grad, grads[i])

    def test_spent_graph_reaches_no_leaf(self):
        x = t64([3.0], requires_grad=True)
        loss = ad.tsum(ad.mul(x, x))
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_grad_records_nothing_and_computes_the_same(self):
        leaves = self.leaves()
        with ad.no_grad():
            quiet = ad.gelu(ad.matmul(leaves[0], leaves[1]))
        loud = ad.gelu(ad.matmul(leaves[0], leaves[1]))
        assert quiet.node is None and not quiet.requires_grad
        assert loud.node is not None and loud.requires_grad
        np.testing.assert_array_equal(quiet.data, loud.data)

    def test_no_grad_nests_and_restores_after_an_exception(self):
        x = t64([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                assert ad.mul(x, x).node is None
            assert ad.mul(x, x).node is None
        assert ad.mul(x, x).node is not None
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.mul(x, x).node is not None


class TestGradCheck:
    def test_constant_gradient(self):
        x = t64([[0.3, -0.7], [1.1, 0.0]], requires_grad=True)
        assert grad_check(ad.tsum, x, step=1e-6) < 1e-10

    def test_quadratic_closed_form(self):
        x = t64([1.0, 2.0], requires_grad=True)

        def f(t):
            return ad.tsum(ad.mul(t, t))

        x.grad = None
        f(x).backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)
        assert grad_check(f, x, step=1e-6) < 1e-6

    def test_detects_wrong_backward_rule(self):
        x = t64([1.0, -2.0], requires_grad=True)

        def doubled_square(t):
            data = np.asarray((t.data * t.data).sum())
            # Deliberately wrong rule: factor of 2 too large.
            return Tensor._result(data, (t,), lambda g: (4.0 * t.data * g,))

        # |2g - g| / max(|2g|, |g|) = 0.5: three orders of magnitude above
        # the engine tolerance, so the bug is unmistakable.
        err = grad_check(doubled_square, x, step=1e-6)
        assert abs(err - 0.5) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grad_check(ad.tsum, t64([1.0]), step=0.0)

    def test_sampled_subset(self):
        rng = np.random.default_rng(51)
        x = t64(rng.standard_normal(100), requires_grad=True)
        err = grad_check(lambda t: ad.tsum(ad.gelu(t)), x, step=1e-6, sample=10,
                         rng=np.random.default_rng(0))
        assert err < 1e-6


class TestRandomizedGradProperties:
    """Every differentiable op meets the engine-wide gradient tolerances."""

    @pytest.mark.parametrize("seed", range(3))
    def test_composite_f64(self, seed):
        rng = np.random.default_rng(seed)
        x = t64(rng.standard_normal((3, 4)), requires_grad=True)
        w = t64(rng.standard_normal((4, 2)))

        def f(t):
            h = ad.gelu(ad.matmul(t, w))
            s = ad.softmax(h, axis=1)
            return ad.mse_loss(s, t64(np.zeros((3, 2))))

        assert grad_check(f, x, step=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_composite_f32(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)).astype(np.float32))

        def f(t):
            h = ad.gelu(ad.matmul(t, w))
            return ad.mse_loss(h, Tensor(np.zeros((3, 2), dtype=np.float32)))

        assert grad_check(f, x, step=3e-3, floor=1e-3) < 1e-3

    def test_structural_ops_f64(self):
        rng = np.random.default_rng(60)
        x = t64(rng.standard_normal((2, 3, 4)), requires_grad=True)
        w = t64(rng.standard_normal((4, 3, 2)))

        def f(t):
            tr = ad.transpose(t, (2, 1, 0))
            both = ad.concat([tr, w], axis=0)
            flat = ad.reshape(both, (8 * 3 * 2,))
            return ad.tsum(ad.mul(flat, flat))

        assert grad_check(f, x, step=1e-6) < 1e-6
