import numpy as np
import pytest

from virtlprm import autodiff as ad
from virtlprm.attention import (
    AxialAttentionParams,
    affinity,
    aggregate,
    axial_attention,
    axial_pass,
    pair_count,
)
from virtlprm.autodiff import ShapeError, Tensor, grad_check, softmax


def brute_force_affinity(q, k, axis, counter=None):
    """Explicit double loop over (position, axis neighbor) dot products."""
    c, h, w = q.shape
    span = h if axis == "height" else w
    out = np.zeros((h, w, span), dtype=np.float64)
    for jh in range(h):
        for jw in range(w):
            for i in range(span):
                if axis == "height":
                    fiber = k[:, i, jw]
                else:
                    fiber = k[:, jh, i]
                out[jh, jw, i] = float(np.dot(q[:, jh, jw].astype(np.float64),
                                              fiber.astype(np.float64)))
                if counter is not None:
                    counter[0] += 1
    return out


def brute_force_aggregate(m, v, l, axis):
    """Explicit triple loop: weighted axis fibers plus the residual."""
    c, h, w = v.shape
    span = h if axis == "height" else w
    out = l.astype(np.float64).copy()
    for jh in range(h):
        for jw in range(w):
            for i in range(span):
                if axis == "height":
                    fiber = v[:, i, jw]
                else:
                    fiber = v[:, jh, i]
                out[:, jh, jw] += float(m[jh, jw, i]) * fiber.astype(np.float64)
    return out


def params_from_arrays(wq, wk, wv, requires_grad=True):
    return AxialAttentionParams(
        wq=Tensor(wq, requires_grad=requires_grad),
        wk=Tensor(wk, requires_grad=requires_grad),
        wv=Tensor(wv, requires_grad=requires_grad),
    )


def random_params(rng, channels, qk=None, dtype=np.float64, scale=0.5):
    qk = qk or max(1, channels // 2)
    return params_from_arrays(
        (rng.standard_normal((qk, channels, 1, 1)) * scale).astype(dtype),
        (rng.standard_normal((qk, channels, 1, 1)) * scale).astype(dtype),
        (rng.standard_normal((channels, channels, 1, 1)) * scale).astype(dtype),
    )


class TestAffinity:
    def test_all_ones_forced_dot(self):
        q = Tensor(np.ones((2, 2, 2), dtype=np.float32))
        out = affinity(q, q, "height")
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 2.0))

    def test_zero_keys(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.standard_normal((3, 4, 4)).astype(np.float32))
        k = Tensor(np.zeros((3, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(affinity(q, k, "width").data, np.zeros((4, 4, 4)))

    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_matches_brute_force(self, axis):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((4, 5, 5))
        k = rng.standard_normal((4, 5, 5))
        got = affinity(Tensor(q), Tensor(k), axis).data
        np.testing.assert_allclose(got, brute_force_affinity(q, k, axis), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            affinity(Tensor(np.zeros((2, 3, 3), dtype=np.float32)),
                     Tensor(np.zeros((2, 4, 4), dtype=np.float32)), "height")

    def test_gradients(self):
        rng = np.random.default_rng(2)
        q = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        for axis in ("height", "width"):
            for target in (q, k):
                target.grad = None

                def f(t, axis=axis, target=target):
                    a = affinity(t if target is q else q, t if target is k else k, axis)
                    return ad.tsum(ad.mul(a, a))

                assert grad_check(f, target, step=1e-6) < 1e-6


class TestAttentionMap:
    """The attention weights: a softmax over the span axis."""

    def test_uniform_affinities(self):
        a = Tensor(np.zeros((2, 3, 5), dtype=np.float32))
        np.testing.assert_allclose(softmax(a, axis=-1).data, np.full((2, 3, 5), 0.2))

    def test_dominant_affinity(self):
        a = np.zeros((1, 1, 4), dtype=np.float32)
        a[0, 0, 2] = 1000.0
        out = softmax(Tensor(a), axis=-1).data
        assert out[0, 0, 2] > 1.0 - 1e-6

    def test_random_slices_sum_to_one(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((6, 7, 6)).astype(np.float32))
        np.testing.assert_allclose(softmax(a, axis=-1).data.sum(axis=-1), 1.0, atol=1e-6)


class TestAggregate:
    def test_zero_map_is_pure_residual(self):
        rng = np.random.default_rng(4)
        l = rng.standard_normal((3, 4, 4)).astype(np.float32)
        v = rng.standard_normal((3, 4, 4)).astype(np.float32)
        m = np.zeros((4, 4, 4), dtype=np.float32)
        out = aggregate(Tensor(m), Tensor(v), Tensor(l), "height")
        np.testing.assert_array_equal(out.data, l)

    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_one_hot_map_adds_value(self, axis):
        rng = np.random.default_rng(5)
        l = rng.standard_normal((2, 3, 3)).astype(np.float32)
        v = rng.standard_normal((2, 3, 3)).astype(np.float32)
        m = np.zeros((3, 3, 3), dtype=np.float32)
        for jh in range(3):
            for jw in range(3):
                m[jh, jw, jh if axis == "height" else jw] = 1.0
        out = aggregate(Tensor(m), Tensor(v), Tensor(l), axis)
        np.testing.assert_allclose(out.data, v + l, rtol=1e-6)

    @pytest.mark.parametrize("axis", ["height", "width"])
    def test_matches_brute_force(self, axis):
        rng = np.random.default_rng(6)
        c, h, w = 3, 4, 5
        span = h if axis == "height" else w
        m = rng.standard_normal((h, w, span))
        v = rng.standard_normal((c, h, w))
        l = rng.standard_normal((c, h, w))
        got = aggregate(Tensor(m), Tensor(v), Tensor(l), axis).data
        np.testing.assert_allclose(got, brute_force_aggregate(m, v, l, axis), rtol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        m = Tensor(rng.standard_normal((3, 4, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        l = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        for target in (m, v, l):
            target.grad = None

            def f(t, target=target):
                args = [m, v, l]
                args[[m, v, l].index(target)] = t
                out = aggregate(*args, "height")
                return ad.tsum(ad.mul(out, out))

            assert grad_check(f, target, step=1e-6) < 1e-6


class TestOracleEquivalenceSweep:
    def test_random_shapes_match_loop_reference(self):
        # Spot sweep over shapes up to 8x8x8; the acceptance suite runs the
        # full 200-shape version.
        rng = np.random.default_rng(8)
        for _ in range(25):
            c, h, w = rng.integers(1, 9, size=3)
            axis = "height" if rng.random() < 0.5 else "width"
            span = h if axis == "height" else w
            q = rng.standard_normal((c, h, w))
            k = rng.standard_normal((c, h, w))
            m = rng.standard_normal((h, w, span))
            v = rng.standard_normal((c, h, w))
            l = rng.standard_normal((c, h, w))
            np.testing.assert_allclose(affinity(Tensor(q), Tensor(k), axis).data,
                                       brute_force_affinity(q, k, axis),
                                       rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(aggregate(Tensor(m), Tensor(v), Tensor(l), axis).data,
                                       brute_force_aggregate(m, v, l, axis),
                                       rtol=1e-6, atol=1e-9)


class TestAxialAttention:
    def test_zero_value_projection_is_identity(self):
        rng = np.random.default_rng(9)
        c = 4
        l = rng.standard_normal((c, 5, 5)).astype(np.float32)

        def zeroed(seed):
            p = random_params(np.random.default_rng(seed), c, dtype=np.float32)
            p.wv.data[:] = 0.0
            return p

        out = axial_attention(Tensor(l), zeroed(1), zeroed(2))
        np.testing.assert_array_equal(out.data, l)

    def test_single_position_map(self):
        rng = np.random.default_rng(10)
        l = rng.standard_normal((3, 1, 1))
        hp = random_params(np.random.default_rng(11), 3)
        wp = random_params(np.random.default_rng(12), 3)
        out = axial_attention(Tensor(l), hp, wp).data
        # With one position per axis the attention weight is exactly 1, so
        # each pass adds its value projection on top of the input.
        v1 = np.einsum("oc,c->o", hp.wv.data[:, :, 0, 0], l[:, 0, 0])
        mid = l[:, 0, 0] + v1
        v2 = np.einsum("oc,c->o", wp.wv.data[:, :, 0, 0], mid)
        np.testing.assert_allclose(out[:, 0, 0], mid + v2, rtol=1e-10)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(13)
        for shape in [(2, 3, 5), (4, 6, 2), (1, 1, 3)]:
            l = Tensor(rng.standard_normal(shape).astype(np.float32))
            hp = random_params(rng, shape[0], dtype=np.float32)
            wp = random_params(rng, shape[0], dtype=np.float32)
            assert axial_attention(l, hp, wp).shape == shape

    def test_gradient_wrt_query_projection(self):
        rng = np.random.default_rng(14)
        l = Tensor(rng.standard_normal((2, 4, 4)).astype(np.float32))
        hp = random_params(rng, 2, dtype=np.float32)
        wp = random_params(rng, 2, dtype=np.float32)

        def f(t):
            p = AxialAttentionParams(wq=t, wk=hp.wk, wv=hp.wv)
            out = axial_attention(l, p, wp)
            return ad.tsum(ad.mul(out, out))

        assert grad_check(f, hp.wq, step=3e-3, floor=1e-3) < 1e-3

    def test_gradient_full_block_f64(self):
        rng = np.random.default_rng(15)
        l = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
        hp = random_params(rng, 2)
        wp = random_params(rng, 2)

        def f(t):
            out = axial_attention(t, hp, wp)
            return ad.tsum(ad.mul(out, out))

        assert grad_check(f, l, step=1e-6) < 1e-6

    def test_batched_matches_single(self):
        rng = np.random.default_rng(16)
        ls = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        hp = random_params(rng, 2, dtype=np.float32)
        wp = random_params(rng, 2, dtype=np.float32)
        batched = axial_attention(Tensor(ls), hp, wp).data
        for i in range(3):
            single = axial_attention(Tensor(ls[i]), hp, wp).data
            np.testing.assert_allclose(batched[i], single, rtol=1e-5, atol=1e-6)


class TestComplexity:
    def test_pair_count_probe(self):
        # One axial pass touches far fewer pairs than full self-attention;
        # the loop reference's iteration count agrees with the closed form.
        for h, w in [(5, 7), (8, 8), (30, 30)]:
            rng = np.random.default_rng(h * w)
            height_pairs = pair_count(h, w, "height")
            assert height_pairs == h * w * h
            assert height_pairs < h * w * (h + w) + 1
            both = pair_count(h, w, "height") + pair_count(h, w, "width")
            assert both == h * w * (h + w)
            assert both < (h * w) ** 2
        counter = [0]
        q = np.random.default_rng(17).standard_normal((2, 5, 7))
        brute_force_affinity(q, q, "height", counter=counter)
        assert counter[0] == pair_count(5, 7, "height")


class TestParams:
    def test_init_defaults(self):
        p = AxialAttentionParams.init(8, seed=0)
        assert p.wq.shape == (4, 8, 1, 1)
        assert p.wk.shape == (4, 8, 1, 1)
        assert p.wv.shape == (8, 8, 1, 1)

    def test_min_qk_channels(self):
        p = AxialAttentionParams.init(1, seed=0)
        assert p.wq.shape[0] == 1

    def test_mismatched_qk_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ShapeError):
            params_from_arrays(rng.standard_normal((2, 4, 1, 1)),
                               rng.standard_normal((3, 4, 1, 1)),
                               rng.standard_normal((4, 4, 1, 1)))

    def test_non_square_wv_rejected(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ShapeError):
            params_from_arrays(rng.standard_normal((2, 4, 1, 1)),
                               rng.standard_normal((2, 4, 1, 1)),
                               rng.standard_normal((3, 4, 1, 1)))
