"""Minimal reverse-mode differentiation engine on dense numpy tensors.

Supports exactly the operations the detector-prediction networks need:
matrix products, 2-D cross-correlation, GELU, batch normalization,
softmax, mean-squared-error loss, and the shape plumbing (reshape,
transpose, concatenate) to wire them together. GELU's normal CDF is
exact (``scipy.special.erf``) on float64 tensors, which the 1e-6 gradient
checks use; on float32 tensors, the dtype the networks train and serve
in, it comes from a vectorised rational approximation of erf, within
5e-7 of the exact value.

The graph lives only while a gradient needs it. ``backward`` frees each
operation once its rule has run, with the arrays the rule saved (im2col
patches, normalized activations, attention weights), so only leaf
tensors, those no operation made (parameters and inputs), keep ``grad``.
Under ``no_grad``, as every prediction runs, operations record nothing.
Leaf gradients accumulate additively across backward passes. Between
optimization steps callers clear them by setting ``grad`` to ``None``
(``zero_grads`` on a network does): the next pass then assigns each
gradient instead of adding it to a zero buffer.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Float32 erf(z) = z P(z^2) / Q(z^2): the degree-13/8 odd/even rational
# approximation of erf that Eigen uses for float32 (coefficients of z^1..z^13
# and of z^0..z^8).
_ERF_P = (-1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04,
          -5.69250639462346e-05, -2.10102402082508e-06, 2.77068142495902e-08,
          -2.72614225801306e-10)
_ERF_Q = (-1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03,
          -2.13374055278905e-04, -1.45660718464996e-05)
# With z = x / sqrt(2) and the 1/2 of Phi(x) = 1/2 + erf(z) / 2 folded in,
# erf(z) / 2 = x P'(x^2) / Q'(x^2). Both are divided by the leading
# coefficient of P', so P' is monic and its first Horner step is one add.
# Highest power first, as float32 scalars (numpy takes them as operands
# faster than Python floats).
_P1 = [c / 2.0 ** k / (2.0 * 2.0 ** 0.5) for k, c in enumerate(_ERF_P)]
_HALF_ERF_P = tuple(np.float32(c / _P1[-1]) for c in _P1[-2::-1])  # x^10 .. x^0, after x^12
_HALF_ERF_Q = tuple(np.float32(c / 2.0 ** k / _P1[-1]) for k, c in enumerate(_ERF_Q))[::-1]
# The smallest float32 at which the kernel evaluates to exactly 1/2; below
# it every value is under 1/2. Clamping |x| here makes Phi exactly 0 and 1
# beyond, where the exact Phi is within 1.8e-7 of them.
_HALF_ERF_CLAMP = np.float32(5.0930037)
# Elements per GELU kernel block. The block's input, output and two
# scratch slices (1 MB) stay in a 2 MB L2 across the ~25 in-place passes;
# the result does not depend on the block size.
GELU_BLOCK = 1 << 16


# Whether operations record a node for ``backward``; ``no_grad`` clears it.
_recording = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every result has ``requires_grad``
    False and no node, so an operation's saved arrays die when it returns.
    Nests, and restores recording when the block exits or raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateBatchError(ValueError):
    """Batch statistics are undefined (training batch of size < 2)."""


class _OpNode:
    """One applied operation: its operand tensors and the rule that maps
    the output gradient onto operand gradients."""

    __slots__ = ("inputs", "rule")

    def __init__(self, inputs, rule):
        self.inputs = inputs
        self.rule = rule


class Tensor:
    """Dense n-dimensional float array, optionally tracked for differentiation.

    ``data`` is a C-contiguous float32 or float64 ndarray. A C-contiguous
    array already in that dtype is wrapped as it is, not copied: engine ops
    never write into their operands. When an operation consumes a tensor with
    ``requires_grad`` set, the result records the operation so that
    :func:`backward` can later populate ``grad`` buffers (same shape as
    ``data``) on every tracked tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        arr = np.asarray(data, dtype=dtype, order="C")
        # one min and one max, no temporary: a NaN or an infinity shows in them
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
            raise ValueError(f"tensor holds {bad} non-finite value(s)")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @classmethod
    def _result(cls, data, inputs, rule):
        # Internal fast path: wraps an op output, or an already checked
        # array, without re-validating it.
        t = cls.__new__(cls)
        t.data = data
        t.requires_grad = _recording and any(i.requires_grad for i in inputs)
        t.grad = None
        t.node = _OpNode(tuple(inputs), rule) if t.requires_grad else None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        backward(Graph.trace(self), self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"

    def __add__(self, other):
        return add(self, _lift(other, self))

    def __matmul__(self, other):
        return matmul(self, other)


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x), dtype=like.dtype)


class Graph:
    """Topologically ordered record of the operations reaching one tensor.

    Every operand precedes its consumer, so a single reverse sweep visits
    each operation exactly once with its output gradient fully accumulated.
    """

    __slots__ = ("tensors",)

    def __init__(self, tensors):
        self.tensors = tensors

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for inp in t.node.inputs:
                    if id(inp) not in seen:
                        stack.append((inp, False))
        return cls(order)


def backward(graph: Graph, loss: Tensor) -> None:
    """Propagate gradients of a scalar loss back through a traced graph,
    freeing the graph as it goes.

    Gradients accumulate into ``grad`` on every leaf tensor (one no
    operation made, so without a node) with ``requires_grad`` that the loss
    depends on. A leaf whose ``grad`` is ``None``, as a network's
    ``zero_grads`` leaves its parameters, is assigned its first gradient;
    later ones are added out of place, never into a buffer another tensor
    may share. Tensors not reachable from the loss are left untouched, so a
    cleared one keeps ``None``. Every other tensor of the graph, the loss
    included, ends with ``node`` and ``grad`` set to ``None``: once its rule
    has handed gradients to its inputs, the rule and the arrays it saved
    are released, so the graph is spent and a second ``backward`` through
    it reaches no leaf.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if not graph.tensors or graph.tensors[-1] is not loss:  # ``trace`` puts its root last
        raise ValueError("loss tensor is not the root of the supplied graph")
    if not loss.requires_grad:
        return
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed

    for t in reversed(graph.tensors):
        node, grad = t.node, t.grad
        if node is None:  # a leaf keeps its gradient
            continue
        t.node = t.grad = None
        if grad is None:
            continue
        for inp, g in zip(node.inputs, node.rule(grad)):
            if g is None or not inp.requires_grad:
                continue
            inp.grad = g if inp.grad is None else inp.grad + g


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise / structural operations


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._result(data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor._result(data, (a, b), rule)


def reshape(t: Tensor, shape) -> Tensor:
    data = np.reshape(t.data, shape)
    old = t.shape

    def rule(g):
        return (np.reshape(g, old),)

    return Tensor._result(data, (t,), rule)


def transpose(t: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = np.transpose(t.data, axes)

    def rule(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return Tensor._result(np.ascontiguousarray(data), (t,), rule)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, bounds, axis=axis))

    return Tensor._result(data, tensors, rule)


def tsum(t: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    data = np.asarray(t.data.sum(), dtype=t.dtype)

    def rule(g):
        return (np.broadcast_to(g, t.shape).astype(t.dtype, copy=True),)

    return Tensor._result(data, (t,), rule)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m,k)x(k,n), got {a.shape} x {b.shape}")
    data = a.data @ b.data

    def rule(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return Tensor._result(data, (a, b), rule)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding: str = "same") -> Tensor:
    """2-D cross-correlation over channel maps.

    ``x`` is (C_in, H, W) or batched (N, C_in, H, W); ``kernels`` is
    (C_out, C_in, kh, kw); ``bias`` is (C_out,). With ``padding="same"``
    (odd kernels only) the spatial size is preserved; ``"valid"`` shrinks
    it by the kernel extent. Direct computation: one accumulation per
    kernel offset, contracted over input channels.
    """
    if padding not in ("same", "valid"):
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    single = x.data.ndim == 3
    xd = x.data[None] if single else x.data
    if xd.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d needs (N,C,H,W) input and (Co,Ci,kh,kw) kernels, "
                         f"got {x.shape} and {kernels.shape}")
    n, ci, h, w = xd.shape
    co, cik, kh, kw = kernels.shape
    if ci != cik:
        raise ShapeError(f"channel mismatch: input has {ci}, kernels expect {cik}")
    if bias.shape != (co,):
        raise ShapeError(f"bias shape {bias.shape} does not match {co} output channels")
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError(f"same-padding needs odd kernels, got {kh}x{kw}")
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    else:
        ph = pw = 0
    hp, wp = h + 2 * ph, w + 2 * pw
    ho, wo = hp - kh + 1, wp - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")

    out_dtype = np.result_type(xd.dtype, kernels.dtype, bias.dtype)
    w_m = kernels.data.reshape(co, ci * kh * kw)

    if kh == 1 and kw == 1:
        # Pure channel mix: no padding or patch gathering needed.
        cols_m = xd.reshape(n, ci, ho * wo)
    else:
        xp = np.pad(xd, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        # One patch per kernel offset, gathered once so the whole
        # contraction is a single batched matrix product.
        cols = np.empty((n, ci, kh * kw, ho, wo), dtype=xp.dtype)
        for dy in range(kh):
            for dx in range(kw):
                cols[:, :, dy * kw + dx] = xp[:, :, dy:dy + ho, dx:dx + wo]
        cols_m = cols.reshape(n, ci * kh * kw, ho * wo)
    out = np.matmul(w_m, cols_m).astype(out_dtype, copy=False).reshape(n, co, ho, wo)
    out += bias.data[None, :, None, None]
    if single:
        out = out[0]

    def rule(g):
        go = np.ascontiguousarray(g[None] if single else g).reshape(n, co, ho * wo)
        gb = go.sum(axis=(0, 2)) if bias.requires_grad else None
        gk = None
        if kernels.requires_grad:
            gk = np.matmul(go, cols_m.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
        gx = None
        if x.requires_grad:
            dcols = np.matmul(w_m.T, go)
            if kh == 1 and kw == 1:
                gx = dcols.reshape(n, ci, ho, wo)
            else:
                dcols = dcols.reshape(n, ci, kh * kw, ho, wo)
                gxp = np.zeros((n, ci, h + 2 * ph, w + 2 * pw), dtype=dcols.dtype)
                for dy in range(kh):
                    for dx in range(kw):
                        gxp[:, :, dy:dy + ho, dx:dx + wo] += dcols[:, :, dy * kw + dx]
                gx = gxp[:, :, ph:ph + h, pw:pw + w]
            if single:
                gx = gx[0]
            gx = np.ascontiguousarray(gx)
        return gx, gk, gb

    return Tensor._result(out, (x, kernels, bias), rule)


# ---------------------------------------------------------------------------
# activations, normalization, loss


def _half_erf_block(x, out, sq, poly) -> None:
    """erf(x / sqrt(2)) / 2 of float32 ``x`` into ``out``, by the rational
    approximation; ``sq`` and ``poly`` are scratch of the same size.

    Odd in ``x`` bit for bit, and exactly +-1/2 for |x| >= ``_HALF_ERF_CLAMP``.
    """
    np.clip(x, -_HALF_ERF_CLAMP, _HALF_ERF_CLAMP, out=out)
    np.multiply(out, out, out=sq)
    np.add(sq, _HALF_ERF_P[0], out=poly)
    for c in _HALF_ERF_P[1:]:
        poly *= sq
        poly += c
    out *= poly
    np.multiply(sq, _HALF_ERF_Q[0], out=poly)
    for c in _HALF_ERF_Q[1:-1]:
        poly += c
        poly *= sq
    poly += _HALF_ERF_Q[-1]
    out /= poly


def _gelu_and_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * Phi(x) and Phi(x) = (1 + erf(x / sqrt(2))) / 2.

    Float32 runs the kernel in place, one L2-sized block at a time: each
    block of the output serves as the kernel's first scratch buffer before
    it takes x * Phi. Other dtypes take erf from scipy.
    """
    if x.dtype != np.float32:
        phi = erf(x * _INV_SQRT2)
        phi += 1.0
        phi *= 0.5
        return x * phi, phi
    flat = x.reshape(-1)
    phi, out = np.empty_like(flat), np.empty_like(flat)
    scratch = np.empty(min(flat.size, GELU_BLOCK), dtype=np.float32)
    for lo in range(0, flat.size, GELU_BLOCK):
        hi = min(lo + GELU_BLOCK, flat.size)
        xb, pb, ob = flat[lo:hi], phi[lo:hi], out[lo:hi]
        _half_erf_block(xb, pb, ob, scratch[:hi - lo])
        pb += 0.5
        np.multiply(xb, pb, out=ob)
    return out.reshape(x.shape), phi.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, erf form: x * Phi(x).

    Float64 tensors take Phi from ``scipy.special.erf`` exactly. Float32
    tensors take it from a vectorised rational approximation of erf
    (Eigen's float32 form), within 5e-7 of the float64 value on the whole
    line and exactly 0 or 1 for |x| >= 5.093, so ``gelu`` of a large input
    is the input. The backward pass reuses Phi.
    """
    xd = x.data
    data, phi = _gelu_and_cdf(xd)

    def rule(g):
        # g * (Phi + x pdf(x)), pdf(x) = exp(-x^2 / 2) / sqrt(2 pi)
        d = np.multiply(xd, -0.5)
        d *= xd
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= xd
        d += phi
        d *= g
        return (d,)

    return Tensor._result(data, (x,), rule)


def softmax(v: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted exponentials normalized along ``axis``; slices sum to 1."""
    shifted = v.data - v.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Tensor._result(out.astype(v.dtype, copy=False), (v,), rule)


class RunningStats:
    """Exponential-moving-average mean/variance buffers for one batch-norm layer.

    ``batch_norm`` updates both in place. A network declares them in its
    state layout, and its ``snapshot`` copies them with the parameters.
    """

    __slots__ = ("mean", "var")

    def __init__(self, num_features: int, dtype=DEFAULT_DTYPE):
        self.mean = np.zeros(num_features, dtype=dtype)
        self.var = np.ones(num_features, dtype=dtype)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running: RunningStats,
               mode: str, eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Per-feature batch normalization over a (N, F) batch.

    Train mode normalizes by the batch statistics and folds them into the
    running buffers (biased variance normalizes, unbiased updates the
    running variance); eval mode normalizes by the running buffers only.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm needs a (N,F) batch, got {x.shape}")
    n, f = x.shape
    if gamma.shape != (f,) or beta.shape != (f,):
        raise ShapeError(f"gamma/beta must have shape ({f},), got {gamma.shape}/{beta.shape}")

    if mode == "train":
        if n < 2:
            raise DegenerateBatchError(f"training batch must have N >= 2 rows, got {n}")
        # one difference serves the variance and x-hat; bit for bit x.var
        mu = x.data.mean(axis=0)
        xhat = x.data - mu
        var = (xhat * xhat).sum(axis=0) / n
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std
        running.mean[:] = (1.0 - momentum) * running.mean + momentum * mu
        running.var[:] = (1.0 - momentum) * running.var + momentum * var * (n / (n - 1.0))

        def rule(g):
            gsum = g.sum(axis=0)
            gxhat_sum = (g * xhat).sum(axis=0)
            gx = None
            if x.requires_grad:
                gx = (gamma.data * inv_std / n) * (n * g - gsum - xhat * gxhat_sum)
            return (gx, gxhat_sum if gamma.requires_grad else None,
                    gsum if beta.requires_grad else None)
    else:
        inv_std = 1.0 / np.sqrt(running.var + eps)
        xhat = (x.data - running.mean) * inv_std

        def rule(g):
            gg = (g * xhat).sum(axis=0) if gamma.requires_grad else None
            gb = g.sum(axis=0) if beta.requires_grad else None
            gx = g * (gamma.data * inv_std) if x.requires_grad else None
            return gx, gg, gb

    out = gamma.data * xhat
    out += beta.data
    return Tensor._result(out, (x, gamma, beta), rule)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running: RunningStats,
                 mode: str, eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Channel-wise batch norm over (N, C, H, W) maps: every pixel is a sample."""
    n, c, h, w = x.shape
    flat = reshape(transpose(x, (0, 2, 3, 1)), (n * h * w, c))
    normed = batch_norm(flat, gamma, beta, running, mode, eps=eps, momentum=momentum)
    return transpose(reshape(normed, (n, h, w, c)), (0, 3, 1, 2))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared elementwise differences, as a scalar tensor."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    data = np.asarray(np.mean(diff * diff), dtype=diff.dtype)
    count = diff.size

    def rule(g):
        base = (2.0 / count) * diff * g
        gp = base if pred.requires_grad else None
        gt = -base if target.requires_grad else None
        return gp, gt

    return Tensor._result(data, (pred, target), rule)


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(f, x: Tensor, step: float = 1e-5, floor: float = 1e-6,
               sample: int | None = None, rng=None) -> float:
    """Compare the engine's gradient of ``f`` at ``x`` against central differences.

    ``f`` must be a deterministic map from ``x`` to a scalar tensor. Returns
    the max over checked elements of |analytic - numeric| relative to
    max(|analytic|, |numeric|, floor). ``sample`` limits the check to that
    many randomly chosen coordinates (all coordinates by default).

    For float32 tensors the central differences are evaluated with the
    checked buffer upcast to float64, so the numeric oracle stays accurate
    enough to resolve the 1e-3 tolerance; everything the function closes
    over is identical between the two evaluations and cancels. A float32
    check therefore wants a step sized for float64 (about 1e-6): a larger
    step only adds truncation error.

    A coordinate whose exact gradient is 0 holds only rounding on both
    sides, and scores |analytic - numeric| / floor while both stay below
    ``floor``. The floor must sit above that rounding, or such a coordinate
    fails a correct gradient.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x.requires_grad = True
    x.grad = None
    y = f(x)
    if y.data.size != 1:
        raise ShapeError("grad_check target function must return a scalar")
    y.backward()
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.astype(np.float64)

    original = x.data
    x.data = original.astype(np.float64)
    try:
        flat = x.data.reshape(-1)
        indices = np.arange(flat.size)
        if sample is not None and sample < flat.size:
            rng = np.random.default_rng(0) if rng is None else rng
            indices = rng.choice(flat.size, size=sample, replace=False)

        worst = 0.0
        analytic_flat = analytic.reshape(-1)
        for i in indices:
            keep = flat[i]
            flat[i] = keep + step
            hi = float(f(x).data.reshape(()))
            flat[i] = keep - step
            lo = float(f(x).data.reshape(()))
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * step)
            a = float(analytic_flat[i])
            if not (np.isfinite(numeric) and np.isfinite(a)):
                raise ValueError(f"non-finite value during gradient check at flat index {i}")
            err = abs(a - numeric) / max(abs(a), abs(numeric), floor)
            worst = max(worst, err)
    finally:
        x.data = original
    return worst
