"""Axial attention over channel-first feature maps.

Attention is restricted to one spatial axis at a time: every position
attends to the positions sharing its column (height pass) and then, on
that result, to the positions sharing its row (width pass). A height
pass touches H*W*H (query, key) pairs instead of the (H*W)^2 pairs of
unrestricted self-attention, while two stacked passes still give every
position a full-grid receptive field.

All operations are differentiable through the engine in
:mod:`virtlprm.autodiff` and accept either a single (C, H, W) map or a
batch (N, C, H, W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, conv2d, softmax

AXES = ("height", "width")


@dataclass
class AxialAttentionParams:
    """Projection kernels for one axial pass.

    ``wq`` and ``wk`` are 1x1 convolution kernels mapping the C input
    channels to the shared query/key width; ``wv`` is a 1x1 kernel
    preserving C so the aggregated context can be added back onto the
    input map.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor

    def __post_init__(self):
        if self.wq.shape[0] != self.wk.shape[0]:
            raise ShapeError(f"wq/wk output channels differ: {self.wq.shape} vs {self.wk.shape}")
        if self.wv.shape[0] != self.wv.shape[1]:
            raise ShapeError(f"wv must preserve the channel count, got {self.wv.shape}")

    @classmethod
    def init(cls, channels: int, qk_channels: int | None = None,
             seed: int | np.random.Generator = 0, dtype=np.float32) -> "AxialAttentionParams":
        """Fan-in-scaled uniform initialization; qk width defaults to C/2 (min 1).
        ``seed`` is an int or a numpy ``Generator`` to draw from."""
        if qk_channels is None:
            qk_channels = max(1, channels // 2)
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(channels)

        def kernel(cout):
            return Tensor(rng.uniform(-bound, bound, size=(cout, channels, 1, 1)).astype(dtype),
                          requires_grad=True)

        return cls(wq=kernel(qk_channels), wk=kernel(qk_channels), wv=kernel(channels))


def _check_axis(axis: str):
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")


def _spatial(t: Tensor):
    if t.data.ndim == 3:
        return t.shape[1], t.shape[2], False
    if t.data.ndim == 4:
        return t.shape[2], t.shape[3], True
    raise ShapeError(f"expected (C,H,W) or (N,C,H,W), got {t.shape}")


# The affinity/aggregation contractions carry batch axes in both operands,
# which plain einsum cannot hand to BLAS; instead each map is transposed so
# the contraction becomes one batched matrix product.


def _to_hwc(x: np.ndarray, axis: str) -> np.ndarray:
    """(..., C, H, W) -> (..., J, S, C): J indexes the fixed coordinate
    (column for the height axis, row for width), S runs along the axis."""
    if axis == "height":
        return np.ascontiguousarray(np.moveaxis(x, (-3, -2, -1), (-1, -2, -3)))
    return np.ascontiguousarray(np.moveaxis(x, -3, -1))


def _from_hwc(x: np.ndarray, axis: str) -> np.ndarray:
    if axis == "height":
        return np.ascontiguousarray(np.moveaxis(x, (-1, -2, -3), (-3, -2, -1)))
    return np.ascontiguousarray(np.moveaxis(x, -1, -3))


def _swap_jsi(m: np.ndarray, axis: str) -> np.ndarray:
    """(..., H, W, span) <-> (..., J, S, span) matching :func:`_to_hwc`; a
    swap of the two spatial axes for the height axis, so its own inverse."""
    if axis == "height":
        return np.ascontiguousarray(np.swapaxes(m, -3, -2))
    return m


def affinity(q: Tensor, k: Tensor, axis: str) -> Tensor:
    """Dot products between each query fiber and the key fibers on its axis.

    For every spatial position j the channel fiber of ``q`` at j is dotted
    with the channel fiber of ``k`` at each position i sharing j's column
    (height axis) or row (width axis). Output is (..., H, W, span) with
    span = H or W respectively.
    """
    _check_axis(axis)
    if q.shape != k.shape:
        raise ShapeError(f"affinity operands differ: {q.shape} vs {k.shape}")
    _spatial(q)
    qt = _to_hwc(q.data, axis)            # (..., J, S, C)
    kt = _to_hwc(k.data, axis)
    data = _swap_jsi(qt @ np.swapaxes(kt, -1, -2), axis)

    def rule(g):
        gt = _swap_jsi(g, axis)           # (..., J, S, span)
        gq = _from_hwc(gt @ kt, axis) if q.requires_grad else None
        gk = _from_hwc(np.swapaxes(gt, -1, -2) @ qt, axis) if k.requires_grad else None
        return gq, gk

    return Tensor._result(data, (q, k), rule)


def aggregate(m: Tensor, v: Tensor, l: Tensor, axis: str) -> Tensor:
    """Weighted sum of axis-aligned value fibers plus the residual input.

    At every position j the value fibers at positions i on j's axis are
    combined with weights ``m[..., j, i]`` and the input fiber of ``l`` at
    j is added back, so zero weights leave ``l`` unchanged.
    """
    _check_axis(axis)
    if v.shape != l.shape:
        raise ShapeError(f"value/input maps differ: {v.shape} vs {l.shape}")
    h, w, _ = _spatial(v)
    span = h if axis == "height" else w
    expected = m.shape[:-3] + (h, w, span)
    if m.shape != expected:
        raise ShapeError(f"attention map shape {m.shape} does not match {expected}")
    vt = _to_hwc(v.data, axis)            # (..., J, span, C)
    mt = _swap_jsi(m.data, axis)          # (..., J, S, span)
    data = _from_hwc(mt @ vt, axis) + l.data

    def rule(g):
        gt = _to_hwc(g, axis)             # (..., J, S, C)
        gm = (_swap_jsi(gt @ np.swapaxes(vt, -1, -2), axis)
              if m.requires_grad else None)
        gv = (_from_hwc(np.swapaxes(mt, -1, -2) @ gt, axis)
              if v.requires_grad else None)
        gl = g if l.requires_grad else None
        return gm, gv, gl

    return Tensor._result(data, (m, v, l), rule)


def _project(x: Tensor, w: Tensor) -> Tensor:
    # 1x1 convolution, no bias: a pure channel mix at every position.
    zero_bias = Tensor(np.zeros(w.shape[0], dtype=w.dtype))
    return conv2d(x, w, zero_bias, padding="same")


def axial_pass(l: Tensor, params: AxialAttentionParams, axis: str) -> Tensor:
    """One attention pass along a single axis: project, weigh, aggregate."""
    q = _project(l, params.wq)
    k = _project(l, params.wk)
    v = _project(l, params.wv)
    weights = softmax(affinity(q, k, axis), axis=-1)  # over the span
    return aggregate(weights, v, l, axis)


def axial_attention(l: Tensor, height: AxialAttentionParams,
                    width: AxialAttentionParams) -> Tensor:
    """Height-axis pass followed by a width-axis pass on its output.

    The two passes hold separate projections. Because each pass adds its
    context onto the running map, zero value projections make the whole
    block the identity on ``l``.
    """
    return axial_pass(axial_pass(l, height, "height"), width, "width")


def pair_count(h: int, w: int, axis: str) -> int:
    """Number of (query, key) dot products one axial pass evaluates."""
    _check_axis(axis)
    span = h if axis == "height" else w
    return h * w * span
