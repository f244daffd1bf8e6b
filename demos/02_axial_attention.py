"""Axial attention on a feature map, pass by pass.

Shows the affinity -> softmax -> aggregation pipeline along one axis, the
residual-identity property when the value projection is zero, and why two
axial passes are so much cheaper than unrestricted self-attention.
"""

import numpy as np

from virtlprm import autodiff as ad
from virtlprm.attention import (
    AxialAttentionParams,
    affinity,
    aggregate,
    axial_attention,
    pair_count,
)
from virtlprm.autodiff import Tensor, grad_check

rng = np.random.default_rng(1)
channels, h, w = 4, 6, 6
feature_map = Tensor(rng.standard_normal((channels, h, w)).astype(np.float32))

height = AxialAttentionParams.init(channels, seed=1)
width = AxialAttentionParams.init(channels, seed=2)

# One height pass by hand: every position attends to its column.
q = ad.conv2d(feature_map, height.wq, Tensor(np.zeros(2, dtype=np.float32)), "same")
k = ad.conv2d(feature_map, height.wk, Tensor(np.zeros(2, dtype=np.float32)), "same")
v = ad.conv2d(feature_map, height.wv, Tensor(np.zeros(channels, dtype=np.float32)), "same")
scores = affinity(q, k, "height")
weights = ad.softmax(scores, axis=-1)  # over the column span
print("attention weights shape:", weights.shape, "(positions x column span)")
print("weight slices sum to:", np.round(weights.data.sum(axis=-1).ravel()[:5], 6), "...")
contextual = aggregate(weights, v, feature_map, "height")
print("aggregated map shape:", contextual.shape)

# The full block: a height pass, then a width pass on its output.
out = axial_attention(feature_map, height, width)
print("block output shape:", out.shape)

# Zero value projections turn the block into the identity, exactly: the
# aggregation only ever adds weighted values on top of its input.
height.wv.data[:] = 0.0
width.wv.data[:] = 0.0
identity = axial_attention(feature_map, height, width)
print("identity with zero value kernels:",
      bool(np.array_equal(identity.data, feature_map.data)))

# Cost: a height pass relates each position to its column only.
for grid in (8, 30):
    axial_pairs = pair_count(grid, grid, "height") + pair_count(grid, grid, "width")
    full_pairs = (grid * grid) ** 2
    print(f"{grid}x{grid} grid: axial {axial_pairs:,} pairs vs "
          f"full self-attention {full_pairs:,} ({full_pairs // axial_pairs}x more)")

# The block is differentiable end to end.
height = AxialAttentionParams.init(channels, seed=1)
err = grad_check(
    lambda t: ad.tsum(ad.mul(o := axial_attention(
        feature_map, AxialAttentionParams(t, height.wk, height.wv), width), o)),
    height.wq, step=3e-3, floor=1e-3)
print(f"gradient check through the block: {err:.2e}")
