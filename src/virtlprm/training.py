"""Optimization: AdamW with decoupled weight decay, a one-cycle learning
rate schedule, and a deterministic mini-batch training loop with
best-validation checkpointing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .coredata import DataError, bypass_augment


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


# The one recipe both model families train with. AdamW (Loshchilov & Hutter,
# arXiv:1711.05101): moment decay rates BETA1 and BETA2, and EPS added to the
# update's denominator. One-cycle schedule (Smith & Topin, arXiv:1708.07120):
# it starts at max_lr / DIV_START and ends at max_lr / DIV_FINAL.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
DIV_START = 25.0
DIV_FINAL = 1e4


@dataclass
class TrainConfig:
    """The settings of one training run.

    ``max_lr`` is the one-cycle peak (0.005 for the mirror-set surrogate
    models, 0.08 for the per-detector core-state models); weight decay is
    0.01. Epochs, batch size and the warmup fraction are engineering
    defaults. The optimizer and schedule constants are fixed above.
    """

    max_lr: float
    epochs: int = 50
    batch_size: int = 64
    seed: int = 0
    bypass_p: float = 0.0
    weight_decay: float = 0.01
    warmup_frac: float = 0.3

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("max_lr", "bypass_p", "weight_decay", "warmup_frac"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not (self.max_lr > 0 and self.weight_decay >= 0):
            raise ValueError(f"max_lr must be positive and weight_decay non-negative, got "
                             f"{self.max_lr} and {self.weight_decay}")
        for name in ("bypass_p", "warmup_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.epochs < 1 or self.batch_size < 2:
            raise ValueError("need at least 1 epoch and a batch size of at least 2")


# Elements per AdamW block. The block's slices of p, g, m, v and the scratch
# (128 KB each in float32) stay in a core's L2 cache across the update's
# passes; on a 2 MB-L2 Xeon, 32K-element blocks stepped a 59 M-element
# float32 parameter in about 330 ms, 16K-element ones in about 410 ms.
ADAMW_BLOCK = 1 << 15


class AdamWState:
    """Per-parameter first/second moment buffers plus the step counter."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.m = {k: np.zeros(p.shape, dtype=p.dtype) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape, dtype=p.dtype) for k, p in params.items()}
        self._scratch = {k: np.empty(min(p.size, ADAMW_BLOCK), dtype=p.dtype)
                         for k, p in params.items()}
        self.t = 0
        self.beta1 = BETA1
        self.beta2 = BETA2
        self.eps = EPS
        self.weight_decay = cfg.weight_decay
        self.lr = cfg.max_lr / DIV_START


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: AdamWState):
    """One decoupled-weight-decay update of every parameter, in place.

    Weight decay multiplies the parameter directly rather than entering the
    moment estimates, so decay with zero gradients shrinks weights by
    exactly (1 - lr * wd) per step.

    Every gradient is checked before any buffer changes: a missing gradient
    raises ``ValueError``, and a non-finite one raises ``DivergenceError``
    (its min or max is then NaN or infinite, which two reductions find
    without a temporary), so a failed step leaves parameters, moments and
    ``state.t`` untouched. The update then walks flat views of each
    parameter, its moments and its gradient in blocks of ``ADAMW_BLOCK``
    elements, running the whole in-place sequence on one block before the
    next, so each element crosses main memory once rather than once per
    pass. The arithmetic is elementwise and its order per element is fixed,
    so the result does not depend on the block size.
    """
    for key, g in grads.items():
        if g is None:
            raise ValueError(f"no gradient for parameter {key!r} at step {state.t + 1}")
        if not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise DivergenceError(f"non-finite gradient for parameter {key!r} "
                                  f"at step {state.t + 1}")
        if g.shape != params[key].data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter "
                             f"{key!r} shape {params[key].data.shape}")
        if not params[key].data.flags.c_contiguous:
            raise ValueError(f"parameter {key!r} is not C-contiguous, so it has "
                             "no flat view to update in place")
    state.t += 1
    t = state.t
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    keep1 = 1.0 - state.beta1
    keep2 = 1.0 - state.beta2
    inv_sqrt_bias2 = 1.0 / np.sqrt(bias2)
    step_scale = state.lr / bias1
    decay = 1.0 - state.lr * state.weight_decay
    for key, g in grads.items():
        p = params[key].data.reshape(-1)
        m = state.m[key].reshape(-1)
        v = state.v[key].reshape(-1)
        g = g.reshape(-1)
        scratch = state._scratch[key]
        for lo in range(0, p.size, ADAMW_BLOCK):
            hi = min(lo + ADAMW_BLOCK, p.size)
            pb, mb, vb, gb = p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi]
            s = scratch[:hi - lo]
            mb *= state.beta1
            np.multiply(gb, keep1, out=s)
            mb += s
            vb *= state.beta2
            np.multiply(gb, gb, out=s)
            s *= keep2
            vb += s
            # update = lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(vb, out=s)
            s *= inv_sqrt_bias2
            s += state.eps
            np.divide(mb, s, out=s)
            s *= step_scale
            if state.weight_decay:
                pb *= decay
            pb -= s
    return params, state


def one_cycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine ramp up to ``max_lr`` over the warmup fraction, then cosine
    anneal down; the peak is attained at exactly one step."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside schedule of {total_steps} steps")
    if total_steps == 1:
        return cfg.max_lr
    last = total_steps - 1
    warmup_steps = int(round(cfg.warmup_frac * last))
    warmup_steps = min(max(warmup_steps, 1), last)
    start = cfg.max_lr / DIV_START
    final = cfg.max_lr / DIV_FINAL
    if step == warmup_steps:
        return cfg.max_lr
    if step < warmup_steps:
        frac = step / warmup_steps
        lr = start + (cfg.max_lr - start) * 0.5 * (1.0 - np.cos(np.pi * frac))
    else:
        frac = (step - warmup_steps) / (last - warmup_steps)
        lr = final + (cfg.max_lr - final) * 0.5 * (1.0 + np.cos(np.pi * frac))
    return float(min(lr, cfg.max_lr))


@dataclass
class DataSplit:
    """Input/target arrays for training and validation. Inputs are keyed
    dicts so one loop serves both model families. A training split of fewer
    than 2 samples, or an empty validation split, is a ``DataError``."""

    train_inputs: dict
    train_targets: np.ndarray
    val_inputs: dict
    val_targets: np.ndarray

    def __post_init__(self):
        if len(self.train_targets) < 2:
            raise DataError(f"training split has {len(self.train_targets)} sample(s), "
                            "needs at least 2")
        if len(self.val_targets) < 1:
            raise DataError("validation split is empty")


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_val_loss: float = np.inf
    best_epoch: int = -1


def _take(inputs: dict, idx) -> dict:
    return {k: v[idx] for k, v in inputs.items()}


# Rows per eval-mode forward in ``batched_predict`` and every model predictor:
# bounds activations, and fixes the batches BLAS rounds each prediction in.
PREDICT_CHUNK = 256


def predict_batch(model, inputs: dict) -> np.ndarray:
    """One eval-mode forward of ``model`` as an array. Prediction takes no
    gradient, so it records no graph: each op's saved arrays die as it
    returns."""
    with ad.no_grad():
        return model.forward_batch(inputs, mode="eval").data


def batched_predict(model, inputs: dict) -> np.ndarray:
    """Eval-mode predictions over a whole input set, in memory-bounded chunks."""
    n = len(next(iter(inputs.values())))
    parts = []
    for lo in range(0, n, PREDICT_CHUNK):
        parts.append(predict_batch(model, {k: v[lo:lo + PREDICT_CHUNK]
                                           for k, v in inputs.items()}))
    return np.concatenate(parts, axis=0)


def validation_loss(model, inputs: dict, targets: np.ndarray) -> float:
    pred = batched_predict(model, inputs)
    return float(np.mean((pred - targets) ** 2))


def train(model, data: DataSplit, cfg: TrainConfig) -> TrainResult:
    """Mini-batch training with seeded shuffling and on-the-fly detector
    zeroing on the ``x`` input channel when ``bypass_p`` is set.

    Records per-epoch train/validation loss and the step learning rate,
    and leaves the model restored to its best-validation parameters. The
    whole run is a deterministic function of (data, cfg). Trailing
    single-sample batches are folded into the previous batch so batch
    statistics stay defined.
    """
    rng = np.random.default_rng(cfg.seed)
    n = len(data.train_targets)
    steps_per_epoch = max(1, int(np.ceil(n / cfg.batch_size)))
    if n % cfg.batch_size == 1 and steps_per_epoch > 1:
        steps_per_epoch -= 1  # fold the single leftover sample into the last batch
    total_steps = cfg.epochs * steps_per_epoch

    state = AdamWState(model.params, cfg)
    result = TrainResult()
    best_snapshot = model.snapshot()
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        seen = 0
        lr = state.lr
        for b in range(steps_per_epoch):
            lo = b * cfg.batch_size
            hi = n if b == steps_per_epoch - 1 else min(n, lo + cfg.batch_size)
            idx = perm[lo:hi]
            batch_inputs = _take(data.train_inputs, idx)
            if cfg.bypass_p > 0.0 and "x" in batch_inputs:
                batch_inputs["x"] = bypass_augment(batch_inputs["x"], cfg.bypass_p, rng)
            targets = Tensor(data.train_targets[idx])

            model.zero_grads()
            pred = model.forward_batch(batch_inputs, mode="train")
            loss = ad.mse_loss(pred, targets)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}, "
                                      f"batch {b}")
            loss.backward()
            lr = one_cycle_lr(step, total_steps, cfg)
            state.lr = lr
            adamw_step(model.params, {k: p.grad for k, p in model.params.items()}, state)
            step += 1
            epoch_loss += loss_value * len(idx)
            seen += len(idx)

        val_loss = validation_loss(model, data.val_inputs, data.val_targets)
        result.history.append({
            "epoch": epoch,
            "train_loss": epoch_loss / seen,
            "val_loss": val_loss,
            "lr": lr,
        })
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            model.snapshot(into=best_snapshot)

    model.restore(best_snapshot)
    return result


def history_to_csv(history: list[dict], path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "lr"])
        for row in history:
            writer.writerow([row["epoch"], repr(float(row["train_loss"])),
                             repr(float(row["val_loss"])), repr(float(row["lr"]))])

