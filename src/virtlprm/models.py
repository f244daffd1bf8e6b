"""Detector-prediction networks.

Two families built on the differentiation engine:

* ``SurrogateNet`` — a fully connected network predicting one detector
  set from another, contemporaneously. The paired variant maps the 76
  readings of one mirror set to the 76 of the other; the axis variant
  predicts a single unpaired detector from the 171 remaining readings.
* ``LprmNet`` — a per-detector model predicting one reading from the
  core state alone: two convolutional branches (nodal power and rod
  variable, depth as channels), an axial-attention block over their
  stacked feature map, a flattening trunk, a scalar branch, and a
  regression stack.

Hidden widths and branch sizes are engineering defaults exposed on the
spec dataclasses; they are pinned for reproducibility, not tuned.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .attention import AxialAttentionParams, axial_attention
from .autodiff import RunningStats, Tensor
from .coredata import CoreGeometry, CoreState, DataError, DetectorId, read_blob, read_manifest

CHECKPOINT_SCHEMA = 1


@dataclass(frozen=True)
class SurrogateSpec:
    """Fully connected architecture: six hidden layers, batch norm, GELU."""

    input_size: int
    output_size: int
    hidden_sizes: tuple = (256,) * 6
    use_batch_norm: bool = True

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if len(self.hidden_sizes) != 6:
            raise DataError(f"surrogate networks use exactly 6 hidden layers, "
                            f"got {len(self.hidden_sizes)}")
        if self.input_size < 1 or self.output_size < 1:
            raise DataError("input and output sizes must be positive")
        if any(h < 1 for h in self.hidden_sizes):
            raise DataError("hidden widths must be positive")


def paired_surrogate_spec(hidden: int = 256) -> SurrogateSpec:
    """Mirror-set model: 76 readings in, the 76 partner readings out."""
    return SurrogateSpec(input_size=76, output_size=76, hidden_sizes=(hidden,) * 6)


def axis_surrogate_spec(hidden: int = 512, detector_count: int = 172) -> SurrogateSpec:
    """Per-detector model for the symmetry axis: all other readings in, one out."""
    return SurrogateSpec(input_size=detector_count - 1, output_size=1,
                         hidden_sizes=(hidden,) * 6)


# A network's state entry. init: ("uniform", b) draws from [-b, b), ("constant", v) fills v.
# stat: None for a parameter, else the batch-norm layer and buffer, e.g. ("bn1", "mean").
_Entry = namedtuple("_Entry", "key shape init stat", defaults=(None,))


def _linear(name: str, fan_in: int, fan_out: int) -> list[_Entry]:
    return [_Entry(f"{name}.weight", (fan_in, fan_out), ("uniform", 1.0 / np.sqrt(fan_in))),
            _Entry(f"{name}.bias", (fan_out,), ("constant", 0.0))]


def _conv(name: str, c_in: int, c_out: int, k: int) -> list[_Entry]:
    return [_Entry(f"{name}.kernel", (c_out, c_in, k, k), ("uniform", 1.0 / np.sqrt(c_in * k * k))),
            _Entry(f"{name}.bias", (c_out,), ("constant", 0.0))]


def _norm(name: str, features: int, stats: list) -> list[_Entry]:
    """Scale and shift; the running statistics go to ``stats``, after every parameter."""
    stats += [_Entry(f"{name}.running_mean", (features,), ("constant", 0.0), (name, "mean")),
              _Entry(f"{name}.running_var", (features,), ("constant", 1.0), (name, "var"))]
    return [_Entry(f"{name}.gamma", (features,), ("constant", 1.0)),
            _Entry(f"{name}.beta", (features,), ("constant", 0.0))]


def _attention(name: str, channels: int, qk_channels: int) -> list[_Entry]:
    """The 1x1 projections of ``AxialAttentionParams.init``, in its draw order."""
    init = ("uniform", 1.0 / np.sqrt(channels))
    return [_Entry(f"{name}.{w}", (c_out, channels, 1, 1), init)
            for w, c_out in (("wq", qk_channels), ("wk", qk_channels), ("wv", channels))]


class _NetworkBase:
    """Model whose state entries, in checkpoint order, its ``layout(spec)``
    declares; ``params`` and ``stats`` hold them for the forward pass."""

    params: dict[str, Tensor]
    stats: dict[str, RunningStats]

    def __init__(self, spec, seed: int, dtype=np.float32):
        """Seeded initial state: one generator draws the uniform entries in order."""
        rng = np.random.default_rng(seed)
        draws = {key: rng.uniform(-x, x, size=shape) if how == "uniform" else np.full(shape, x)
                 for key, shape, (how, x), _ in self.layout(spec)}
        self._construct(spec, seed, draws, dtype)

    def _construct(self, spec, seed: int, table: dict, dtype=np.float32):
        """Copy each layout entry from ``table`` once, in ``dtype``: drawn or loaded."""
        self.spec = spec
        self.seed = int(seed)
        self.params, self.stats = {}, {}
        for e in self.layout(spec):
            if e.stat is None:
                self.params[e.key] = Tensor(table[e.key], requires_grad=True, dtype=dtype)
                continue
            norm, buffer = e.stat
            if norm not in self.stats:
                self.stats[norm] = RunningStats.__new__(RunningStats)
            setattr(self.stats[norm], buffer, np.array(table[e.key], dtype=dtype))

    def state(self) -> dict[str, np.ndarray]:
        """Every state entry's array (the model's own, not a copy) by key, in
        checkpoint order: the parameters, then the running statistics."""
        state = {k: t.data for k, t in self.params.items()}
        for name, s in self.stats.items():
            state.update({f"{name}.running_mean": s.mean, f"{name}.running_var": s.var})
        return state

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def zero_grads(self):
        """Clear every parameter's gradient to ``None``; the next backward
        pass assigns it, so no zero buffer is allocated or added to."""
        for t in self.params.values():
            t.grad = None

    def snapshot(self, into: dict | None = None) -> dict:
        """Copy of every state entry by key; with ``into``, an earlier
        snapshot of this model is overwritten instead of allocating."""
        if into is None:
            return {k: arr.copy() for k, arr in self.state().items()}
        for k, arr in self.state().items():
            np.copyto(into[k], arr)
        return into

    def restore(self, snap: dict):
        """Copy a snapshot back into the model's arrays; gradients are cleared."""
        for k, arr in self.state().items():
            np.copyto(arr, snap[k])
        self.zero_grads()

    def _norm_layer(self, name: str, x: Tensor, mode: str, conv: bool) -> Tensor:
        fn = ad.batch_norm2d if conv else ad.batch_norm
        return fn(x, self.params[f"{name}.gamma"], self.params[f"{name}.beta"],
                  self.stats[name], mode)

    def _linear(self, name: str, x: Tensor) -> Tensor:
        return ad.matmul(x, self.params[f"{name}.weight"]) + self.params[f"{name}.bias"]

    def _conv(self, name: str, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.params[f"{name}.kernel"], self.params[f"{name}.bias"],
                         padding="same")


class SurrogateNet(_NetworkBase):
    """Six batch-normalized GELU layers and a linear readout."""

    model_type = "surrogate"
    spec_type = SurrogateSpec

    @staticmethod
    def layout(spec: SurrogateSpec) -> list[_Entry]:
        """Every state entry, in checkpoint order."""
        entries, stats = [], []
        fan_in = spec.input_size
        for i, width in enumerate(spec.hidden_sizes, start=1):
            entries += _linear(f"fc{i}", fan_in, width)
            if spec.use_batch_norm:
                entries += _norm(f"bn{i}", width, stats)
            fan_in = width
        return entries + _linear("out", fan_in, spec.output_size) + stats

    def forward_batch(self, inputs: dict, mode: str = "eval") -> Tensor:
        x = inputs["x"]
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
        if h.data.ndim != 2 or h.shape[1] != self.spec.input_size:
            raise DataError(f"expected (N, {self.spec.input_size}) inputs, got {h.shape}")
        for i in range(1, len(self.spec.hidden_sizes) + 1):
            h = self._linear(f"fc{i}", h)
            if self.spec.use_batch_norm:
                h = self._norm_layer(f"bn{i}", h, mode, conv=False)
            h = ad.gelu(h)
        return self._linear("out", h)

    def forward(self, readings: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Predict from one reading vector or a batch of them."""
        arr = np.asarray(readings, dtype=np.float32)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        out = self.forward_batch({"x": arr}, mode=mode).data
        return out[0] if single else out


@dataclass(frozen=True)
class LprmNetSpec:
    """Convolution + axial-attention architecture for one detector."""

    grid: tuple = (30, 30)
    power_channels: int = 25
    rod_channels: int = 24
    scalar_count: int = 3
    conv_channels: int = 32
    kernel_size: int = 3
    qk_channels: int | None = None
    trunk_hidden: int = 512
    trunk_out: int = 128
    scalar_hidden: int = 32
    scalar_out: int = 32
    regression_hidden: int = 64

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        if self.kernel_size % 2 == 0:
            raise DataError("conv kernels must be odd for same-padding")

    @property
    def stacked_channels(self) -> int:
        return 2 * self.conv_channels

    @property
    def attention_qk(self) -> int:
        if self.qk_channels is not None:
            return self.qk_channels
        return max(1, self.stacked_channels // 2)

    @property
    def flat_size(self) -> int:
        h, w = self.grid
        return 2 * self.stacked_channels * h * w


class LprmNet(_NetworkBase):
    """Dual conv branches, axial attention, trunk, scalar branch, regression."""

    model_type = "lprmnet"
    spec_type = LprmNetSpec

    @staticmethod
    def layout(spec: LprmNetSpec) -> list[_Entry]:
        """Every state entry, in checkpoint order."""
        k, cc, qk = spec.kernel_size, spec.conv_channels, spec.attention_qk
        entries, stats = [], []
        for branch, c_in in (("np", spec.power_channels), ("rv", spec.rod_channels)):
            entries += _conv(f"{branch}1", c_in, cc, k) + _norm(f"{branch}1.bn", cc, stats)
            entries += _conv(f"{branch}2", cc, cc, k) + _norm(f"{branch}2.bn", cc, stats)
        entries += _attention("att.h", spec.stacked_channels, qk)
        entries += _attention("att.w", spec.stacked_channels, qk)
        for name, fan_in, fan_out in (
                ("trunk1", spec.flat_size, spec.trunk_hidden),
                ("trunk2", spec.trunk_hidden, spec.trunk_out),
                ("scal1", spec.scalar_count, spec.scalar_hidden),
                ("scal2", spec.scalar_hidden, spec.scalar_out),
                ("reg1", spec.trunk_out + spec.scalar_out, spec.regression_hidden)):
            entries += _linear(name, fan_in, fan_out) + _norm(f"{name}.bn", fan_out, stats)
        return entries + _linear("out", spec.regression_hidden, 1) + stats

    def _attention_params(self, name: str) -> AxialAttentionParams:
        return AxialAttentionParams(wq=self.params[f"{name}.wq"],
                                    wk=self.params[f"{name}.wk"],
                                    wv=self.params[f"{name}.wv"])

    def _branch(self, name: str, x: Tensor, mode: str) -> Tensor:
        h = ad.gelu(self._norm_layer(f"{name}1.bn", self._conv(f"{name}1", x), mode, conv=True))
        return ad.gelu(self._norm_layer(f"{name}2.bn", self._conv(f"{name}2", h), mode, conv=True))

    def forward_batch(self, inputs: dict, mode: str = "eval",
                      intermediates: dict | None = None) -> Tensor:
        np_in = inputs["np"] if isinstance(inputs["np"], Tensor) else Tensor(inputs["np"])
        rv_in = inputs["rv"] if isinstance(inputs["rv"], Tensor) else Tensor(inputs["rv"])
        sc_in = (inputs["scalars"] if isinstance(inputs["scalars"], Tensor)
                 else Tensor(inputs["scalars"]))
        h, w = self.spec.grid
        if np_in.shape[1:] != (self.spec.power_channels, h, w):
            raise DataError(f"nodal power batch must be (N, {self.spec.power_channels}, "
                            f"{h}, {w}), got {np_in.shape}")
        if rv_in.shape[1:] != (self.spec.rod_channels, h, w):
            raise DataError(f"rod variable batch must be (N, {self.spec.rod_channels}, "
                            f"{h}, {w}), got {rv_in.shape}")
        if sc_in.shape[1:] != (self.spec.scalar_count,):
            raise DataError(f"scalar batch must be (N, {self.spec.scalar_count}), "
                            f"got {sc_in.shape}")

        stacked = ad.concat([self._branch("np", np_in, mode),
                             self._branch("rv", rv_in, mode)], axis=1)
        attended = axial_attention(stacked, self._attention_params("att.h"),
                                   self._attention_params("att.w"))
        if intermediates is not None:
            intermediates["stacked"] = stacked
            intermediates["attended"] = attended
        merged = ad.concat([stacked, attended], axis=1)
        n = merged.shape[0]
        flat = ad.reshape(merged, (n, self.spec.flat_size))

        t = ad.gelu(self._norm_layer("trunk1.bn", self._linear("trunk1", flat), mode, False))
        t = ad.gelu(self._norm_layer("trunk2.bn", self._linear("trunk2", t), mode, False))
        s = ad.gelu(self._norm_layer("scal1.bn", self._linear("scal1", sc_in), mode, False))
        s = ad.gelu(self._norm_layer("scal2.bn", self._linear("scal2", s), mode, False))
        joined = ad.concat([t, s], axis=1)
        r = ad.gelu(self._norm_layer("reg1.bn", self._linear("reg1", joined), mode, False))
        return self._linear("out", r)

    def forward(self, state: CoreState, mode: str = "eval") -> float:
        """Predicted reading for one core state."""
        inputs = {k: v[None] for k, v in corestate_inputs(state).items()}
        return float(self.forward_batch(inputs, mode=mode).data[0, 0])


# ---------------------------------------------------------------------------
# dataset assembly


def corestate_inputs(state: CoreState) -> dict[str, np.ndarray]:
    """Channel-first arrays for one state: depth becomes the channel axis."""
    return {
        "np": np.ascontiguousarray(state.nodal_power.transpose(2, 0, 1)),
        "rv": np.ascontiguousarray(state.rod_variable.transpose(2, 0, 1)),
        "scalars": state.scalars(),
    }


def corestate_batch(frames) -> dict[str, np.ndarray]:
    frames = list(frames)
    return {
        "np": np.stack([f.state.nodal_power.transpose(2, 0, 1) for f in frames]),
        "rv": np.stack([f.state.rod_variable.transpose(2, 0, 1) for f in frames]),
        "scalars": np.stack([f.state.scalars() for f in frames]),
    }


def surrogate_arrays(frames, geom: CoreGeometry, input_set: str = "A"):
    """Reading matrices for a mirror-set model: inputs from one set,
    targets from its partner set, both in canonical set order."""
    if input_set not in ("A", "B"):
        raise DataError(f"input set must be 'A' or 'B', got {input_set!r}")
    output_set = "B" if input_set == "A" else "A"
    readings = np.stack([f.readings for f in frames])
    x = readings[:, geom.indices_for_set(input_set)]
    y = readings[:, geom.indices_for_set(output_set)]
    return x, y


def axis_detector_arrays(frames, geom: CoreGeometry, target: DetectorId):
    """Inputs (all other detectors) and target column for one axis detector."""
    if geom.set_of_detector(target) != "C":
        raise DataError(f"{target.code} is not on the symmetry axis")
    readings = np.stack([f.readings for f in frames])
    idx = geom.detector_index(target)
    x = np.delete(readings, idx, axis=1)
    y = readings[:, idx:idx + 1]
    return x, y


def lprmnet_arrays(frames, geom: CoreGeometry, target: DetectorId):
    """Core-state input dict and the target detector's reading column."""
    frames = list(frames)
    inputs = corestate_batch(frames)
    idx = geom.detector_index(target)
    y = np.stack([f.readings[idx:idx + 1] for f in frames])
    return inputs, y


def center_output_bias(model: _NetworkBase, targets: np.ndarray) -> None:
    """Start the readout at the target mean, so early optimization fits
    structure instead of the global offset."""
    model.params["out.bias"].data[:] = float(np.asarray(targets).mean())


# ---------------------------------------------------------------------------
# checkpoints: manifest.json + one flat little-endian float32 blob


def save_checkpoint(model: _NetworkBase, path, training_meta: dict | None = None) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for key, arr in model.state().items():
        flat = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"key": key, "kind": "param" if key in model.params else "buffer",
                        "shape": list(arr.shape), "offset": offset})
        offset += flat.size
        blobs.append(flat)
    manifest = {
        "format": "virtlprm-checkpoint",
        "schema_version": CHECKPOINT_SCHEMA,
        "dtype": "f32le",
        "model_type": model.model_type,
        "spec": {"kind": model.model_type, **asdict(model.spec)},
        "seed": model.seed,
        "training": training_meta or {},
        "entries": entries,
    }
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(path / "params.bin", "wb") as fh:
        for blob in blobs:
            fh.write(blob.tobytes())


# checkpoint families by ``model_type``; ``spec.kind`` restates it for readers
_FAMILIES = {net.model_type: net for net in (SurrogateNet, LprmNet)}


def _entry_fields(entry, path) -> tuple[str, tuple, int]:
    """An ``entries`` item's key, shape and offset; a malformed one is a ``DataError``."""
    try:
        key = str(entry["key"])
        shape = tuple(int(s) for s in entry["shape"])
        start = int(entry["offset"])
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"checkpoint {path}: bad entries item {entry!r}: {err!r}") from None
    if start < 0 or any(s < 0 for s in shape):
        raise DataError(f"checkpoint {path}: entry {key} has a negative shape or offset")
    return key, shape, start


def load_checkpoint(path):
    """Rebuild a model from a checkpoint directory, bit-exactly: each entry
    of its network's layout is read from the blob, checked and copied once;
    nothing is drawn."""
    path = Path(path)
    manifest = read_manifest(path, "virtlprm-checkpoint", CHECKPOINT_SCHEMA)
    try:
        network = _FAMILIES[manifest["model_type"]]
        spec = network.spec_type(**{k: v for k, v in manifest["spec"].items() if k != "kind"})
        seed = int(manifest["seed"])
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"checkpoint {path}: bad model type, spec or seed: {err!r}") from None

    blob = path / "params.bin"
    raw = read_blob(blob)
    table = {}
    expected = 0
    for entry in manifest["entries"]:
        key, shape, start = _entry_fields(entry, path)
        count = int(np.prod(shape)) if shape else 1
        if start + count > raw.size:
            raise DataError(f"checkpoint blob too small for entry {key}")
        # a view into the blob; the model's constructor makes each entry's one copy
        table[key] = raw[start:start + count].reshape(shape)
        expected += count
    if blob.stat().st_size != raw.itemsize * expected:
        raise DataError(f"checkpoint blob is {blob.stat().st_size} bytes, its entries "
                        f"account for {raw.itemsize * expected}")

    for e in network.layout(spec):
        arr = table.get(e.key)
        if arr is None:
            raise DataError(f"checkpoint missing entry {e.key}")
        if arr.shape != e.shape:
            raise DataError(f"checkpoint entry {e.key} has shape {arr.shape}, "
                            f"expected {e.shape}")
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):  # NaN or inf shows here
            raise DataError(f"checkpoint entry {e.key} holds non-finite values")
    model = network.__new__(network)
    model._construct(spec, seed, table)
    model.training_meta = manifest.get("training", {})
    return model
