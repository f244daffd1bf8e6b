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
from dataclasses import asdict, dataclass, field
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


class _ParamBuilder:
    """Registers parameters in a fixed order from one seeded rng."""

    def __init__(self, seed: int, dtype):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.stats: dict[str, RunningStats] = {}

    def linear(self, name: str, fan_in: int, fan_out: int):
        bound = 1.0 / np.sqrt(fan_in)
        w = self.rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(self.dtype)
        self.params[f"{name}.weight"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.bias"] = Tensor(np.zeros(fan_out, dtype=self.dtype),
                                             requires_grad=True)

    def conv(self, name: str, c_in: int, c_out: int, k: int):
        bound = 1.0 / np.sqrt(c_in * k * k)
        w = self.rng.uniform(-bound, bound, size=(c_out, c_in, k, k)).astype(self.dtype)
        self.params[f"{name}.kernel"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.bias"] = Tensor(np.zeros(c_out, dtype=self.dtype),
                                             requires_grad=True)

    def norm(self, name: str, features: int):
        self.params[f"{name}.gamma"] = Tensor(np.ones(features, dtype=self.dtype),
                                              requires_grad=True)
        self.params[f"{name}.beta"] = Tensor(np.zeros(features, dtype=self.dtype),
                                             requires_grad=True)
        self.stats[name] = RunningStats(features, dtype=self.dtype)

    def attention(self, name: str, channels: int, qk_channels: int):
        p = AxialAttentionParams.init(channels, qk_channels, seed=self.rng, dtype=self.dtype)
        for key in ("wq", "wk", "wv"):
            self.params[f"{name}.{key}"] = getattr(p, key)


class _NetworkBase:
    """Parameter-dict model with snapshotting and gradient bookkeeping."""

    params: dict[str, Tensor]
    stats: dict[str, RunningStats]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.values())

    def zero_grads(self):
        """Clear every parameter's gradient to ``None``; the next backward
        pass assigns it, so no zero buffer is allocated or added to."""
        for t in self.params.values():
            t.grad = None

    def snapshot(self, into: dict | None = None) -> dict:
        """Copy of the parameters and running statistics; with ``into``, an
        earlier snapshot of this model is overwritten instead of allocating."""
        if into is None:
            return {
                "params": {k: t.data.copy() for k, t in self.params.items()},
                "stats": {k: s.copy() for k, s in self.stats.items()},
            }
        for k, t in self.params.items():
            np.copyto(into["params"][k], t.data)
        for k, s in self.stats.items():
            np.copyto(into["stats"][k].mean, s.mean)
            np.copyto(into["stats"][k].var, s.var)
        return into

    def restore(self, snap: dict):
        for k, t in self.params.items():
            t.data = snap["params"][k].copy()
            t.grad = None
        for k, s in self.stats.items():
            saved = snap["stats"][k]
            s.mean = saved.mean.copy()
            s.var = saved.var.copy()

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

    input_keys = ("x",)
    model_type = "surrogate"
    spec_type = SurrogateSpec

    def __init__(self, spec: SurrogateSpec, seed: int, dtype=np.float32):
        self.spec = spec
        self.seed = int(seed)
        builder = _ParamBuilder(seed, dtype)
        fan_in = spec.input_size
        for i, width in enumerate(spec.hidden_sizes, start=1):
            builder.linear(f"fc{i}", fan_in, width)
            if spec.use_batch_norm:
                builder.norm(f"bn{i}", width)
            fan_in = width
        builder.linear("out", fan_in, spec.output_size)
        self.params = builder.params
        self.stats = builder.stats

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

    input_keys = ("np", "rv", "scalars")
    model_type = "lprmnet"
    spec_type = LprmNetSpec

    def __init__(self, spec: LprmNetSpec, seed: int, dtype=np.float32):
        self.spec = spec
        self.seed = int(seed)
        b = _ParamBuilder(seed, dtype)
        k = spec.kernel_size
        cc = spec.conv_channels
        for branch, c_in in (("np", spec.power_channels), ("rv", spec.rod_channels)):
            b.conv(f"{branch}1", c_in, cc, k)
            b.norm(f"{branch}1.bn", cc)
            b.conv(f"{branch}2", cc, cc, k)
            b.norm(f"{branch}2.bn", cc)
        b.attention("att.h", spec.stacked_channels, spec.attention_qk)
        b.attention("att.w", spec.stacked_channels, spec.attention_qk)
        b.linear("trunk1", spec.flat_size, spec.trunk_hidden)
        b.norm("trunk1.bn", spec.trunk_hidden)
        b.linear("trunk2", spec.trunk_hidden, spec.trunk_out)
        b.norm("trunk2.bn", spec.trunk_out)
        b.linear("scal1", spec.scalar_count, spec.scalar_hidden)
        b.norm("scal1.bn", spec.scalar_hidden)
        b.linear("scal2", spec.scalar_hidden, spec.scalar_out)
        b.norm("scal2.bn", spec.scalar_out)
        b.linear("reg1", spec.trunk_out + spec.scalar_out, spec.regression_hidden)
        b.norm("reg1.bn", spec.regression_hidden)
        b.linear("out", spec.regression_hidden, 1)
        self.params = b.params
        self.stats = b.stats

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


def _state_entries(model: _NetworkBase):
    for key, tensor in model.params.items():
        yield key, "param", tensor.data
    for key, stats in model.stats.items():
        yield f"{key}.running_mean", "buffer", stats.mean
        yield f"{key}.running_var", "buffer", stats.var


def save_checkpoint(model: _NetworkBase, path, training_meta: dict | None = None) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for key, kind, arr in _state_entries(model):
        flat = np.ascontiguousarray(arr, dtype="<f4")
        entries.append({"key": key, "kind": kind, "shape": list(arr.shape),
                        "offset": offset})
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


def load_checkpoint(path):
    """Rebuild a model from a checkpoint directory, bit-exactly."""
    path = Path(path)
    manifest = read_manifest(path, "virtlprm-checkpoint", CHECKPOINT_SCHEMA)
    try:
        network = _FAMILIES[manifest["model_type"]]
        spec = network.spec_type(**{k: v for k, v in manifest["spec"].items() if k != "kind"})
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"checkpoint {path} has no valid model type and spec: {err!r}") from None
    model = network(spec, seed=manifest["seed"])

    blob = path / "params.bin"
    raw = read_blob(blob)
    table = {}
    expected = 0
    for entry in manifest["entries"]:
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = int(entry["offset"])
        if start + count > raw.size:
            raise DataError(f"checkpoint blob too small for entry {entry['key']}")
        # a view into the blob; ``astype`` below makes each entry's one copy
        table[entry["key"]] = raw[start:start + count].reshape(shape)
        expected += count
    if blob.stat().st_size != raw.itemsize * expected:
        raise DataError(f"checkpoint blob is {blob.stat().st_size} bytes, its entries "
                        f"account for {raw.itemsize * expected}")

    for key, kind, arr in _state_entries(model):
        if key not in table:
            raise DataError(f"checkpoint missing entry {key}")
        if table[key].shape != arr.shape:
            raise DataError(f"checkpoint entry {key} has shape {table[key].shape}, "
                            f"expected {arr.shape}")
    for key, tensor in model.params.items():
        tensor.data = table[key].astype(np.float32)
    for key, stats in model.stats.items():
        stats.mean = table[f"{key}.running_mean"].astype(np.float32)
        stats.var = table[f"{key}.running_var"].astype(np.float32)
    model.training_meta = manifest.get("training", {})
    return model
