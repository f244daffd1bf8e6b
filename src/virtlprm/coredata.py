"""BWR core data model: detector geometry, derived rod features, frame
filtering and splitting, and the on-disk frame archive format.

A large BWR core is modeled on a 30x30 radial grid with 25 axial power
nodes and 24 axial rod nodes. 43 detector strings each hold four
detectors at axial levels A (lowest) through D; string positions are
mirror-symmetric across the main diagonal, with the unpaired strings
sitting on the diagonal itself.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

LEVELS = ("A", "B", "C", "D")
SETS = ("A", "B", "C")
DETECTORS_PER_STRING = 4

ARCHIVE_SCHEMA = 1
ARCHIVE_FIELDS = ("np", "rv", "rp", "nbd", "scalars", "readings")
CORE_STATE_FIELDS = ARCHIVE_FIELDS[:-1]  # read on first frame access
SCALAR_FIELDS = ("thermal_power", "core_inlet_subcooling", "core_flow")


class DataError(ValueError):
    """Invalid or inconsistent plant data (files, frames, or layouts)."""


class GeometryError(DataError):
    """A geometry layout violates the core symmetry contract."""


@dataclass(frozen=True, order=True)
class DetectorId:
    """One in-core detector: its string (1..43) and axial level (A..D)."""

    string_index: int
    level: str

    def __post_init__(self):
        if self.level not in LEVELS:
            raise DataError(f"unknown detector level {self.level!r}")
        if self.string_index < 1:
            raise DataError(f"string index must be positive, got {self.string_index}")

    @property
    def code(self) -> str:
        return f"{self.string_index}{self.level}"

    @classmethod
    def parse(cls, code: str) -> "DetectorId":
        code = code.strip().upper()
        if len(code) < 2 or code[-1] not in LEVELS or not code[:-1].isdigit():
            raise DataError(f"cannot parse detector code {code!r}")
        return cls(int(code[:-1]), code[-1])

    def __str__(self):
        return self.code


class CoreGeometry:
    """Detector string placement, symmetry-set assignment, and partner map.

    Strings in sets A and B mirror each other across the main diagonal of
    the radial grid; set C strings sit on the diagonal and have no partner.
    The canonical detector ordering is string-major, level-minor, which
    fixes the layout of every 172-wide reading vector in the package.
    """

    def __init__(self, grid: dict, strings: list[dict], reflection: str = "main-diagonal"):
        if reflection != "main-diagonal":
            raise GeometryError(f"unsupported reflection {reflection!r}")
        self.reflection = reflection
        try:
            self.h = int(grid["H"])
            self.w = int(grid["W"])
            self.d = int(grid["D"])
            self.dprime = int(grid["Dprime"])
        except KeyError as missing:
            raise GeometryError(f"grid spec missing {missing}") from None

        self._position: dict[int, tuple[int, int]] = {}
        self._set: dict[int, str] = {}
        for entry in strings:
            idx, row, col, set_name = (int(entry["index"]), int(entry["row"]),
                                       int(entry["col"]), str(entry["set"]))
            if idx in self._position:
                raise GeometryError(f"duplicate string index {idx}")
            if set_name not in SETS:
                raise GeometryError(f"string {idx} has unknown set {set_name!r}")
            if not (0 <= row < self.h and 0 <= col < self.w):
                raise GeometryError(f"string {idx} at ({row}, {col}) is outside the grid")
            self._position[idx] = (row, col)
            self._set[idx] = set_name

        self.string_indices = tuple(sorted(self._position))
        self._partner_string = self._build_partner_map()
        self._validate()
        self._detectors = tuple(DetectorId(s, lv) for s in self.string_indices for lv in LEVELS)
        self._detector_pos = {d: i for i, d in enumerate(self._detectors)}

    # -- construction helpers ------------------------------------------------

    def _build_partner_map(self) -> dict[int, int]:
        by_position = {pos: idx for idx, pos in self._position.items()}
        partner = {}
        for idx, (row, col) in self._position.items():
            mirrored = by_position.get((col, row))
            if self._set[idx] == "C":
                if mirrored != idx:
                    raise GeometryError(f"set-C string {idx} is not on the symmetry axis")
                continue
            if mirrored is None:
                raise GeometryError(f"string {idx} has no mirrored counterpart")
            if self._set[mirrored] == self._set[idx]:
                raise GeometryError(f"strings {idx} and {mirrored} mirror within one set")
            partner[idx] = mirrored
        return partner

    def _validate(self):
        counts = {name: sum(1 for s in self._set.values() if s == name) for name in SETS}
        if counts != {"A": 19, "B": 19, "C": 5}:
            raise GeometryError(f"set cardinalities must be A=19, B=19, C=5, got {counts}")
        for idx, mirrored in self._partner_string.items():
            if self._partner_string.get(mirrored) != idx:
                raise GeometryError(f"partner map is not an involution at string {idx}")
        positions = list(self._position.values())
        if len(set(positions)) != len(positions):
            raise GeometryError("two strings share one radial position")

    # -- queries ---------------------------------------------------------------

    @property
    def detectors(self) -> tuple[DetectorId, ...]:
        return self._detectors

    @property
    def detector_count(self) -> int:
        return len(self._detectors)

    def detector_index(self, d: DetectorId) -> int:
        try:
            return self._detector_pos[d]
        except KeyError:
            raise DataError(f"unknown detector {d.code}") from None

    def position_of(self, string_index: int) -> tuple[int, int]:
        try:
            return self._position[string_index]
        except KeyError:
            raise DataError(f"unknown string index {string_index}") from None

    def set_of(self, string_index: int) -> str:
        try:
            return self._set[string_index]
        except KeyError:
            raise DataError(f"unknown string index {string_index}") from None

    def set_of_detector(self, d: DetectorId) -> str:
        return self.set_of(d.string_index)

    def symmetry_partner(self, d: DetectorId) -> DetectorId | None:
        """Mirror partner of a detector; None for detectors on the axis."""
        if d not in self._detector_pos:
            raise DataError(f"unknown detector {d.code}")
        mirrored = self._partner_string.get(d.string_index)
        if mirrored is None:
            return None
        return DetectorId(mirrored, d.level)

    def detectors_in_set(self, set_name: str) -> tuple[DetectorId, ...]:
        if set_name not in SETS:
            raise DataError(f"unknown set {set_name!r}")
        return tuple(d for d in self._detectors if self._set[d.string_index] == set_name)

    def indices_for_set(self, set_name: str) -> np.ndarray:
        return np.array([self.detector_index(d) for d in self.detectors_in_set(set_name)],
                        dtype=np.intp)

    def level_indices(self) -> dict[str, np.ndarray]:
        """Detector vector indices grouped by axial level A..D."""
        return {lv: np.array([i for i, d in enumerate(self._detectors) if d.level == lv],
                             dtype=np.intp) for lv in LEVELS}

    def to_layout(self) -> dict:
        return {
            "grid": {"H": self.h, "W": self.w, "D": self.d, "Dprime": self.dprime},
            "reflection": self.reflection,
            "strings": [
                {"index": s, "row": self._position[s][0], "col": self._position[s][1],
                 "set": self._set[s]}
                for s in self.string_indices
            ],
        }


def geometry_from_layout(layout: dict) -> CoreGeometry:
    try:
        return CoreGeometry(layout["grid"], layout["strings"],
                            layout.get("reflection", "main-diagonal"))
    except KeyError as missing:
        raise GeometryError(f"layout missing field {missing}") from None


def load_geometry(path) -> CoreGeometry:
    with open(path, "r", encoding="utf-8") as fh:
        return geometry_from_layout(json.load(fh))


def default_geometry() -> CoreGeometry:
    """The shipped representative layout: 43 strings on a 30x30 grid."""
    text = resources.files("virtlprm").joinpath("data/default_layout.json").read_text()
    return geometry_from_layout(json.loads(text))


# ---------------------------------------------------------------------------
# statepoint containers


def _min_max(arr: np.ndarray) -> tuple:
    """The min and max of ``arr``; (0, 0) for an empty one."""
    return (arr.min(), arr.max()) if arr.size else (0.0, 0.0)


def _check_unit_range(name: str, lo, hi):
    """An array whose min is ``lo`` and max is ``hi`` lies within [0, 1]."""
    if lo < 0.0 or hi > 1.0:
        raise DataError(f"{name} must lie in [0, 1], got range [{lo:.4g}, {hi:.4g}]")


@dataclass
class RodInputs:
    """Raw control-blade inputs: radial insertion fractions plus per-node
    absorber depletion."""

    rod_pattern: np.ndarray
    nodal_blade_depletion: np.ndarray

    def __post_init__(self):
        self.rod_pattern = np.asarray(self.rod_pattern, dtype=np.float32)
        self.nodal_blade_depletion = np.asarray(self.nodal_blade_depletion, dtype=np.float32)
        if self.rod_pattern.ndim != 2 or self.nodal_blade_depletion.ndim != 3:
            raise DataError(f"rod inputs need (H,W) and (H,W,D') arrays, got "
                            f"{self.rod_pattern.shape} and {self.nodal_blade_depletion.shape}")
        _check_unit_range("rod pattern", *_min_max(self.rod_pattern))
        _check_unit_range("nodal blade depletion", *_min_max(self.nodal_blade_depletion))


@dataclass
class CoreState:
    """One statepoint: nodal power, the derived rod variable, and scalars."""

    nodal_power: np.ndarray
    rod_variable: np.ndarray
    thermal_power: float
    core_inlet_subcooling: float
    core_flow: float

    def __post_init__(self):
        self.nodal_power = np.asarray(self.nodal_power, dtype=np.float32)
        self.rod_variable = np.asarray(self.rod_variable, dtype=np.float32)
        if self.nodal_power.ndim != 3 or self.rod_variable.ndim != 3:
            raise DataError("core state needs (H,W,D) power and (H,W,D') rod arrays")
        if self.nodal_power.shape[:2] != self.rod_variable.shape[:2]:
            raise DataError(f"radial grids differ: {self.nodal_power.shape} vs "
                            f"{self.rod_variable.shape}")
        # one min and one max per array; a NaN or an infinity shows in them
        np_lo, np_hi = _min_max(self.nodal_power)
        rv_lo, rv_hi = _min_max(self.rod_variable)
        if not all(np.isfinite((np_lo, np_hi, rv_lo, rv_hi))):
            raise DataError("core state arrays hold non-finite values")
        if np_lo < 0.0:
            raise DataError("nodal power must be non-negative")
        _check_unit_range("rod variable", rv_lo, rv_hi)

    def scalars(self) -> np.ndarray:
        return np.array([self.thermal_power, self.core_inlet_subcooling, self.core_flow],
                        dtype=np.float32)


@dataclass
class LprmFrame:
    """A timestamped statepoint with its measured detector readings.

    ``readings`` is the canonical 172-wide vector; entries for bypassed
    detectors are stored as zero.
    """

    timestamp: int
    cycle_id: int
    state: CoreState
    readings: np.ndarray
    bypassed: frozenset = field(default_factory=frozenset)
    rod_inputs: RodInputs | None = None

    def __post_init__(self):
        self.readings = np.asarray(self.readings, dtype=np.float32)
        if self.readings.ndim != 1:
            raise DataError(f"readings must be a flat vector, got shape {self.readings.shape}")
        self.bypassed = frozenset(self.bypassed)

    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.readings)))

    def apply_bypass(self, geom: CoreGeometry) -> None:
        for d in self.bypassed:
            self.readings[geom.detector_index(d)] = 0.0


# ---------------------------------------------------------------------------
# derived features and data hygiene


def derive_rod_variable(rod_pattern: np.ndarray, nodal_blade_depletion: np.ndarray) -> np.ndarray:
    """Combine blade insertion with absorber depletion into the rod variable.

    Each radial insertion fraction is nodalized along the axial rod
    dimension: blades insert from the bottom, so the first round(f * D')
    axial entries become 1 (ties round up) and the rest 0. The nodalized
    array is then weighted by the fraction of absorber remaining at each
    node, 1 - depletion.
    """
    rp = np.asarray(rod_pattern, dtype=np.float32)
    nbd = np.asarray(nodal_blade_depletion, dtype=np.float32)
    if rp.ndim != 2 or nbd.ndim != 3 or nbd.shape[:2] != rp.shape:
        raise DataError(f"rod variable needs (H,W) and (H,W,D') inputs, got "
                        f"{rp.shape} and {nbd.shape}")
    _check_unit_range("rod pattern", *_min_max(rp))
    _check_unit_range("nodal blade depletion", *_min_max(nbd))
    dprime = nbd.shape[2]
    inserted = np.floor(rp * dprime + 0.5).astype(np.intp)
    nodalized = (np.arange(dprime)[None, None, :] < inserted[:, :, None])
    return ((1.0 - nbd) * nodalized).astype(np.float32)


def filter_transients(frames, rated_power: float = 1.0, median_ratio: float = 5.0):
    """Drop startup/shutdown statepoints and frames with invalid readings.

    Keeps frames at or above 90% of rated thermal power whose readings are
    finite, non-negative, and no larger than ``median_ratio`` times that
    detector's median within its cycle.
    """
    if rated_power <= 0:
        raise DataError(f"rated power must be positive, got {rated_power}")
    frames = list(frames)
    threshold = 0.9 * rated_power

    medians: dict[int, np.ndarray] = {}
    for cycle in {f.cycle_id for f in frames}:
        stack = np.stack([f.readings for f in frames if f.cycle_id == cycle])
        with np.errstate(invalid="ignore"):
            medians[cycle] = np.nanmedian(np.where(np.isfinite(stack), stack, np.nan), axis=0)

    kept = []
    for f in frames:
        if f.state.thermal_power < threshold:
            continue
        if not f.finite():
            continue
        if f.readings.min() < 0.0:
            continue
        med = medians[f.cycle_id]
        cap = np.where(np.isfinite(med) & (med > 0.0), median_ratio * med, np.inf)
        if np.any(f.readings > cap):
            continue
        kept.append(f)
    return kept


def split_surrogate(frames, seed: int):
    """Deterministic shuffled 70/20/10 train/validation/test partition."""
    frames = list(frames)
    n = len(frames)
    if n < 10:
        raise DataError(f"need at least 10 frames to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(0.7 * n)
    n_val = int(0.2 * n)
    train = [frames[i] for i in order[:n_train]]
    val = [frames[i] for i in order[n_train:n_train + n_val]]
    test = [frames[i] for i in order[n_train + n_val:]]
    return train, val, test


def split_holdout_cycle(frames, holdout_cycle: int, seed: int):
    """Train on every other cycle; split the held-out cycle 50/50 val/test,
    which needs at least 2 held-out frames."""
    frames = list(frames)
    holdout = [f for f in frames if f.cycle_id == holdout_cycle]
    train = [f for f in frames if f.cycle_id != holdout_cycle]
    if len(holdout) < 2:
        raise DataError(f"holdout cycle {holdout_cycle} has {len(holdout)} frame(s); "
                        f"a validation and a test split need at least 2")
    if not train:
        raise DataError("no frames outside the holdout cycle")
    order = np.random.default_rng(seed).permutation(len(holdout))
    half = len(holdout) // 2
    val = [holdout[i] for i in order[:half]]
    test = [holdout[i] for i in order[half:]]
    return train, val, test


def bypass_augment(inputs: np.ndarray, p: float, rng, mode: str = "per-detector") -> np.ndarray:
    """Randomly zero detector inputs, simulating bypassed instruments.

    ``per-detector`` zeroes each entry independently with probability ``p``;
    ``per-sample`` zeroes entire rows (all detectors of a sample) instead.
    """
    if not 0.0 <= p <= 1.0:
        raise DataError(f"probability must lie in [0, 1], got {p}")
    if mode not in ("per-detector", "per-sample"):
        raise DataError(f"unknown augmentation mode {mode!r}")
    x = np.asarray(inputs)
    if mode == "per-detector":
        mask = rng.random(x.shape) >= p
    else:
        row_shape = x.shape[:-1] + (1,) if x.ndim > 1 else (1,)
        mask = rng.random(row_shape) >= p
    return (x * mask).astype(x.dtype, copy=False)


# ---------------------------------------------------------------------------
# frame archive (manifest + flat little-endian float32 blobs)


def _frame_arrays(frame: LprmFrame) -> dict[str, np.ndarray]:
    if frame.rod_inputs is None:
        raise DataError("frames must carry rod inputs to be archived")
    return {
        "np": frame.state.nodal_power,
        "rv": frame.state.rod_variable,
        "rp": frame.rod_inputs.rod_pattern,
        "nbd": frame.rod_inputs.nodal_blade_depletion,
        "scalars": frame.state.scalars(),
        "readings": frame.readings,
    }


def save_archive(frames, path) -> None:
    """Write frames to a directory: manifest.json plus one flat f32le
    binary per field, frames concatenated in manifest order."""
    frames = list(frames)
    if not frames:
        raise DataError("cannot archive an empty frame sequence")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    shapes = {name: list(arr.shape) for name, arr in _frame_arrays(frames[0]).items()}
    buffers = {name: [] for name in ARCHIVE_FIELDS}
    records = []
    for f in frames:
        arrays = _frame_arrays(f)
        for name, arr in arrays.items():
            if list(arr.shape) != shapes[name]:
                raise DataError(f"frame at t={f.timestamp} has {name} shape {arr.shape}, "
                                f"expected {shapes[name]}")
            buffers[name].append(np.ascontiguousarray(arr, dtype="<f4"))
        records.append({
            "timestamp": int(f.timestamp),
            "cycle": int(f.cycle_id),
            "bypassed": sorted(d.code for d in f.bypassed),
        })

    manifest = {
        "format": "virtlprm-frames",
        "schema_version": ARCHIVE_SCHEMA,
        "dtype": "f32le",
        "frame_count": len(frames),
        "cycle_ids": sorted({f.cycle_id for f in frames}),
        "shapes": shapes,
        "scalar_fields": list(SCALAR_FIELDS),
        "frames": records,
    }
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in ARCHIVE_FIELDS:
        with open(path / f"{name}.bin", "wb") as fh:
            for arr in buffers[name]:
                fh.write(arr.tobytes())


# the keys each manifest format must hold beyond its format, schema and dtype
_MANIFEST_KEYS = {
    "virtlprm-frames": ("frame_count", "shapes", "frames"),
    "virtlprm-checkpoint": ("model_type", "spec", "seed", "entries"),
}


def read_manifest(directory, fmt: str, schema: int) -> dict:
    """The ``manifest.json`` of an archive or checkpoint directory; a missing,
    truncated or foreign one, or one without a key its format requires, is a
    ``DataError``."""
    path = Path(directory) / "manifest.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read {path}: {getattr(err, 'strerror', None) or err}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path} holds no JSON object")
    for key, want in (("format", fmt), ("schema_version", schema), ("dtype", "f32le")):
        if manifest.get(key) != want:
            raise DataError(f"{path}: {key} is {manifest.get(key)!r}, expected {want!r}")
    missing = [key for key in _MANIFEST_KEYS[fmt] if key not in manifest]
    if missing:
        raise DataError(f"{path} lacks required key(s) {', '.join(missing)}")
    return manifest


def read_blob(path) -> np.ndarray:
    """A flat little-endian float32 blob; a missing file is a ``DataError``."""
    try:
        return np.fromfile(path, dtype="<f4")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from None


def _read_field(path: Path, name: str, shape: tuple, count: int) -> np.ndarray:
    """One field's blob as a (count, *shape) array; a wrong size is a ``DataError``."""
    raw = read_blob(path / f"{name}.bin")
    expected = count * int(np.prod(shape))
    if raw.size != expected:
        raise DataError(f"{name}.bin holds {raw.size} values, expected {expected}")
    return raw.reshape((count,) + shape)


def _check_blob_size(path: Path, name: str, shape: tuple, count: int) -> None:
    """A field's blob exists at its declared size; nothing is read from it."""
    blob = path / f"{name}.bin"
    try:
        size = blob.stat().st_size
    except OSError as err:
        raise DataError(f"cannot read {blob}: {err.strerror or err}") from None
    expected = 4 * count * int(np.prod(shape))
    if size != expected:
        raise DataError(f"{name}.bin holds {size} bytes, expected {expected}")


class FrameArchive(Sequence):
    """The frames of an archive directory, as ``load_archive`` opens it.

    Three columns are read at open: ``readings``, the (N, 172) float32
    matrix, ``timestamps`` and ``bypassed`` (each frame's frozenset of
    ``DetectorId``). The first access to a frame reads and checks the
    core-state blobs, once for all frames; later accesses reuse those frames,
    whose ``readings`` are rows of the same matrix.
    """

    def __init__(self, path: Path, shapes: dict, readings: np.ndarray, timestamps: list,
                 cycles: list, bypassed: list):
        self.readings = readings
        self.timestamps = timestamps
        self.bypassed = bypassed
        self._cycles = cycles
        self._path = path
        self._shapes = shapes
        self._frames = None

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self):
        return iter(self._read())

    def _read(self) -> list[LprmFrame]:
        """Every frame; the first call reads the core-state blobs and checks each frame."""
        if self._frames is not None:
            return self._frames
        arrays = {name: _read_field(self._path, name, self._shapes[name], len(self))
                  for name in CORE_STATE_FIELDS}
        frames = []
        for i in range(len(self)):
            scalars = arrays["scalars"][i]
            state = CoreState(
                nodal_power=arrays["np"][i],
                rod_variable=arrays["rv"][i],
                thermal_power=float(scalars[0]),
                core_inlet_subcooling=float(scalars[1]),
                core_flow=float(scalars[2]),
            )
            rod = RodInputs(rod_pattern=arrays["rp"][i], nodal_blade_depletion=arrays["nbd"][i])
            frames.append(LprmFrame(
                timestamp=self.timestamps[i],
                cycle_id=self._cycles[i],
                state=state,
                readings=self.readings[i],
                bypassed=self.bypassed[i],
                rod_inputs=rod,
            ))
        self._frames = frames
        return frames


def load_archive(path) -> FrameArchive:
    """Open an archive directory; its frames read back bit-exactly.

    At open: the manifest, every blob's size (without reading it) and
    ``readings.bin``. On first frame access: the core-state blobs, with each
    frame's checks. A fault in either is a ``DataError``.
    """
    path = Path(path)
    manifest = read_manifest(path, "virtlprm-frames", ARCHIVE_SCHEMA)
    try:
        count = int(manifest["frame_count"])
        shapes = {name: tuple(int(s) for s in manifest["shapes"][name])
                  for name in ARCHIVE_FIELDS}
        records = manifest["frames"]
        timestamps = [int(rec["timestamp"]) for rec in records]
        cycles = [int(rec["cycle"]) for rec in records]
        bypassed = [frozenset(DetectorId.parse(c) for c in rec.get("bypassed", []))
                    for rec in records]
    except DataError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path / 'manifest.json'}: bad frame_count, shapes or frames: "
                        f"{err!r}") from None
    if len(timestamps) != count:
        raise DataError(f"{path / 'manifest.json'} lists {len(timestamps)} frames, "
                        f"frame_count is {count}")
    if len(shapes["readings"]) != 1:
        raise DataError(f"readings must be a flat vector, got shape {shapes['readings']}")
    for name in CORE_STATE_FIELDS:
        _check_blob_size(path, name, shapes[name], count)
    readings = _read_field(path, "readings", shapes["readings"], count)
    return FrameArchive(path, shapes, readings, timestamps, cycles, bypassed)
