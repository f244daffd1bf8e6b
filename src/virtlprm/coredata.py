"""BWR core data model: detector geometry, the columnar frame table,
derived rod features, frame filtering and splitting, and the on-disk frame
archive format.

A large BWR core is modeled on a 30x30 radial grid with 25 axial power
nodes and 24 axial rod nodes. 43 detector strings each hold four
detectors at axial levels A (lowest) through D; string positions are
mirror-symmetric across the main diagonal, with the unpaired strings
sitting on the diagonal itself.
"""

from __future__ import annotations

import contextlib
import copy
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

LEVELS = ("A", "B", "C", "D")
SETS = ("A", "B", "C")

ARCHIVE_SCHEMA = 1
ARCHIVE_FIELDS = ("np", "rv", "rp", "nbd", "scalars", "readings")
CORE_STATE_FIELDS = ARCHIVE_FIELDS[:-1]  # read on first use
SCALAR_FIELDS = ("thermal_power", "core_inlet_subcooling", "core_flow")

# The most core-state bytes one block of rows holds: every command reads,
# checks, predicts and generates core state one block at a time.
CORE_BLOCK_BYTES = 16 * 2 ** 20


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
        if len(code) < 2 or code[-1] not in LEVELS or not code[:-1].isdecimal():
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
        self._set_indices = {}  # built once: serving asks for them per predictor and block
        for name in SETS:
            idx = np.array([i for i, d in enumerate(self._detectors)
                            if self._set[d.string_index] == name], dtype=np.intp)
            idx.flags.writeable = False
            self._set_indices[name] = idx.view()  # a view of a locked array stays locked

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

    def axis_detector_index(self, d: DetectorId) -> int:
        """Vector index of a symmetry-axis (set C) detector; any other is a ``DataError``."""
        idx = self.detector_index(d)
        if self.set_of_detector(d) != "C":
            raise DataError(f"{d.code} is not on the symmetry axis")
        return idx

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
        """The set's detector vector indices in detector order, one shared
        read-only array per set."""
        if set_name not in SETS:
            raise DataError(f"unknown set {set_name!r}")
        return self._set_indices[set_name]

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
# the frame table


def _min_max(arr: np.ndarray) -> tuple:
    """The min and max of ``arr``; (0, 0) for an empty one."""
    return (arr.min(), arr.max()) if arr.size else (0.0, 0.0)


def _check_unit_range(name: str, lo, hi):
    """An array whose min is ``lo`` and max is ``hi`` lies within [0, 1]; a
    NaN min or max fails every comparison, so it is out of range too."""
    if not (0.0 <= lo and hi <= 1.0):
        raise DataError(f"{name} must lie in [0, 1], got range [{lo:.4g}, {hi:.4g}]")


# Each core-state field: its name in messages, its dimensions (frames first:
# (N, H, W, D), (N, H, W, D'), (N, H, W), (N, H, W, D'), (N, 3)), its valid
# range and that range in words. No range holds a NaN or an infinity.
_CORE_STATE = {
    "np": ("nodal power", 4, 0.0, np.inf, "must be finite and non-negative"),
    "rv": ("rod variable", 4, 0.0, 1.0, "must lie in [0, 1]"),
    "rp": ("rod pattern", 3, 0.0, 1.0, "must lie in [0, 1]"),
    "nbd": ("nodal blade depletion", 4, 0.0, 1.0, "must lie in [0, 1]"),
    "scalars": ("scalars", 2, -np.inf, np.inf, "must be finite"),
}


def block_rows(shapes) -> int:
    """How many rows of float32 fields, one per per-row shape in ``shapes``,
    fit in ``CORE_BLOCK_BYTES``; at least 1."""
    row_bytes = 4 * sum(int(np.prod(shape)) for shape in shapes)
    return max(1, CORE_BLOCK_BYTES // max(row_bytes, 1))


def _check_core_state(shapes: dict, read, timestamps: np.ndarray) -> None:
    """The five core-state fields of the frames stamped ``timestamps``, each
    of full shape ``shapes[name]`` and read as rows ``lo`` to ``hi`` by
    ``read(name, lo, hi)``, share their frame count and radial grid and lie
    in their ranges. A fault is a ``DataError`` naming the field and the
    timestamp of its first bad frame.

    Fields are checked in turn, each in the table's blocks of ``block_rows``
    frames; a block costs one min and one max, and only a failing one is
    searched frame by frame.
    """
    n = len(timestamps)
    grid = shapes["np"][1:3]
    step = block_rows(shape[1:] for shape in shapes.values())
    for name, (label, ndim, low, high, rule) in _CORE_STATE.items():
        shape = shapes[name]
        lead = (n,) + grid if ndim > 2 else (n, len(SCALAR_FIELDS))
        if len(shape) != ndim or shape[:len(lead)] != lead:
            raise DataError(f"core-state field {name!r} has shape {shape}, expected "
                            f"{ndim} dimensions starting {lead}")
        for start in range(0, n, step):
            block = read(name, start, start + step)
            lo, hi = _min_max(block)
            if low <= lo and hi <= high and np.isfinite(lo) and np.isfinite(hi):
                continue
            rows = block.reshape(len(block), -1)
            i = int(np.argmin(np.all(np.isfinite(rows) & (rows >= low) & (rows <= high),
                                     axis=1)))
            lo, hi = rows[i].min(), rows[i].max()
            got = (f"range [{lo:.4g}, {hi:.4g}]" if np.isfinite(lo) and np.isfinite(hi)
                   else "non-finite values")
            raise DataError(f"{label} {rule}, got {got} (field {name!r}, first in the frame "
                            f"at timestamp {timestamps[start + i]})")


class _ArrayColumns:
    """Core-state columns held in memory, by field name: their full
    ``shapes``, and ``read(name, lo, hi, out)``, a view of rows ``lo`` to
    ``hi``, or those rows copied into ``out`` if it is given."""

    def __init__(self, columns: dict):
        self.columns = columns
        self.shapes = {name: col.shape for name, col in columns.items()}

    def read(self, name: str, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return self.columns[name][lo:hi]
        out[...] = self.columns[name][lo:hi]
        return out


class FrameTable:
    """Frames as columns: row i of every column belongs to frame i.

    Held from construction: ``readings``, the (N, 172) float32 matrix
    (entries of bypassed detectors stored as zero), the (N,) int64
    ``timestamps`` and ``cycles``, and ``bypassed``, an (N,) object array of
    each frame's frozenset of ``DetectorId``.

    The core-state columns (``CORE_STATE_FIELDS``) come from ``core``: the
    five arrays by field name, checked here, or an archive's blobs, read
    only when asked for (how ``load_archive`` defers them). ``column(name)``
    returns a column of the table's rows; ``take(rows)`` selects rows and
    reads or copies no core state; ``blocks()`` cuts the table into
    sub-tables, with their row slices, that each hold at most
    ``CORE_BLOCK_BYTES`` of core state.
    """

    def __init__(self, readings, timestamps, cycles, core, bypassed=None):
        self.readings = np.asarray(readings, dtype=np.float32)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.cycles = np.asarray(cycles, dtype=np.int64)
        n = len(self.timestamps)
        self.bypassed = np.empty(n, dtype=object)
        self.bypassed[:] = [frozenset()] * n if bypassed is None else list(bypassed)
        if self.readings.ndim != 2 or len(self.readings) != n or len(self.cycles) != n:
            raise DataError(f"readings shaped {self.readings.shape} and {len(self.cycles)} "
                            f"cycle ids for {n} timestamps")
        if isinstance(core, dict):
            core = _ArrayColumns({name: np.asarray(core[name], dtype=np.float32)
                                  for name in CORE_STATE_FIELDS})
            _check_core_state(core.shapes, core.read, self.timestamps)
        self._core = core
        self._rows = None  # the rows of ``_core``'s columns, None for all

    def __len__(self) -> int:
        return len(self.timestamps)

    def column(self, name: str, channel_first: bool = False) -> np.ndarray:
        """The column of archive field ``name``, one row per frame. A
        core-state column is read once per run of consecutive rows, cut at
        every ``block_rows`` rows of the table; ``channel_first`` moves its
        last axis first, so (N, H, W, D) maps come back as C-contiguous
        (N, D, H, W) ones. A single run kept as read is returned as it is;
        otherwise the runs are read into one new array."""
        if name == "readings":
            return self.readings
        rows = np.arange(len(self)) if self._rows is None else self._rows
        step = block_rows(shape[1:] for shape in self._core.shapes.values())
        cuts = (np.diff(rows) != 1) | (np.arange(1, len(rows)) % step == 0)
        runs = np.split(rows, np.flatnonzero(cuts) + 1) if len(rows) else []
        if not channel_first and len(runs) == 1:
            return self._core.read(name, int(rows[0]), int(rows[-1]) + 1)
        shape = self._core.shapes[name][1:]
        out = np.empty((len(rows),) + (shape[-1:] + shape[:-1] if channel_first else shape),
                       dtype=np.float32)
        filled = 0
        for run in runs:
            lo, hi, part = int(run[0]), int(run[-1]) + 1, out[filled:filled + len(run)]
            if channel_first:
                part[...] = np.moveaxis(self._core.read(name, lo, hi), -1, 1)
            else:
                self._core.read(name, lo, hi, out=part)
            filled += len(run)
        return out

    def blocks(self, rows: int | None = None):
        """The table's frames in order, as consecutive sub-tables of ``rows``
        rows, by default ``block_rows`` of its core state (the last may be
        shorter), each with the slice of the table's rows it holds."""
        step = rows or block_rows(shape[1:] for shape in self._core.shapes.values())
        for lo in range(0, len(self), step):
            yield slice(lo, lo + step), self.take(slice(lo, lo + step))

    @property
    def thermal_power(self) -> np.ndarray:
        """Each frame's thermal power, the first of its scalars."""
        return self.column("scalars")[:, 0]

    def take(self, rows) -> "FrameTable":
        """The frames at ``rows`` (indices, a boolean mask or a slice), in that order."""
        rows = np.arange(len(self))[rows]
        out = copy.copy(self)
        out.readings, out.timestamps = self.readings[rows], self.timestamps[rows]
        out.cycles, out.bypassed = self.cycles[rows], self.bypassed[rows]
        out._rows = rows if self._rows is None else self._rows[rows]
        return out


# ---------------------------------------------------------------------------
# derived features and data hygiene


def derive_rod_variable(rod_pattern: np.ndarray, nodal_blade_depletion: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Combine blade insertion with absorber depletion into the rod variable.

    Each radial insertion fraction is nodalized along the axial rod
    dimension: blades insert from the bottom, so the first round(f * D')
    axial entries become 1 (ties round up) and the rest 0. The nodalized
    array is then weighted by the fraction of absorber remaining at each
    node, 1 - depletion. The inputs are (..., H, W) and (..., H, W, D'):
    leading frame axes, if any, are carried through. ``out``, if given, is
    a float32 array of the result's shape that receives it.
    """
    rp = np.asarray(rod_pattern, dtype=np.float32)
    nbd = np.asarray(nodal_blade_depletion, dtype=np.float32)
    if rp.ndim < 2 or nbd.ndim != rp.ndim + 1 or nbd.shape[:-1] != rp.shape:
        raise DataError(f"rod variable needs (H,W) and (H,W,D') inputs, got "
                        f"{rp.shape} and {nbd.shape}")
    _check_unit_range("rod pattern", *_min_max(rp))
    _check_unit_range("nodal blade depletion", *_min_max(nbd))
    dprime = nbd.shape[-1]
    inserted = np.floor(rp * dprime + 0.5).astype(np.intp)
    rv = np.subtract(1.0, nbd, out=out)
    rv *= np.arange(dprime) < inserted[..., None]  # nodalized
    return rv


# A reading above this multiple of its detector's median within the cycle is invalid.
MEDIAN_RATIO = 5.0


def filter_transients(table: FrameTable, rated_power: float = 1.0) -> FrameTable:
    """Drop startup/shutdown statepoints and frames with invalid readings.

    Keeps frames at or above 90% of rated thermal power whose readings are
    finite, non-negative, and no larger than ``MEDIAN_RATIO`` times that
    detector's median within its cycle; the medians include the frames
    that are dropped.
    """
    if rated_power <= 0:
        raise DataError(f"rated power must be positive, got {rated_power}")
    readings = table.readings
    over = np.zeros(len(table), dtype=bool)
    for cycle in np.unique(table.cycles):
        rows = np.flatnonzero(table.cycles == cycle)
        for j in range(readings.shape[1]):  # a detector at a time: no copy of the cycle
            col = readings[rows, j]
            finite = col[np.isfinite(col)]
            med = np.median(finite) if finite.size else np.float32(0.0)
            if med > 0.0:
                over[rows] |= col > MEDIAN_RATIO * med
    # thermal power is compared at its float32 precision, as the column holds it
    keep = ((table.thermal_power >= np.float32(0.9 * rated_power))
            & np.all(np.isfinite(readings), axis=1)
            & np.all(readings >= 0.0, axis=1) & ~over)
    return table.take(keep)


def split_surrogate(table: FrameTable, seed: int):
    """Deterministic shuffled 70/20/10 train/validation/test partition."""
    n = len(table)
    if n < 10:
        raise DataError(f"need at least 10 frames to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(0.7 * n)
    n_val = int(0.2 * n)
    return (table.take(order[:n_train]), table.take(order[n_train:n_train + n_val]),
            table.take(order[n_train + n_val:]))


def split_holdout_cycle(table: FrameTable, holdout_cycle: int, seed: int):
    """Train on every other cycle; split the held-out cycle 50/50 val/test,
    which needs at least 2 held-out frames."""
    held = table.cycles == holdout_cycle
    holdout = np.flatnonzero(held)
    if len(holdout) < 2:
        raise DataError(f"holdout cycle {holdout_cycle} has {len(holdout)} frame(s); "
                        f"a validation and a test split need at least 2")
    if held.all():
        raise DataError("no frames outside the holdout cycle")
    order = np.random.default_rng(seed).permutation(len(holdout))
    half = len(holdout) // 2
    return (table.take(~held), table.take(holdout[order[:half]]),
            table.take(holdout[order[half:]]))


def bypass_augment(inputs: np.ndarray, p: float, rng) -> np.ndarray:
    """Randomly zero detector inputs, simulating bypassed instruments: each
    entry independently with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise DataError(f"probability must lie in [0, 1], got {p}")
    x = np.asarray(inputs)
    mask = rng.random(x.shape) >= p
    return (x * mask).astype(x.dtype, copy=False)


# ---------------------------------------------------------------------------
# frame archive (manifest + flat little-endian float32 blobs)


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, a 2-space indent and a trailing
    newline: the one format of every manifest and JSON report."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_archive(frames, path) -> None:
    """Write frames to a directory: manifest.json plus one flat f32le binary
    per field. ``frames`` is a frame table, or an iterable of frame tables
    that are consecutive blocks of one; each block is appended to every
    blob in turn, and a table is written one block at a time."""
    if isinstance(frames, FrameTable):
        if not len(frames):
            raise DataError("cannot archive an empty frame table")
        frames = (block for _, block in frames.blocks())
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    shapes, records = {}, []
    with contextlib.ExitStack() as stack:
        blobs = {}
        for name in ARCHIVE_FIELDS:
            # an old blob is removed, not truncated: on a 2-core Xeon VM,
            # truncating blobs written in blocks cost a 500-frame `gen` 85 ms,
            # removing them 6 ms
            (path / f"{name}.bin").unlink(missing_ok=True)
            blobs[name] = stack.enter_context(open(path / f"{name}.bin", "wb"))
        for block in frames:
            for name, blob in blobs.items():
                col = np.ascontiguousarray(block.column(name), dtype="<f4")
                shapes[name] = list(col.shape[1:])
                col.tofile(blob)
            records += [{"timestamp": stamp, "cycle": cycle,
                         "bypassed": sorted(d.code for d in marked)}
                        for stamp, cycle, marked in zip(block.timestamps.tolist(),
                                                        block.cycles.tolist(), block.bypassed)]
    write_json(path / "manifest.json", {
        "format": "virtlprm-frames",
        "schema_version": ARCHIVE_SCHEMA,
        "dtype": "f32le",
        "frame_count": len(records),
        "cycle_ids": sorted({rec["cycle"] for rec in records}),
        "shapes": shapes,
        "scalar_fields": list(SCALAR_FIELDS),
        "frames": records,
    })


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


def read_blob(path, out: np.ndarray, offset: int = 0) -> np.ndarray:
    """``out``, a ``"<f4"`` array, filled straight from a flat little-endian
    float32 blob, from value ``offset`` on; a missing file, or one too short
    to fill ``out``, is a ``DataError``."""
    try:
        with open(path, "rb") as fh:
            fh.seek(4 * offset)
            if fh.readinto(out) == out.nbytes:
                return out
    except OSError as err:
        raise DataError(f"cannot read {path}: {err.strerror or err}") from None
    raise DataError(f"{path} holds fewer than {offset + out.size} values")


def check_blob_size(blob: Path, values: int) -> None:
    """A flat float32 blob exists and holds exactly ``values`` values;
    nothing is read from it."""
    try:
        size = blob.stat().st_size
    except OSError as err:
        raise DataError(f"cannot read {blob}: {err.strerror or err}") from None
    if size != 4 * values:
        raise DataError(f"{blob.name} holds {size} bytes, expected {4 * values}")


class _ArchiveColumns:
    """The core-state blobs of the archive at ``path``: their full ``shapes``,
    and ``read(name, lo, hi, out)``, one ``read_blob`` of rows ``lo`` to ``hi``
    into ``out``, or into a new array if it is not given.
    The first read checks all five blobs over every frame, one block at a
    time; a failed check is made again by the next read."""

    def __init__(self, path: Path, shapes: dict, timestamps: np.ndarray):
        self.path, self.timestamps, self.checked = path, timestamps, False
        self.shapes = {name: (len(timestamps),) + shapes[name] for name in CORE_STATE_FIELDS}

    def read(self, name: str, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        if not self.checked:
            _check_core_state(self.shapes, self._read, self.timestamps)
            self.checked = True
        return self._read(name, lo, hi, out)

    def _read(self, name: str, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        shape = self.shapes[name]
        if out is None:
            out = np.empty((min(hi, shape[0]) - lo,) + shape[1:], dtype="<f4")
        return read_blob(self.path / f"{name}.bin", out, lo * int(np.prod(shape[1:])))


def load_archive(path) -> FrameTable:
    """Open an archive directory as a frame table; it reads back bit-exactly.

    At open: the manifest, every blob's size (without reading it) and
    ``readings.bin``. On the first use of a core-state column: all five
    core-state blobs, checked block by block. After that, only the rows a
    column asks for are read. A fault in either is a ``DataError``.
    """
    path = Path(path)
    manifest = read_manifest(path, "virtlprm-frames", ARCHIVE_SCHEMA)
    try:
        count = int(manifest["frame_count"])
        shapes = {name: tuple(int(s) for s in manifest["shapes"][name])
                  for name in ARCHIVE_FIELDS}
        records = manifest["frames"]
        timestamps = np.array([int(rec["timestamp"]) for rec in records], dtype=np.int64)
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
    for name in ARCHIVE_FIELDS:
        check_blob_size(path / f"{name}.bin", count * int(np.prod(shapes[name])))
    readings = read_blob(path / "readings.bin",
                         np.empty((count,) + shapes["readings"], dtype="<f4"))
    return FrameTable(readings, timestamps, cycles, _ArchiveColumns(path, shapes, timestamps),
                      bypassed)
