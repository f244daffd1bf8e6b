"""Physics-lite synthetic plant data: smooth statepoint evolution over a
fuel cycle plus an analytic detector-response oracle.

The oracle makes no neutronics-fidelity claim; it is deliberately simple
(kernel-weighted nodal power, scaled by thermal power and shadowed by the
local rod variable) so that an independent brute-force check is feasible
and trained models have learnable signal. The generator is a pure
function of (scenario, geometry): every frame is derived from closed-form
fields plus per-frame seeded rng streams, so frames can be produced in
any order or in parallel. ``_fill_cycle`` builds a range of them at a
time, with column operations that give each frame the bits it would get
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .coredata import CoreGeometry, DataError, FrameTable, block_rows, derive_rod_variable

# Axial power node sampled by each detector level (levels sit 6 nodes apart,
# the lowest near the bottom of the active fuel).
LEVEL_AXIAL_NODE = {"A": 2, "B": 8, "C": 14, "D": 20}

KERNEL_SIGMA = 1.0       # radial response kernel width, grid cells
ROD_SHADOW = 0.3         # reading attenuation per unit of local rod variable
NP_ROD_SUPPRESSION = 0.5  # nodal-power depression per unit of rod variable
DIP_PROBABILITY = 0.004   # chance per frame of a sub-90%-power excursion

# The 3x3 window in its one summation order: the centre, the two diagonal
# corners, then three mirror pairs. Each pair is summed before it joins the
# total, so diagonal-symmetric states yield bitwise-equal partner readings.
_WINDOW = ((0, 0), (-1, -1), (1, 1), (-1, 0), (0, -1), (-1, 1), (1, -1), (0, 1), (1, 0))


@dataclass(frozen=True)
class PlantScenario:
    """Knobs for one synthetic fuel cycle."""

    cycle_id: int
    frame_count: int
    seed: int
    symmetry_fidelity: float = 1.0
    noise_sigma: float = 0.0
    drift_rate: float = 0.0
    drift_detectors: frozenset | None = None  # None means every detector drifts

    def __post_init__(self):
        if self.frame_count < 1:
            raise DataError(f"frame_count must be >= 1, got {self.frame_count}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise DataError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.drift_rate < 1.0:
            raise DataError(f"drift_rate must lie in [0, 1), got {self.drift_rate}")
        if not 0.0 <= self.symmetry_fidelity <= 1.0:
            raise DataError(f"symmetry_fidelity must lie in [0, 1], got "
                            f"{self.symmetry_fidelity}")


# ---------------------------------------------------------------------------
# detector response oracle


def _window_sum(s: np.ndarray) -> np.ndarray:
    """Sum the last axis of ``s`` in ``_WINDOW`` order, each mirror pair
    (slots 3-4, 5-6 and 7-8) first."""
    return (s[..., 0] + s[..., 1] + s[..., 2] + (s[..., 3] + s[..., 4])
            + (s[..., 5] + s[..., 6]) + (s[..., 7] + s[..., 8]))


def oracle_readings(np_stack: np.ndarray, rv_stack: np.ndarray,
                    thermal_power: np.ndarray, geom: CoreGeometry) -> np.ndarray:
    """Vectorized oracle over stacked frames.

    ``np_stack`` is (N, H, W, D), ``rv_stack`` (N, H, W, D'), and
    ``thermal_power`` (N,). Each detector reads the kernel-weighted nodal
    power in its 3x3 radial neighborhood at its axial node, scaled by
    thermal power and attenuated by the mean local rod variable. Window
    cells outside the grid are left out: their weights are 0.
    """
    offsets = np.array(_WINDOW)
    position = np.array([geom.position_of(d.string_index) for d in geom.detectors])
    rows = position[:, :1] + offsets[:, 0]  # (detectors, 9)
    cols = position[:, 1:] + offsets[:, 1]
    inside = ((rows >= 0) & (rows < geom.h) & (cols >= 0) & (cols < geom.w)).astype(np.float32)
    kernel = np.exp(-(offsets ** 2).sum(axis=1) / (2.0 * KERNEL_SIGMA ** 2)).astype(np.float32)
    weights = kernel * inside
    z = np.array([[LEVEL_AXIAL_NODE[d.level]] for d in geom.detectors])
    zr = np.minimum(z, rv_stack.shape[3] - 1)
    rows, cols = np.clip(rows, 0, geom.h - 1), np.clip(cols, 0, geom.w - 1)

    # each gather is (N, detectors, 9)
    local_power = _window_sum(weights * np_stack[:, rows, cols, z]) / _window_sum(weights)
    local_rod = _window_sum(inside * rv_stack[:, rows, cols, zr]) / _window_sum(inside)
    attenuation = np.float32(1.0) - np.float32(ROD_SHADOW) * local_rod
    return (thermal_power[:, None] * local_power * attenuation).astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# cycle generator


def _symmetrize(arr: np.ndarray, fidelity: float, axis: int = 0) -> np.ndarray:
    """Blend a field toward its reflection in axes ``axis`` and ``axis + 1``;
    fidelity 1 is exact."""
    mirrored = 0.5 * (arr + np.swapaxes(arr, axis, axis + 1))
    if fidelity >= 1.0:
        return mirrored
    return fidelity * mirrored + (1.0 - fidelity) * arr


class _CycleModel:
    """Random structure behind one cycle's frames.

    Plant-level features (where the control-blade footprints sit, which
    radial modes the power shape can excite) are drawn from the scenario
    seed alone, so every cycle of one plant shares them; how those features
    move over time is drawn per cycle. Held-out cycles therefore present
    new trajectories over familiar structure rather than a different plant.
    """

    def __init__(self, scenario: PlantScenario, geom: CoreGeometry):
        self.scenario = scenario
        self.geom = geom
        plant_rng = np.random.default_rng([scenario.seed])
        rng = np.random.default_rng([scenario.seed, scenario.cycle_id])
        fid = scenario.symmetry_fidelity
        h, w, d, dp = geom.h, geom.w, geom.d, geom.dprime

        rows = np.arange(h)[:, None]
        cols = np.arange(w)[None, :]

        # Control-blade bumps: fixed gaussian footprints whose strengths
        # swing sinusoidally over the cycle.
        self.rod_fields = []
        for _ in range(6):
            cr, cc = plant_rng.uniform(4, h - 5, size=2)
            width = plant_rng.uniform(2.0, 4.0)
            footprint = np.exp(-((rows - cr) ** 2 + (cols - cc) ** 2) / (2 * width ** 2))
            self.rod_fields.append({
                "footprint": _symmetrize(footprint, fid).astype(np.float64),
                "amp": rng.uniform(0.4, 1.0),
                "freq": rng.uniform(0.5, 2.5),
                "phase": rng.uniform(0, 2 * np.pi),
            })

        # Radial power perturbation modes on top of a center-peaked base.
        # Several independent harmonics keep the power field high-rank, the
        # way real flux distributions are; a single dominant mode would let
        # any detector be read off distant regions of the core.
        center = (h - 1) / 2.0
        dist = np.sqrt((rows - center) ** 2 + (cols - center) ** 2)
        self.base_radial = 0.55 + 0.45 * np.cos(np.pi * np.minimum(dist / center, 1.0))
        self.power_modes = []
        for _ in range(7):
            kr, kc = plant_rng.integers(1, 5, size=2)
            phase = plant_rng.uniform(0, 2 * np.pi)
            mode = np.sin(2 * np.pi * (kr * rows / h + kc * cols / w) + phase)
            self.power_modes.append({
                "field": _symmetrize(mode, fid),
                "amp": rng.uniform(0.06, 0.16),
                "freq": rng.uniform(0.5, 2.5),
                "phase": rng.uniform(0, 2 * np.pi),
            })
        self.fluct_sigma = 0.03  # per-frame smooth radial fluctuation, relative

        # Blade depletion: a smooth starting field plus a non-negative
        # accumulation rate, stronger near the rod footprints and the
        # bottom. Both spatial patterns are plant-level (absorber wears
        # where blades park, cycle after cycle); each cycle only scales
        # the accumulation and advances along it.
        start = gaussian_filter(plant_rng.random((h, w, dp)), sigma=(3, 3, 4))
        start = 0.10 * (start - start.min()) / max(np.ptp(start), 1e-9)
        exposure = sum(f["footprint"] for f in self.rod_fields)
        exposure = exposure / max(exposure.max(), 1e-9)
        taper = 1.0 - 0.5 * np.arange(dp) / dp
        pattern = (0.4 + 0.6 * exposure)[:, :, None] * taper[None, None, :]
        carry = 0.06 * min(max(scenario.cycle_id - 1, 0), 8)
        self.nbd_start = _symmetrize(np.clip(start + carry * pattern, 0.0, 0.6), fid)
        rate_scale = rng.uniform(0.25, 0.45)
        self.nbd_rate = rate_scale * pattern

        # Axial shape and scalar trends.
        self.axial_base = np.sin(np.pi * (np.arange(d) + 0.5) / d) ** 0.8
        self.axial_swing = {"freq": rng.uniform(0.8, 1.6), "phase": rng.uniform(0, 2 * np.pi)}
        self.power_trend = {"freq": rng.uniform(0.8, 2.2), "phase": rng.uniform(0, 2 * np.pi)}
        self.subcool_trend = {"freq": rng.uniform(0.5, 1.5), "phase": rng.uniform(0, 2 * np.pi)}
        self.flow_trend = {"freq": rng.uniform(0.5, 1.5), "phase": rng.uniform(0, 2 * np.pi)}

        counts = geom.detector_count
        if scenario.drift_detectors is None:
            self.drift_mask = np.ones(counts, dtype=bool)
        else:
            self.drift_mask = np.zeros(counts, dtype=bool)
            for det in scenario.drift_detectors:
                self.drift_mask[geom.detector_index(det)] = True

    # Each method below takes a vector ``u`` of k cycle fractions and writes
    # k frames into the float32 array ``out``, which it returns; each frame
    # gets the bits it would get alone. (H, W) stacks are computed for all k
    # frames at once, each float64 (H, W, D) one a frame at a time.

    def rod_pattern(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(k, H, W) blade insertion fractions."""
        total = np.zeros((len(u), self.geom.h, self.geom.w))
        for f in self.rod_fields:
            strength = f["amp"] * (0.5 + 0.5 * np.sin(2 * np.pi * f["freq"] * u + f["phase"]))
            total += strength[:, None, None] * f["footprint"]
        return np.clip(total, 0.0, 1.0, out=out)

    def blade_depletion(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(k, H, W, D') nodal blade depletion."""
        for x, frame in zip(u, out):
            nbd = x * self.nbd_rate
            nbd += self.nbd_start
            np.clip(nbd, 0.0, 0.95, out=frame)
        return out

    def nodal_power(self, u: np.ndarray, rod_variable: np.ndarray, noise: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
        """(k, H, W, D) nodal power of mean 1 per frame, depressed by the
        (k, H, W, D') ``rod_variable`` and rippled by each frame's (H, W)
        standard-normal ``noise``, smoothed."""
        radial = self.base_radial
        for m in self.power_modes:
            mode = (m["amp"] * np.sin(2 * np.pi * m["freq"] * u + m["phase"]))[:, None, None] \
                * m["field"]
            mode += 1.0
            radial = radial * mode
        ripple = gaussian_filter(noise, sigma=(0, 2.5, 2.5))  # each frame on its own
        ripple /= np.maximum(ripple.std(axis=(1, 2)), 1e-9)[:, None, None]
        ripple = self.fluct_sigma * _symmetrize(ripple, self.scenario.symmetry_fidelity, axis=1)
        ripple += 1.0
        radial *= ripple
        np.clip(radial, 0.05, None, out=radial)
        skew = 0.5 * np.sin(2 * np.pi * self.axial_swing["freq"] * u + self.axial_swing["phase"])
        d = self.geom.d
        axial = self.axial_base * (1.0 + skew[:, None] * ((np.arange(d) + 0.5) / d - 0.5))
        np.clip(axial, 0.02, None, out=axial)
        # the float32 suppression, built in ``out``; the indices are in range,
        # and "clip" spares ``take`` the copy of ``out`` that "raise" makes
        np.take(rod_variable, np.minimum(np.arange(d), self.geom.dprime - 1), axis=-1,
                out=out, mode="clip")
        out *= NP_ROD_SUPPRESSION
        np.subtract(1.0, out, out=out)
        for r, a, frame in zip(radial, axial, out):
            raw = r[:, :, None] * a
            raw *= frame
            np.divide(raw, raw.mean(), out=frame)
        return out


def generate_cycle(scenario: PlantScenario, geom: CoreGeometry) -> FrameTable:
    """Produce one cycle of frames: smooth rod moves, monotonically
    accumulating depletion, evolving power shapes, occasional sub-90%-power
    dips, and oracle readings with measurement noise and sensitivity drift."""
    return generate_plant([scenario], geom)


def generate_plant(scenarios, geom: CoreGeometry) -> FrameTable:
    """The frames of several cycles, in the given order, generated straight
    into the rows of one frame table."""
    scenarios = list(scenarios)
    return next(plant_blocks(scenarios, geom, sum(s.frame_count for s in scenarios)))


def plant_blocks(scenarios, geom: CoreGeometry, rows: int | None = None):
    """The frames of several cycles, in the given order, as consecutive frame
    tables of ``rows`` rows, by default ``coredata.block_rows`` of their core
    state (the last may be shorter; a block may span cycles). Each cycle's
    frames come from one ``_CycleModel``, in ranges of at most ``block_rows``
    frames, into the buffers of the block before: a block is valid until the
    next is asked for."""
    scenarios = list(scenarios)
    h, w = geom.h, geom.w
    shapes = {"np": (h, w, geom.d), "rv": (h, w, geom.dprime), "rp": (h, w),
              "nbd": (h, w, geom.dprime), "scalars": (3,)}
    n = sum(s.frame_count for s in scenarios)
    fill = block_rows(shapes.values())
    step = max(min(rows or fill, n), 1)
    core = {name: np.empty((step,) + shape, dtype=np.float32) for name, shape in shapes.items()}
    readings = np.empty((step, geom.detector_count), dtype=np.float32)
    timestamps = np.array([s.cycle_id * 1_000_000 + t for s in scenarios
                           for t in range(s.frame_count)], dtype=np.int64)
    cycles = np.repeat(np.array([s.cycle_id for s in scenarios], dtype=np.int64),
                       [s.frame_count for s in scenarios])

    def block(lo: int, rows: int) -> FrameTable:
        return FrameTable(readings[:rows], timestamps[lo:lo + rows], cycles[lo:lo + rows],
                          {name: col[:rows] for name, col in core.items()})

    lo = filled = 0  # the plant row of buffer row 0, and the buffer rows filled
    for scenario in scenarios:
        model = _CycleModel(scenario, geom)
        t = 0
        while t < scenario.frame_count:
            frames = range(t, min(t + step - filled, t + fill, scenario.frame_count))
            rows = slice(filled, filled + len(frames))
            _fill_cycle(model, frames, {name: col[rows] for name, col in core.items()},
                        readings[rows])
            t, filled = frames.stop, rows.stop
            if filled == step:
                yield block(lo, filled)
                lo, filled = lo + filled, 0
    if filled or not n:
        yield block(lo, filled)


def _fill_cycle(model: _CycleModel, frames: range, core: dict, readings: np.ndarray) -> None:
    """Write frames ``frames`` of ``model``'s cycle into the rows ``core`` and
    ``readings`` hold, in order. Each frame draws from its own seeded
    streams: ``[seed, cycle, t]`` for its scalars, ``[seed, cycle, t, 3]``
    for its power ripple and ``[seed, cycle, t, 7]`` for its reading noise."""
    scenario, geom = model.scenario, model.geom
    key = [scenario.seed, scenario.cycle_id]
    u = np.arange(frames.start, frames.stop) / max(scenario.frame_count - 1, 1)
    rp, nbd, rv = core["rp"], core["nbd"], core["rv"]
    model.rod_pattern(u, out=rp)
    model.blade_depletion(u, out=nbd)
    derive_rod_variable(rp, nbd, out=rv)

    tp = 0.965 + 0.025 * np.sin(2 * np.pi * model.power_trend["freq"] * u
                                + model.power_trend["phase"])
    subcool = 1.0 + 0.08 * np.sin(2 * np.pi * model.subcool_trend["freq"] * u
                                  + model.subcool_trend["phase"])
    flow = 0.97 + 0.04 * np.sin(2 * np.pi * model.flow_trend["freq"] * u
                                + model.flow_trend["phase"])
    ripple_noise = np.empty((len(frames), geom.h, geom.w))
    for j, t in enumerate(frames):
        rng_t = np.random.default_rng(key + [t])
        tp[j] += 0.004 * rng_t.standard_normal()
        if rng_t.random() < DIP_PROBABILITY:
            tp[j] = rng_t.uniform(0.72, 0.88)
        subcool[j] += 0.01 * rng_t.standard_normal()
        flow[j] += 0.005 * rng_t.standard_normal()
        np.random.default_rng(key + [t, 3]).standard_normal(out=ripple_noise[j])
    scalars = core["scalars"]
    scalars[:, 0] = np.clip(tp, 0.6, 1.02, out=tp)
    scalars[:, 1], scalars[:, 2] = subcool, flow
    nodal = model.nodal_power(u, rv, ripple_noise, out=core["np"])
    readings[:] = oracle_readings(nodal, rv, scalars[:, 0], geom)

    # Python's ``**``: numpy's ``power`` may round differently
    drift = np.float32([(1.0 - scenario.drift_rate) ** t for t in frames])
    readings[:, model.drift_mask] *= drift[:, None]
    if scenario.noise_sigma > 0.0:
        noise = np.stack([np.random.default_rng(key + [t, 7]).standard_normal(readings.shape[1])
                          for t in frames])
        readings[:] = readings * (1.0 + scenario.noise_sigma * noise)
