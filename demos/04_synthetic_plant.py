"""The synthetic plant: cycles of smoothly evolving core states with an
analytic detector-response oracle standing in for proprietary history data.
"""

import tempfile
from pathlib import Path

import numpy as np

from virtlprm.coredata import ARCHIVE_FIELDS, default_geometry, load_archive, save_archive
from virtlprm.synthplant import PlantScenario, generate_cycle, oracle_readings

geom = default_geometry()

# A cycle is a frame table: the (N, 172) readings plus one column per
# core-state field, each with the frame as its first axis.
frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=120, seed=42), geom)
print("columns:", ", ".join(f"{name} {frames.column(name).shape}" for name in ARCHIVE_FIELDS))

# A perfectly symmetric, noiseless cycle: mirror partners read identically,
# to the last bit, because the response kernel accumulates mirrored window
# terms through commutative pair sums.
readings = frames.readings[60]
worst = 0.0
for d in geom.detectors:
    p = geom.symmetry_partner(d)
    if p is not None:
        delta = abs(float(readings[geom.detector_index(d)])
                    - float(readings[geom.detector_index(p)]))
        worst = max(worst, delta)
print(f"max partner reading difference on a symmetric frame: {worst}")

# Depletion only accumulates; thermal power occasionally dips below the
# 90% transient threshold so the filtering stage has something to do.
nbd = frames.column("nbd")
print("blade depletion monotone non-decreasing:", bool(np.all(np.diff(nbd, axis=0) >= 0)))
tp = frames.thermal_power
print(f"thermal power range: {tp.min():.3f} .. {tp.max():.3f}")

# The oracle reads whole columns. It is linear in nodal power and scales
# with thermal power.
nodal_power, rod_variable = frames.column("np"), frames.column("rv")
base = oracle_readings(nodal_power, rod_variable, tp, geom)
print("the oracle reproduces the noiseless readings:", bool(np.array_equal(base, frames.readings)))
print("doubling nodal power doubles readings:",
      bool(np.array_equal(oracle_readings(2.0 * nodal_power, rod_variable, tp, geom), 2.0 * base)))

# Measurement imperfections on demand: multiplicative noise and a slow
# sensitivity decay for selected detectors.
noisy = generate_cycle(PlantScenario(cycle_id=2, frame_count=200, seed=42,
                                     noise_sigma=0.01, drift_rate=0.001), geom)
ratio = noisy.readings / oracle_readings(noisy.column("np"), noisy.column("rv"),
                                         noisy.thermal_power, geom)
print("reading/oracle sensitivity over the cycle:",
      [round(float(np.median(ratio[t])), 4) for t in (0, 100, 199)])

# Frames round-trip bit-exactly through the archive format: one blob per
# column, written straight from it.
with tempfile.TemporaryDirectory() as tmp:
    save_archive(frames, Path(tmp) / "arch")
    again = load_archive(Path(tmp) / "arch")
    ok = all(np.array_equal(frames.column(name), again.column(name)) for name in ARCHIVE_FIELDS)
    size = sum(f.stat().st_size for f in (Path(tmp) / "arch").iterdir())
    print(f"archive round-trip bit-exact: {ok} ({size / 1e6:.1f} MB for {len(frames)} frames)")
