"""Detecting detector sensitivity drift between calibrations.

In-core detectors deplete under neutron exposure and slowly read low
until recalibrated. Comparing measurements against a reference model over
time exposes exactly which instruments are drifting, making on-demand
virtual calibration checks possible.
"""

import numpy as np

from virtlprm.coredata import DetectorId, default_geometry
from virtlprm.evaluation import OraclePredictor, drift_report
from virtlprm.synthplant import PlantScenario, generate_cycle

geom = default_geometry()

# Inject a 0.1%-per-frame sensitivity decay into three detectors; the
# other 169 stay healthy. Measurement noise stays on for realism.
drifting = frozenset({DetectorId.parse("2A"), DetectorId.parse("9C"),
                      DetectorId.parse("30B")})
frames = generate_cycle(PlantScenario(
    cycle_id=1, frame_count=500, seed=77, noise_sigma=0.005,
    drift_rate=0.001, drift_detectors=drifting), geom)

after = (1.0 - 0.001) ** 499
print(f"after 500 frames a drifting detector reads {after:.1%} of its true value")
col = geom.detector_index(DetectorId.parse("2A"))
print(f"2A measured, first and last frame: {frames.readings[0, col]:.4f}, "
      f"{frames.readings[-1, col]:.4f}")

# Residuals (measured minus predicted) are fitted against time per
# detector; a detector whose fitted residual at the latest frame exceeds
# the threshold is flagged for calibration.
report = drift_report(OraclePredictor(), frames, geom, threshold=0.05)
print(f"flagged: {', '.join(report.flagged)}")
assert set(report.flagged) == {d.code for d in drifting}

for code in sorted(d.code for d in drifting):
    d = report.detectors[code]
    print(f"  {code}: slope {d.slope:+.2e} per frame, current offset {d.offset:+.4f}")
healthy = [d for code, d in report.detectors.items() if code not in report.flagged]
print(f"healthy detectors: max |offset| = "
      f"{max(abs(d.offset) for d in healthy):.5f} (threshold 0.05)")
