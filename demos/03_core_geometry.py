"""The core data model: detector geometry, the derived rod variable, and
the data-hygiene operations that precede any training run.
"""

import numpy as np

from virtlprm.coredata import (
    DetectorId,
    bypass_augment,
    default_geometry,
    derive_rod_variable,
    filter_transients,
    split_holdout_cycle,
    split_surrogate,
)
from virtlprm.synthplant import PlantScenario, generate_plant

geom = default_geometry()

# 43 strings of four detectors: 19 in set A, 19 mirrored in set B, 5 on
# the diagonal symmetry axis (set C).
print(f"{len(geom.string_indices)} strings, {geom.detector_count} detectors")
for name in "ABC":
    print(f"  set {name}: {len(geom.detectors_in_set(name))} detectors")

d = DetectorId.parse("1A")
partner = geom.symmetry_partner(d)
print(f"partner of {d}: {partner} (and back: {geom.symmetry_partner(partner)})")
print("axis detector 7C has partner:", geom.symmetry_partner(DetectorId.parse("7C")))
r, c = geom.position_of(1)
print(f"string 1 sits at {(r, c)}; string {partner.string_index} at "
      f"{geom.position_of(partner.string_index)} - mirrored across the diagonal")

# The rod variable nodalizes each blade's insertion fraction along the
# axial dimension (from the bottom, where blades enter) and weights it by
# the absorber still present at each node.
rod_pattern = np.zeros((30, 30), dtype=np.float32)
rod_pattern[10, 10] = 0.5
depletion = np.zeros((30, 30, 24), dtype=np.float32)
depletion[10, 10, :4] = 0.25
rv = derive_rod_variable(rod_pattern, depletion)
print("\nrod variable at the half-inserted location:")
print(" ", np.round(rv[10, 10], 2))

# Synthetic frames stand in for plant data below. A frame table holds one
# column per field, one row per frame; filtering and splitting select rows.
frames = generate_plant([
    PlantScenario(cycle_id=21, frame_count=300, seed=5, noise_sigma=0.01),
    PlantScenario(cycle_id=22, frame_count=200, seed=5, noise_sigma=0.01),
], geom)

kept = filter_transients(frames, rated_power=1.0)
print(f"\ntransient filter: {len(frames)} frames -> {len(kept)} at or above 90% power")

train, val, test = split_surrogate(kept, seed=0)
print(f"shuffled split: {len(train)} train / {len(val)} val / {len(test)} test")

train, val, test = split_holdout_cycle(kept, holdout_cycle=22, seed=0)
leaked = int((train.cycles == 22).sum())
print(f"cycle-22 holdout: {len(train)} train ({leaked} from the held-out cycle), "
      f"{len(val)} val / {len(test)} test from cycle 22")

# Training-time robustness: detector inputs are randomly zeroed the same
# way bypassed instruments read zero in production.
readings = kept.readings[0, geom.indices_for_set("A")]
zeroed = bypass_augment(readings, p=0.2, rng=np.random.default_rng(7))
print(f"\nbypass augmentation dropped {int((zeroed == 0).sum())} of "
      f"{len(zeroed)} inputs at p=0.2")
