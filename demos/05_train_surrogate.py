"""Train a mirror-set surrogate model end to end and use it as a virtual
sensor for a bypassed detector.

Runs in about a minute on a laptop CPU (reduced widths; the defaults in
SurrogateSpec are larger).
"""

import numpy as np

from virtlprm.coredata import default_geometry, filter_transients, split_surrogate
from virtlprm.evaluation import SetSurrogatePredictor, VirtualSensor, rmse_report
from virtlprm.models import SurrogateNet, SurrogateSpec
from virtlprm.synthplant import PlantScenario, generate_cycle
from virtlprm.training import DataSplit, TrainConfig, batched_predict, train

geom = default_geometry()
frames = filter_transients(generate_cycle(
    PlantScenario(cycle_id=1, frame_count=400, seed=123, noise_sigma=0.01), geom))
train_f, val_f, test_f = split_surrogate(frames, seed=0)
print(f"{len(frames)} frames: {len(train_f)} train / {len(val_f)} val / {len(test_f)} test")

# Set-A readings in, set-B readings out. The predictor that later serves
# the model also builds its training arrays, so both use the same columns.
# Training randomly zeroes input detectors so the model stays stable when
# real instruments are bypassed.
model = SurrogateNet(SurrogateSpec(76, 76, (128,) * 6), seed=7)
predictor = SetSurrogatePredictor(model, "A")
x_tr, y_tr = predictor.training_arrays(train_f, geom)
x_va, y_va = predictor.training_arrays(val_f, geom)
cfg = TrainConfig(max_lr=0.005, epochs=150, batch_size=32, seed=1, bypass_p=0.2)
result = train(model, DataSplit(x_tr, y_tr, x_va, y_va), cfg)
print(f"best validation MSE {result.best_val_loss:.6f} at epoch {result.best_epoch}")

# Held-out error against the trivial predict-the-training-mean baseline.
x_te, y_te = predictor.training_arrays(test_f, geom)
pred = batched_predict(model, x_te)
rmse = float(np.sqrt(np.mean((pred - y_te) ** 2)))
baseline = float(np.sqrt(np.mean((y_tr.mean(axis=0) - y_te) ** 2)))
print(f"test RMSE {rmse:.4f} vs mean-predictor {baseline:.4f} "
      f"({baseline / rmse:.1f}x better)")

# The five-row report used throughout: overall plus per axial level.
report = rmse_report(predictor, test_f, geom)
print()
print(report.rows_text())
print(f"percent error: {report.percent_error:.2f}%")

# Virtual sensing: bypass one set-B detector and serve its reading from
# the model instead, for every test frame at once. On symmetric data its
# mirror partner is the truth.
sensor = VirtualSensor(geom, [predictor])
target = geom.detectors_in_set("B")[5]
partner = geom.symmetry_partner(target)
served, mask = sensor.infer(test_f, [target])
col, partner_col = geom.detector_index(target), geom.detector_index(partner)
print(f"\nbypassed {target} in {int(mask[:, col].sum())} test frames; first frame: virtual "
      f"reading {served[0, col]:.4f}, measured {test_f.readings[0, col]:.4f}, "
      f"partner {partner} reads {test_f.readings[0, partner_col]:.4f}")
gap = np.abs(served[:, col] - test_f.readings[:, partner_col])
print(f"largest virtual-to-partner gap over the test frames: {gap.max():.4f}")
