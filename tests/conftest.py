from pathlib import Path

import numpy as np
import pytest

from virtlprm import coredata
from virtlprm.coredata import default_geometry, filter_transients, split_surrogate
from virtlprm.models import SurrogateNet, SurrogateSpec, surrogate_arrays
from virtlprm.synthplant import PlantScenario, generate_cycle
from virtlprm.training import DataSplit, TrainConfig, batched_predict, train


@pytest.fixture(scope="session")
def session_geom():
    return default_geometry()


@pytest.fixture(scope="session")
def trained_surrogate(session_geom):
    """A small mirror-set model trained on clean symmetric data, shared by
    the training/evaluation tests. Maps set-A readings to set-B readings."""
    geom = session_geom
    frames = generate_cycle(PlantScenario(cycle_id=1, frame_count=260, seed=777), geom)
    kept = filter_transients(frames)
    train_f, val_f, test_f = split_surrogate(kept, seed=5)
    x_tr, y_tr = surrogate_arrays(train_f, geom, "A")
    x_va, y_va = surrogate_arrays(val_f, geom, "A")

    model = SurrogateNet(SurrogateSpec(76, 76, (128,) * 6), seed=9)
    cfg = TrainConfig(max_lr=0.005, epochs=250, batch_size=32, seed=11, bypass_p=0.2)
    result = train(model, DataSplit({"x": x_tr}, y_tr, {"x": x_va}, y_va), cfg)

    pred_val = batched_predict(model, {"x": x_va})
    return {
        "geom": geom,
        "model": model,
        "cfg": cfg,
        "result": result,
        "splits": (train_f, val_f, test_f),
        "train_targets": y_tr,
        "val_inputs": x_va,
        "val_targets": y_va,
        "val_residuals": pred_val - y_va,
    }


@pytest.fixture
def blob_reads(monkeypatch):
    """The names of the blobs ``coredata.read_blob`` opens, in order."""
    names = []
    real = coredata.read_blob

    def record(path):
        names.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(coredata, "read_blob", record)
    return names
