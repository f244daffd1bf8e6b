"""Independent eval-mode forward of a SurrogateNet checkpoint.

Reads the checkpoint format the README documents (``manifest.json`` with
an entry table plus ``params.bin``, one flat little-endian float32 blob)
and runs the six linear -> batch norm -> exact GELU layers and the linear
readout in float64, without importing the program's engine or models.
The batch-norm epsilon (1e-5) is the engine's default.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.special import erf

BN_EPS = 1e-5


class ReferenceSurrogate:
    def __init__(self, checkpoint):
        path = Path(checkpoint)
        manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
        raw = np.fromfile(path / "params.bin", dtype="<f4")
        self.tensors = {}
        for entry in manifest["entries"]:
            shape = tuple(entry["shape"])
            start = int(entry["offset"])
            count = int(np.prod(shape)) if shape else 1
            self.tensors[entry["key"]] = raw[start:start + count].reshape(shape).astype(np.float64)
        spec = manifest["spec"]
        if spec["kind"] != "surrogate":
            raise ValueError(f"{path} is not a surrogate checkpoint")
        self.layers = len(spec["hidden_sizes"])
        self.batch_norm = bool(spec["use_batch_norm"])

    def forward(self, x: np.ndarray) -> np.ndarray:
        t = self.tensors
        h = np.asarray(x, dtype=np.float64)
        for i in range(1, self.layers + 1):
            h = h @ t[f"fc{i}.weight"] + t[f"fc{i}.bias"]
            if self.batch_norm:
                h = ((h - t[f"bn{i}.running_mean"]) / np.sqrt(t[f"bn{i}.running_var"] + BN_EPS)
                     * t[f"bn{i}.gamma"] + t[f"bn{i}.beta"])
            h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
        return h @ t["out.weight"] + t["out.bias"]
