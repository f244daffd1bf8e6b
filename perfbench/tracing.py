"""Span tracer that wraps virtlprm's public functions from outside.

Nothing in the program is edited: ``Tracer.install`` replaces every module
binding of each named function (``attention`` imports ``conv2d`` and
``softmax`` by name, the package ``__init__`` re-exports most of them) and
the named methods on their classes, and ``uninstall`` puts the originals
back. Spans stay in memory as ``[name, start, end, parent, request]`` and
are written out once the run ends.

Engine ops are attributed to the outermost op on the stack: an op called
inside another op (``batch_norm`` inside ``batch_norm2d``) opens no span of
its own, and the backward rules of every node made inside an op are timed
under that op's ``.bwd`` name, so both forward and backward time land on
the op that model code called.
"""

from __future__ import annotations

import gzip
import sys
import time
from pathlib import Path

import numpy as np

# Engine-level ops: (module, attribute, span name).
OPS = [("virtlprm.autodiff", op, f"autodiff.{op}") for op in (
    "conv2d", "matmul", "batch_norm", "batch_norm2d", "gelu", "softmax",
    "concat", "reshape", "transpose", "add", "mse_loss")] + [
    ("virtlprm.attention", "affinity", "attention.affinity"),
    ("virtlprm.attention", "aggregate", "attention.aggregate"),
]

# Layer boundaries above the engine: (module, dotted attribute, span name).
LAYERS = [
    ("virtlprm.autodiff", "backward", "autodiff.backward"),
    ("virtlprm.autodiff", "Graph.trace", "autodiff.Graph.trace"),
    ("virtlprm.attention", "axial_attention", "attention.axial_attention"),
    ("virtlprm.training", "adamw_step", "training.adamw_step"),
    ("virtlprm.training", "validation_loss", "training.validation_loss"),
    ("virtlprm.training", "batched_predict", "training.batched_predict"),
    ("virtlprm.models", "SurrogateNet.forward_batch", "models.SurrogateNet.forward_batch"),
    ("virtlprm.models", "LprmNet.forward_batch", "models.LprmNet.forward_batch"),
    ("virtlprm.models", "_NetworkBase.zero_grads", "models.zero_grads"),
    ("virtlprm.models", "_NetworkBase.snapshot", "models.snapshot"),
    ("virtlprm.models", "save_checkpoint", "models.save_checkpoint"),
    ("virtlprm.models", "load_checkpoint", "models.load_checkpoint"),
    ("virtlprm.models", "corestate_batch", "models.corestate_batch"),
    ("virtlprm.coredata", "save_archive", "coredata.save_archive"),
    ("virtlprm.coredata", "load_archive", "coredata.load_archive"),
    ("virtlprm.coredata", "filter_transients", "coredata.filter_transients"),
    ("virtlprm.coredata", "bypass_augment", "coredata.bypass_augment"),
    ("virtlprm.synthplant", "generate_cycle", "synthplant.generate_cycle"),
    ("virtlprm.synthplant", "oracle_readings", "synthplant.oracle_readings"),
    ("virtlprm.evaluation", "VirtualSensor.infer", "evaluation.VirtualSensor.infer"),
    ("virtlprm.evaluation", "rmse_report", "evaluation.rmse_report"),
    ("virtlprm.evaluation", "drift_report", "evaluation.drift_report"),
] + [("virtlprm.cli", f"cmd_{c}", f"cli.{c}")
     for c in ("gen", "train", "eval", "infer", "report")]

# Spans that start a new request: a served frame, or a training step.
REQUEST_STARTS = {"evaluation.VirtualSensor.infer", "models.zero_grads"}

# Spans whose argument names a directory whose size is reported in MB.
SIZED = {"models.save_checkpoint": 1, "coredata.save_archive": 1,
         "coredata.load_archive": 0}


def dir_mb(path) -> float:
    path = Path(path)
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def op_gflop(name: str, args) -> float:
    """Multiply-add count of one forward call, computed from operand shapes."""
    if name == "autodiff.matmul":
        (m, k), (_, n) = args[0].shape, args[1].shape
        return 2.0 * m * k * n / 1e9
    if name == "autodiff.conv2d":
        x, kern = args[0].shape, args[1].shape
        batch = x[0] if len(x) == 4 else 1
        co, ci, kh, kw = kern
        h, w = x[-2:]
        padding = args[3] if len(args) > 3 else "same"
        if padding == "valid":
            h, w = h - kh + 1, w - kw + 1
        return 2.0 * batch * co * ci * kh * kw * h * w / 1e9
    return 0.0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, request]
        self.child_s: list[float] = []   # time covered by each span's children
        self.stack: list[int] = []
        self.op_stack: list[str] = []
        self.request = -1
        self.gflop: dict[str, float] = {}
        self.mb: dict[str, float] = {}
        self.absent: list[str] = []
        self._restore: list[tuple] = []

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> int:
        if name in REQUEST_STARTS:
            self.request += 1
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self.child_s.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self.stack.pop()
        if span[3] >= 0:
            self.child_s[span[3]] += end - span[1]

    # -- wrappers ----------------------------------------------------------

    def _layer(self, fn, name):
        tracer = self
        sized = SIZED.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if sized is not None and len(args) > sized:
                    tracer.mb[name] = tracer.mb.get(name, 0.0) + dir_mb(args[sized])

        wrapper.__wrapped__ = fn
        return wrapper

    def _rule(self, rule, name):
        tracer = self

        def traced_rule(g):
            idx = tracer.open(name)
            try:
                return rule(g)
            finally:
                tracer.close(idx)

        traced_rule.traced = True
        return traced_rule

    def _op(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op_stack:  # inside another op: time it there
                out = fn(*args, **kwargs)
                tracer._wrap_rule(out, tracer.op_stack[0])
                return out
            tracer.op_stack.append(name)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.op_stack.pop()
            tracer._wrap_rule(out, name)
            gf = op_gflop(name, args)
            if gf:
                tracer.gflop[name] = tracer.gflop.get(name, 0.0) + gf
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_rule(self, out, name):
        node = getattr(out, "node", None)
        if node is not None and not getattr(node.rule, "traced", False):
            node.rule = self._rule(node.rule, name + ".bwd")

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        targets = [(m, a, n, self._op) for m, a, n in OPS]
        targets += [(m, a, n, self._layer) for m, a, n in LAYERS]
        targets += self._predictor_targets()
        for module_name, attr, name, make in targets:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or leaf not in vars(owner):
                self.absent.append(name)
                continue
            if owner_name:
                self._patch_method(owner, leaf, name, make)
            else:
                self._patch_function(getattr(owner, leaf), name, make)

    def _predictor_targets(self):
        module = sys.modules.get("virtlprm.evaluation")
        out = []
        for cls_name, cls in sorted(vars(module).items() if module else []):
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "predict" in vars(cls)):
                out.append(("virtlprm.evaluation", f"{cls_name}.predict",
                            "evaluation.predict", self._layer))
        return out

    def _patch_method(self, cls, leaf, name, make):
        raw = vars(cls)[leaf]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__, name))
        else:
            new = make(raw, name)
        setattr(cls, leaf, new)
        self._restore.append((cls, leaf, raw))

    def _patch_function(self, fn, name, make):
        wrapped = make(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "virtlprm" or mod_name.startswith("virtlprm.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._restore.append((module, key, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds (spans nested in a span
        of the same name are not counted twice) and self seconds."""
        out: dict[str, dict] = {}
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = end - start
            row["self_s"] += dur - self.child_s[idx]
            if not self._nested_in_same(idx):
                row["calls"] += 1
                row["total_s"] += dur
        return out

    def _nested_in_same(self, idx: int) -> bool:
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name])

    def write(self, path) -> None:
        """One span per line: id, name, start_ns, end_ns, parent id, request id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,request\n")
            for idx, (name, start, end, parent, req) in enumerate(self.spans):
                fh.write(f"{idx},{name},{int(start * 1e9)},{int(end * 1e9)},"
                         f"{parent},{req}\n")
