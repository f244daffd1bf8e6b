"""Every program name the benchmark tracer wraps exists, and the benchmark's
reference forward still reads the program's checkpoints.

``perfbench/tracing.py`` patches named functions and methods of the
program from outside and only records the ones it cannot find, so deleting
or renaming one would pass unnoticed in a benchmark run. Likewise
``perfbench/reference.py`` reads checkpoints without the program, so a
format change would first show as failed ``serve`` checks. Here both fail
the suite instead: such a change needs a benchmark change first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def perfbench_module(name: str):
    """``perfbench/<name>.py`` loaded by path, as a module of the ``perfbench``
    package, so that its relative imports resolve."""
    if "perfbench" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "perfbench", PERFBENCH / "__init__.py", submodule_search_locations=[str(PERFBENCH)])
        package = importlib.util.module_from_spec(spec)
        sys.modules["perfbench"] = package
        spec.loader.exec_module(package)
    return importlib.import_module(f"perfbench.{name}")


def test_tracer_finds_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import virtlprm.cli  # noqa: F401  # imports every module the tracer patches

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_library_calls_outside_the_cli(tmp_path):
    """The calls ``perfbench`` makes to the library besides ``cli.main``, with
    the arguments it passes, on a tiny archive and checkpoint: a signature
    change fails here, not only in a benchmark run."""
    from virtlprm.coredata import (
        DetectorId,
        default_geometry,
        filter_transients,
        load_archive,
        save_archive,
        split_surrogate,
    )
    from virtlprm.models import (
        SurrogateNet,
        load_checkpoint,
        paired_surrogate_spec,
        save_checkpoint,
    )
    from virtlprm.synthplant import PlantScenario, generate_cycle

    geom = default_geometry()
    save_archive(generate_cycle(PlantScenario(cycle_id=1, frame_count=12, seed=3), geom),
                 tmp_path / "archive")
    save_checkpoint(SurrogateNet(paired_surrogate_spec(hidden=4), seed=1), tmp_path / "ckpt",
                    training_meta={"selector": "surrogate-ab"})

    n_train = len(split_surrogate(filter_transients(load_archive(tmp_path / "archive")),
                                  seed=3)[0])
    assert n_train == int(0.7 * 12)  # no frame of this cycle is a transient
    assert load_checkpoint(tmp_path / "ckpt").parameter_count() > 0

    detector = DetectorId.parse("12B")
    assert geom.set_of_detector(detector) == "B"
    assert geom.detector_index(detector) in list(geom.indices_for_set("B"))
    assert {det.code for s in "AB" for det in geom.detectors_in_set(s)} >= {"1A", "12B"}


def test_reference_forward_matches_the_program(tmp_path):
    """``perfbench/reference.py``'s float64 forward of a saved SurrogateNet
    checkpoint, every entry moved off its initial value, agrees with the
    program's eval-mode prediction within the tolerances the ``serve``
    workload checks ``infer`` with."""
    from virtlprm.models import (
        SurrogateNet,
        load_checkpoint,
        paired_surrogate_spec,
        save_checkpoint,
    )
    from virtlprm.training import predict_batch

    reference, workloads = perfbench_module("reference"), perfbench_module("workloads")
    model = SurrogateNet(paired_surrogate_spec(hidden=8), seed=4)
    rng = np.random.default_rng(5)
    for key, arr in model.state().items():
        low = 0.5 if key.endswith(("running_var", "gamma")) else -0.5
        arr += rng.uniform(low, low + 1.0, arr.shape).astype(arr.dtype)
    save_checkpoint(model, tmp_path / "ckpt", training_meta={"selector": "surrogate-ab"})
    x = rng.uniform(0.0, 1.5, (32, model.spec.input_size)).astype(np.float32)

    want = reference.ReferenceSurrogate(tmp_path / "ckpt").forward(x)
    got = predict_batch(load_checkpoint(tmp_path / "ckpt"), {"x": x})
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=workloads.VIRTUAL_RTOL,
                               atol=workloads.VIRTUAL_ATOL)
    assert np.ptp(want, axis=0).min() > 0.01  # the rows differ: a forward, not a constant
