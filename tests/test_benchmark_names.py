"""Every program name the benchmark tracer wraps exists.

``perfbench/tracing.py`` patches named functions and methods of the
program from outside and only records the ones it cannot find, so deleting
or renaming one would pass unnoticed in a benchmark run. Here it fails the
suite instead: such a change needs a benchmark change first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
