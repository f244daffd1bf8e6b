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
