"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
"""

import os
import sys
from pathlib import Path

# Pin BLAS to one thread before numpy loads; the pin is recorded in each result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
