"""Benchmark of the blocktrid CLI pipeline; see README.md beside this file.

    python3 clibench/run.py --workload reduce-arrow-512 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as one JSON object.
"""

import os
import sys
import time

if __name__ == "__main__":
    T0 = time.perf_counter()
    # One BLAS thread; this must happen before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    SRC = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(SRC, "blocktrid", "cli.py")):
        sys.exit(f"error: no blocktrid sources under {SRC}; run from a full checkout")
    sys.path.insert(1, SRC)
    import driver

    sys.exit(driver.main(sys.argv[1:], T0))
