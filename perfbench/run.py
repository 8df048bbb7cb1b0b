"""Run one benchmark workload: see harness.py for what is measured.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
./src, not from any installed copy.
"""

import os
import sys
from pathlib import Path

# One thread: the benchmark is a single client and numpy must not add more.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_SRC = Path(__file__).resolve().parent.parent / "src"
if not (_SRC / "majoritylab" / "__init__.py").is_file():
    sys.exit(f"perfbench: no majoritylab source under {_SRC}")
sys.path.insert(0, str(_SRC))

import harness  # noqa: E402  (needs the path set above)

if __name__ == "__main__":
    sys.exit(harness.main())
