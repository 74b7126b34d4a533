#!/usr/bin/env python3
"""Entry script of the load benchmark: ``python3 benchmarks/load/run.py``.

Run from anywhere; it finds the repository from its own location.  See
``cli.py`` for the arguments and README.md for what is measured.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")

# Import the benchmark as the package ``load`` (its parent directory on
# the path) instead of from the script directory, where ``trace.py``
# would shadow the standard library's ``trace``.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(ROOT / "src"))

from load.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
