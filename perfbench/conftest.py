"""Tests of the benchmark import its modules and the program from this checkout.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
