"""Make the benchmark's package and the program importable."""

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
