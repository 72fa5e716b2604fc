"""Make `pytest` work from a fresh checkout: the package lives under `src/`.

The path is also prepended to PYTHONPATH so that the tests which start
`python -m fracspec` or a script in a child process import the same tree.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
