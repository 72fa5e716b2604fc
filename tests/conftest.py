"""Make `pytest` work from a fresh checkout: the package lives under `src/`.

The path is also prepended to PYTHONPATH so that the tests which start
`python -m fracspec` or a script in a child process import the same tree.
BLAS runs on one thread in the test process, as in the CLI.
"""

import concurrent.futures
import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
# before any test module loads numpy: importing fracspec.cli pins BLAS to one
# thread, as in the CLI and the scripts, unless the caller set a thread count
import fracspec.cli  # noqa: E402, F401

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ProcessPoolExecutor by a pool that starts no process: it records
    each max_workers it is opened with and maps in this process."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes
