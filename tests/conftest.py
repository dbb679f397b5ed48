import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def _traced_peak(fn, *args):
    """Call ``fn(*args)``; return the peak of memory it allocated, in bytes, and its result.

    tracemalloc also sees numpy's array buffers, so this bounds a call's temporaries.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.fixture
def traced_peak():
    return _traced_peak
