"""Benchmark tests: ``python3 -m pytest perfbench/tests`` from the repository root."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture(scope="session")
def hd():
    import helmdeconv

    return helmdeconv
