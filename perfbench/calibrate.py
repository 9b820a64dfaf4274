"""A fixed reference kernel, timed around every request, to factor out machine speed.

On a shared machine the CPU alternates, for seconds to minutes at a time,
between a fast state and one about 1.5x slower, driven by load outside the
benchmark.  A request and the kernel timed just before it see the same
state, so their ratio hardly depends on it (the runner takes the mean of
the kernel timed before and after, which also follows a change of state
during the request): over 60 s of ``stopping1d-mc``
the medians of 60 consecutive request times ranged from 65 to 99 ms, while
those of the request-to-kernel ratio ranged from 5.36 to 5.67.

The kernel mixes what the package does, small 2D stencil passes, 1D banded
solves and quadrature sums, but calls numpy and scipy directly and never
``helmdeconv``, so no change to the package can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

SIDE = 127  # interior side of the n=128 grid
LENGTH = 999  # interior length of the n=1000 grid
STENCIL_PASSES = 8
BANDED_SOLVES = 30


class Calibration:
    """Fixed inputs for the reference kernel; ``seconds()`` times one run of it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = rng.standard_normal((SIDE, SIDE))
        self.band = np.vstack([-np.ones(LENGTH), 4.0 * np.ones(LENGTH), -np.ones(LENGTH)])
        self.rhs = rng.standard_normal(LENGTH)

    def seconds(self) -> float:
        start = perf_counter()
        x = self.field
        for _ in range(STENCIL_PASSES):
            p = np.pad(x, 1)
            x = 0.2 * (4.0 * x - p[:-2, 1:-1] - p[2:, 1:-1] - p[1:-1, :-2] - p[1:-1, 2:]) + self.field
            float(np.sum(x * x))
        y = self.rhs
        for _ in range(BANDED_SOLVES):
            y = solve_banded((1, 1), self.band, y) + self.rhs
            float(np.sqrt(np.sum(y * y)))
        return perf_counter() - start
