"""Shifted-Laplacian solves and the Helmholtz differential filter.

Everything here is built on one symmetric positive definite kernel: the
interior-node system

    (I + theta * (-lap_h)) x = b,    theta >= 0,

where ``-lap_h`` is the centered 3-point (1D) or 5-point (2D) stencil with
zero Dirichlet ghost values.  The filter pair is

    A = I + delta**2 * (-lap_h)        (sharpening / inverse-filter operator)
    G = A**-1                          (low-pass differential filter)

``G`` is never formed: applying it means solving the ``theta = delta**2``
system.  The downstream deconvolution schemes multiply their equations
through by ``A`` so that every step reduces to one shifted solve.

The solve is direct in every dimension: the orthonormal type-I discrete sine
transform (DST-I) along each axis diagonalises ``-lap_h``, with axis mode ``k``
of ``n`` intervals of size ``h`` at eigenvalue ``(4/h**2) sin**2(k*pi/(2n))``
summed over the axes (the fast Poisson solver of Buzbee, Golub & Nielson,
1970).  The DST-I is built on ``numpy.fft``: importing ``scipy.linalg`` or
``scipy.fft`` would more than double the import time of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .fields import Field, Grid


class SolverError(RuntimeError):
    """Linear solve produced non-finite values (e.g. from NaN or inf input)."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _neg_lap_array(values: np.ndarray, h: tuple[float, ...]) -> np.ndarray:
    """Apply -lap_h to raw interior values with zero ghost nodes."""
    if values.ndim == 1:
        p = np.pad(values, 1)
        return (2.0 * values - p[:-2] - p[2:]) / h[0] ** 2
    p = np.pad(values, 1)
    out = (2.0 * values - p[:-2, 1:-1] - p[2:, 1:-1]) / h[0] ** 2
    out += (2.0 * values - p[1:-1, :-2] - p[1:-1, 2:]) / h[1] ** 2
    return out


def neg_laplacian(field: Field) -> Field:
    """Negative discrete Laplacian (3-point/5-point centered stencil)."""
    return Field(field.grid, _neg_lap_array(field.values, field.grid.h))


def _dst(values: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis; it is its own inverse.

    The real FFT of the odd extension ``[0, x, 0, -x[::-1]]`` (length
    ``2(n+1)``) is ``-2i`` times the sine sums of modes ``1..n``.
    """
    n = values.shape[-1]
    ext = np.zeros(values.shape[:-1] + (2 * (n + 1),))
    ext[..., 1:n + 1] = values
    ext[..., n + 2:] = -values[..., ::-1]
    return np.fft.rfft(ext)[..., 1:n + 1].imag * (-1.0 / math.sqrt(2 * (n + 1)))


@lru_cache(maxsize=64)
def _eigenvalues(n: int, h: float) -> np.ndarray:
    """Read-only eigenvalues of -lap_h on one axis of n intervals of size h."""
    lam = 4.0 / h**2 * np.sin(np.arange(1, n) * np.pi / (2 * n)) ** 2
    lam.setflags(write=False)
    return lam


def _dst_axes(values: np.ndarray) -> np.ndarray:
    """DST-I along each axis of a 1D or 2D array, last first; the axes come back reversed."""
    for _ in range(values.ndim):
        values = _dst(values).T
    return values.T


def _solve_dst(theta: float, grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """DST-I diagonalisation of I + theta*(-lap_h): transform, divide, transform back."""
    lam = reduce(np.add.outer, map(_eigenvalues, grid.n[::-1], grid.h[::-1]))
    with np.errstate(invalid="ignore"):  # non-finite input: solve_shifted raises
        modes = _dst_axes(rhs)
        modes /= 1.0 + theta * lam
        return _dst_axes(modes)


def solve_shifted(grid: Grid, theta: float, rhs: Field) -> Field:
    """Solve (I + theta*(-lap_h)) x = rhs on the interior nodes.

    theta = delta**2 applies the filter; theta = 0 is the identity.  The
    solve is direct (DST-I along each axis) with no tolerance.  Raises
    SolverError if the solution is not finite, which is how NaN or inf in
    the right-hand side surfaces.
    """
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if rhs.grid is not grid and rhs.grid != grid:
        raise ValueError("rhs does not live on the given grid")
    x = rhs.values if theta == 0.0 else _solve_dst(theta, grid, rhs.values)
    if not np.isfinite(x).all():
        raise SolverError(f"shifted solve (theta={theta:.6e}) produced non-finite values")
    return Field(grid, x)


@dataclass(frozen=True)
class HelmholtzFilter:
    """Differential filter of radius delta on a grid: A = I + delta^2*(-lap_h), G = A^-1."""

    grid: Grid
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"filter radius must be positive, got {self.delta}")
        if not math.isfinite(self.delta * self.delta):
            raise ValueError(f"filter radius {self.delta} has a non-finite square")


def apply_A(filt: HelmholtzFilter, field: Field) -> Field:
    """Sharpen: field + delta^2 * (-lap_h) field."""
    if field.grid != filt.grid:
        raise ValueError("field does not live on the filter's grid")
    lap = _neg_lap_array(field.values, filt.grid.h)
    return Field(filt.grid, field.values + filt.delta**2 * lap)


def apply_filter(filt: HelmholtzFilter, field: Field) -> Field:
    """Smooth: solve A x = field, i.e. apply G."""
    if field.grid != filt.grid:
        raise ValueError("field does not live on the filter's grid")
    return solve_shifted(filt.grid, filt.delta**2, field)


def _dense_lap_1d(m: int, h: float) -> np.ndarray:
    lap = 2.0 * np.eye(m)
    idx = np.arange(m - 1)
    lap[idx, idx + 1] = -1.0
    lap[idx + 1, idx] = -1.0
    return lap / h**2


DENSE_CAP = 4096


def dense_matrices(grid: Grid, delta: float):
    """Dense (-lap_h, A, G) on the flattened interior nodes (test oracle).

    2D fields flatten in row-major (i, j) order.  G is the exact dense
    inverse of A.  Capped at 4096 interior nodes.
    """
    if grid.interior_count > DENSE_CAP:
        raise ValueError(
            f"dense matrices capped at {DENSE_CAP} interior nodes, "
            f"grid has {grid.interior_count}"
        )
    if grid.dim == 1:
        lap = _dense_lap_1d(grid.interior_shape[0], grid.h[0])
    else:
        mx, my = grid.interior_shape
        lap = np.kron(_dense_lap_1d(mx, grid.h[0]), np.eye(my))
        lap += np.kron(np.eye(mx), _dense_lap_1d(my, grid.h[1]))
    a_mat = np.eye(grid.interior_count) + delta**2 * lap
    g_mat = np.linalg.inv(a_mat)
    return lap, a_mat, g_mat
