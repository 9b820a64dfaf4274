"""Uniform Dirichlet grids, interior-node fields, and quadrature norms.

Conventions shared by the whole package:

* A grid covers an interval (1D) or a box (2D) with ``n`` uniform intervals
  per axis, so the mesh size is ``h = (b - a) / n`` and there are ``n - 1``
  interior nodes per axis.
* Fields store values at interior nodes only.  The boundary is structurally
  zero (homogeneous Dirichlet data), which removes boundary bookkeeping from
  every stencil and solve.
* The L2 inner product is a quadrature sum over the zero-extended field:
  composite trapezoid by default, composite Simpson on request.  Simpson
  needs an even interval count per axis.  With trapezoid weights the
  interior weight is constant, so the discrete Laplacian stays self-adjoint
  with respect to the inner product.
* The H1 seminorm sums squared forward differences of the zero-extended
  field, including the two boundary segments per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform tensor mesh with homogeneous Dirichlet boundary.

    ``bounds`` holds one ``(a, b)`` pair per axis and ``n`` the interval
    count per axis; interior nodes sit at ``a + i*h`` for ``i = 1..n-1``.
    """

    bounds: tuple[tuple[float, float], ...]
    n: tuple[int, ...]

    def __post_init__(self):
        if len(self.n) not in (1, 2):
            raise ValueError(f"a grid has 1 or 2 axes, got {len(self.n)}")
        if len(self.bounds) != len(self.n):
            raise ValueError("bounds and n must have one entry per axis")
        for (a, b), n in zip(self.bounds, self.n):
            if n < 2:
                raise ValueError(f"need at least 2 intervals per axis, got {n}")
            if not b > a:
                raise ValueError(f"degenerate bounds ({a}, {b})")

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / n for (a, b), n in zip(self.bounds, self.n))

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.n)

    @property
    def interior_count(self) -> int:
        return math.prod(self.interior_shape)

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        (a, _), n, h = self.bounds[axis], self.n[axis], self.h[axis]
        return a + h * np.arange(1, n)


def make_grid(dim: int, bounds, n) -> Grid:
    """Build a uniform grid.

    ``bounds`` is a single ``(a, b)`` pair (applied to every axis) or one
    pair per axis; ``n`` is an interval count or one count per axis.
    """
    bounds_seq = list(bounds)
    if len(bounds_seq) == 2 and np.isscalar(bounds_seq[0]):
        per_axis = [(float(bounds_seq[0]), float(bounds_seq[1]))] * dim
    else:
        per_axis = [(float(a), float(b)) for a, b in bounds_seq]
    if np.isscalar(n):
        ns = [int(n)] * dim
    else:
        ns = [int(m) for m in n]
    grid = Grid(tuple(per_axis), tuple(ns))
    if grid.dim != dim:
        raise ValueError(f"asked for {dim} axes, got bounds and n for {grid.dim}")
    return grid


@dataclass(frozen=True, eq=False)
class Field:
    """Real values at the interior nodes of a grid.

    Arrays are copied and locked at construction; arithmetic returns new
    fields, so instances are safe to share across threads.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != self.grid.interior_shape:
            raise ValueError(
                f"values shape {values.shape} does not match interior "
                f"shape {self.grid.interior_shape}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("fields live on different grids")


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.interior_shape))


def sample_function(grid: Grid, f: Callable) -> Field:
    """Sample a pointwise function at the interior nodes.

    ``f`` takes one coordinate argument per axis; vectorized callables are
    evaluated on coordinate arrays directly, scalar ones are broadcast.
    Boundary values of ``f`` are never read.
    """
    coords = np.meshgrid(*(grid.axis_nodes(ax) for ax in range(grid.dim)), indexing="ij")
    try:
        values = np.asarray(f(*coords), dtype=float)
        if values.shape != grid.interior_shape:
            raise ValueError
    except (TypeError, ValueError):
        values = np.vectorize(f, otypes=[float])(*coords)
    return Field(grid, values)


@lru_cache(maxsize=64)
def _axis_weights(n: int, h: float, quadrature: str) -> np.ndarray:
    """Read-only quadrature weights at the n-1 interior nodes of one axis.

    Boundary weights are dropped because the extended field vanishes there.
    """
    if quadrature == "trapezoid":
        w = np.full(n - 1, h)
    elif quadrature == "simpson":
        if n % 2 != 0:
            raise ValueError(f"Simpson quadrature needs an even interval count, got {n}")
        w = np.empty(n - 1)
        w[0::2] = 4.0 * h / 3.0  # odd interior nodes
        w[1::2] = 2.0 * h / 3.0
    else:
        raise ValueError(f"unknown quadrature {quadrature!r}")
    w.setflags(write=False)
    return w


def quadrature_weights(grid: Grid, quadrature: str = "trapezoid") -> np.ndarray:
    """Tensor-product quadrature weights over the interior nodes (read-only in 1D)."""
    return reduce(np.multiply.outer, map(_axis_weights, grid.n, grid.h, [quadrature] * grid.dim))


def inner_product(f: Field, g: Field, quadrature: str = "trapezoid") -> float:
    """Quadrature-weighted L2 inner product (symmetric bilinear)."""
    _check_same_grid(f, g)
    w = quadrature_weights(f.grid, quadrature)
    return float((w * f.values * g.values).sum())


def l2_norm(f: Field, quadrature: str = "trapezoid") -> float:
    """Quadrature-weighted L2 norm of the zero-extended field."""
    w = quadrature_weights(f.grid, quadrature)
    return float(np.sqrt((w * f.values * f.values).sum()))


def h1_seminorm(f: Field) -> float:
    """Discrete H1 seminorm: forward differences of the zero-extended field.

    Includes the two boundary segments per axis, so for trapezoid weights
    ``h1_seminorm(f)**2 == inner_product(neg_laplacian(f), f)`` exactly.
    """
    h = f.grid.h
    total = 0.0
    for axis, h_axis in enumerate(h):
        d = np.diff(f.values, axis=axis, prepend=0.0, append=0.0)
        total += np.sum(d * d) * math.prod(h[:axis] + h[axis + 1:]) / h_axis
    return float(np.sqrt(total))


def write_field_csv(field: Field, path) -> None:
    """Write a field as CSV: (i, x, value) in 1D, (i, j, x, y, value) in 2D.

    Indices are 1-based interior node indices, rows run in row-major node
    order and end in CRLF; decimals use '.'.
    """
    grid = field.grid
    header = [*"ijk"[:grid.dim], *"xyz"[:grid.dim], "value"]
    indices = [[str(i) for i in range(1, m + 1)] for m in grid.interior_shape]
    coords = [[format(x, ".16e") for x in grid.axis_nodes(ax)] for ax in range(grid.dim)]
    values = (format(v, ".16e") for v in field.values.ravel().tolist())
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join((*ij, *xy, v)) + "\r\n"
                          for ij, xy, v in zip(product(*indices), product(*coords), values))
