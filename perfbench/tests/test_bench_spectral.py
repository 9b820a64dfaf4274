"""The DST-I reference agrees with the package's dense oracles on small grids."""

import numpy as np
import pytest

from helmdeconv import dense_matrices, dense_reg_operators, make_grid
from spectral import Spectral

GRIDS = [
    ((((0.0, 2.0),), (17,))),
    ((((0.0, 1.0),), (40,))),
    ((((0.0, 2.0), (0.0, 2.0)), (9, 9))),
    ((((0.0, 1.0), (0.0, 3.0)), (8, 12))),
]
DELTA = 0.15
ALPHA = 0.3
TOL = 1e-10


def rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.fixture(params=GRIDS, ids=lambda g: "x".join(map(str, g[1])))
def case(request):
    bounds, n = request.param
    grid = make_grid(len(n), bounds, n)
    sp = Spectral(bounds, n)
    b = np.random.default_rng(sum(n)).standard_normal(grid.interior_shape)
    return grid, sp, b


def test_laplacian_and_filter_match_dense(case):
    grid, sp, b = case
    lap, a_mat, g_mat = dense_matrices(grid, DELTA)
    flat = b.ravel()
    theta = 0.37
    shifted = np.eye(grid.interior_count) + theta * lap
    assert rel(sp.solve_shifted(theta, b).ravel(), np.linalg.solve(shifted, flat)) < TOL
    assert rel(sp.apply_filter(DELTA, b).ravel(), g_mat @ flat) < TOL
    assert np.sort(sp.lam.ravel()) == pytest.approx(np.linalg.eigvalsh(lap), rel=1e-12)


def test_tl_and_itl_match_dense(case):
    grid, sp, b = case
    _, _, g_mat = dense_matrices(grid, DELTA)
    flat = b.ravel()
    op = g_mat + ALPHA * np.eye(grid.interior_count)
    u = np.linalg.solve(op, flat)
    assert rel(sp.tl(DELTA, b, ALPHA).ravel(), u) < TOL
    iterates, norms = sp.itl(DELTA, b, ALPHA, 3)
    weight = np.prod([(hi - lo) / m for (lo, hi), m in zip(grid.bounds, grid.n)])
    for j in range(1, 4):
        step = np.linalg.solve(op, flat - g_mat @ u)
        u = u + step
        assert rel(iterates[j].ravel(), u) < TOL
        assert norms[j - 1] == pytest.approx(np.sqrt(weight * step @ step), rel=TOL)


def test_mtl_and_mitlar_match_dense_series(case):
    grid, sp, b = case
    flat = b.ravel()
    iterates, _ = sp.mitlar(DELTA, b, ALPHA, 3)
    for j in range(4):
        d_mat, _, _, d_j = dense_reg_operators(grid, DELTA, ALPHA, j)
        assert rel(iterates[j].ravel(), d_j @ flat) < TOL
        if j == 0:
            assert rel(sp.mtl(DELTA, b, ALPHA).ravel(), d_mat @ flat) < TOL


def test_stopping_energies_match_dense(case):
    grid, sp, b = case
    _, _, g_mat = dense_matrices(grid, DELTA)
    eps = 0.01 * np.random.default_rng(1).standard_normal(grid.interior_shape)
    weight = sp.weight
    _, _, _, energies = sp.stopping(DELTA, b, eps, 0.2, 0.0, 3)
    iterates, _ = sp.mitlar(DELTA, b, 0.2, 3)
    for j, v in enumerate(iterates):
        v = v.ravel()
        dense = weight * (0.5 * v @ (g_mat @ v) - (b.ravel() + eps.ravel()) @ v)
        assert energies[j] == pytest.approx(dense, rel=1e-10)
