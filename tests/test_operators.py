"""Stencil, shifted solves, filter pair, and dense oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dst

from helmdeconv import (
    Field,
    HelmholtzFilter,
    SolverError,
    apply_A,
    apply_filter,
    dense_matrices,
    h1_seminorm,
    l2_norm,
    make_grid,
    neg_laplacian,
    sample_function,
    solve_shifted,
    zero_field,
)
from helmdeconv.operators import _dst, _eigenvalues


def eigenmode(grid, k):
    """Discrete Dirichlet Laplacian eigenpair sin(k*pi*x) (per-axis product in 2D)."""
    if grid.dim == 1:
        field = sample_function(grid, lambda x: np.sin(k * np.pi * x))
    else:
        field = sample_function(grid, lambda x, y: np.sin(k * np.pi * x) * np.sin(k * np.pi * y))
    lam = sum(
        4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2 for h in grid.h
    )
    return field, lam


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.standard_normal(grid.interior_shape))


def test_neg_laplacian_zero():
    grid = make_grid(2, (0.0, 1.0), 6)
    out = neg_laplacian(zero_field(grid))
    assert not out.values.any()


def test_neg_laplacian_hand_stencil():
    # h^2 = 0.0625 and zero boundary: (2*1-0-1)/h^2 = 16, (2*1-1-1)/h^2 = 0
    grid = make_grid(1, (0.0, 1.0), 4)
    out = neg_laplacian(Field(grid, [1.0, 1.0, 1.0]))
    assert out.values == pytest.approx([16.0, 0.0, 16.0])


def test_neg_laplacian_eigenmode_against_dense_eigendecomposition():
    grid = make_grid(1, (0.0, 1.0), 16)
    lap, _, _ = dense_matrices(grid, 0.1)
    eigs = np.sort(np.linalg.eigvalsh(lap))
    h = grid.h[0]
    formula = np.sort([4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2 for k in range(1, 16)])
    assert eigs == pytest.approx(formula, rel=1e-12)
    for k in (1, 3, 7):
        mode, lam = eigenmode(grid, k)
        assert neg_laplacian(mode).values == pytest.approx(lam * mode.values, rel=1e-11)


def test_apply_A_spectral_and_identity_limit():
    grid = make_grid(1, (0.0, 1.0), 32)
    mode, lam = eigenmode(grid, 2)
    filt = HelmholtzFilter(grid, 0.07)
    out = apply_A(filt, mode)
    assert out.values == pytest.approx((1 + 0.07**2 * lam) * mode.values, rel=1e-12)
    assert not apply_A(filt, zero_field(grid)).values.any()
    # delta -> 0: A approaches the identity
    tiny = HelmholtzFilter(grid, 1e-9)
    out = apply_A(tiny, mode)
    assert np.max(np.abs(out.values - mode.values)) < 1e-18 * lam + 1e-12


def test_apply_filter_spectral_and_roundtrip():
    grid = make_grid(1, (0.0, 1.0), 32)
    filt = HelmholtzFilter(grid, 0.05)
    mode, lam = eigenmode(grid, 3)
    gain = 1.0 / (1.0 + 0.05**2 * lam)
    smoothed = apply_filter(filt, mode)
    assert smoothed.values == pytest.approx(gain * mode.values, rel=1e-12)
    f = random_field(grid, 11)
    roundtrip = apply_filter(filt, apply_A(filt, f))
    assert l2_norm(roundtrip - f) <= 1e-10 * l2_norm(f)
    assert not apply_filter(filt, zero_field(grid)).values.any()


def test_filter_grid_mismatch():
    filt = HelmholtzFilter(make_grid(1, (0.0, 1.0), 8), 0.1)
    other = zero_field(make_grid(1, (0.0, 1.0), 16))
    with pytest.raises(ValueError):
        apply_A(filt, other)
    with pytest.raises(ValueError):
        apply_filter(filt, other)


def test_filter_requires_positive_radius():
    grid = make_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        HelmholtzFilter(grid, 0.0)


@pytest.mark.parametrize("delta", [1e155, 1e200, np.inf])
def test_filter_rejects_a_radius_with_non_finite_square(delta):
    # delta**2 used to escape as an OverflowError, and inf gave theta = inf
    grid = make_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError, match="non-finite square"):
        HelmholtzFilter(grid, delta)


def test_solve_shifted_theta_zero_is_identity():
    grid = make_grid(2, (0.0, 1.0), 6)
    rhs = random_field(grid, 5)
    out = solve_shifted(grid, 0.0, rhs)
    assert out.values == pytest.approx(rhs.values)


def test_solve_shifted_rejects_negative_theta_and_mismatch():
    grid = make_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        solve_shifted(grid, -1.0, zero_field(grid))
    with pytest.raises(ValueError):
        solve_shifted(grid, 1.0, zero_field(make_grid(1, (0.0, 1.0), 16)))


def test_solve_shifted_spectral():
    grid = make_grid(1, (0.0, 2.0), 40)
    mode, lam = eigenmode(grid, 1.5)  # k*b = 3 is an integer, so still a mode
    theta = 0.03
    out = solve_shifted(grid, theta, mode)
    assert out.values == pytest.approx(mode.values / (1 + theta * lam), rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 101), (1, 1025), (2, 5), (2, 12), (2, 33)])
def test_solve_shifted_matches_dense_solve(dim, n):
    # up to 1024 interior nodes in 1D (n=1025) and 2D (n=33 -> 32^2)
    grid = make_grid(dim, (0.0, 1.0), n)
    theta = 0.7 * grid.h[0]  # O(h) shift keeps the system well away from identity
    rhs = random_field(grid, n)
    lap, _, _ = dense_matrices(grid, 0.1)
    system = np.eye(grid.interior_count) + theta * lap
    expected = np.linalg.solve(system, rhs.values.ravel())
    out = solve_shifted(grid, theta, rhs)
    err = np.linalg.norm(out.values.ravel() - expected) / np.linalg.norm(expected)
    assert err <= 1e-10


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (3, 16), (5, 127)])
def test_dst_matches_scipy_and_is_its_own_inverse(shape):
    values = np.random.default_rng(len(shape) * 1000 + shape[-1]).standard_normal(shape)
    out = _dst(values)
    assert np.max(np.abs(out - dst(values, type=1, norm="ortho"))) <= 1e-13
    assert np.max(np.abs(_dst(out) - values)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_shifted_rejects_non_finite_input(dim):
    grid = make_grid(dim, (0.0, 1.0), 20)
    values = random_field(grid, 1).values.copy()
    values.flat[7] = np.nan
    with pytest.raises(SolverError):
        solve_shifted(grid, 0.05, Field(grid, values))
    values.flat[7] = np.inf
    with pytest.raises(SolverError):
        solve_shifted(grid, 0.05, Field(grid, values))


@pytest.mark.parametrize("n", [2, 1000])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_shifted_1d_rejects_non_finite_at_either_end(n, bad):
    # a single interior node, and the first and last of many
    grid = make_grid(1, (0.0, 1.0), n)
    filt = HelmholtzFilter(grid, 0.05)
    for index in (0, -1):
        values = random_field(grid, n).values.copy()
        values[index] = bad
        with pytest.raises(SolverError):
            apply_filter(filt, Field(grid, values))


def test_eigenvalues_are_cached_and_read_only():
    lam = _eigenvalues(64, 1.0 / 64)
    assert _eigenvalues(64, 1.0 / 64) is lam
    with pytest.raises(ValueError):
        lam[0] = 0.0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 10.0),
    n=st.integers(2, 1025),
    a=st.floats(-2.0, 2.0),
    length=st.floats(1.0, 3.0),
)
@example(seed=0, theta=10.0, n=2, a=0.0, length=1.0)
def test_solve_shifted_1d_matches_dense(seed, theta, n, a, length):
    # n=2 is a single interior node.  The dense LU solve, not the DST solve,
    # sets the tolerance: at theta=10, h=1/1025 its own error reaches ~6e-13,
    # and the inverse at DENSE_CAP nodes would cost seconds per example.
    grid = make_grid(1, (a, a + length), n)
    rhs = random_field(grid, seed)
    lap, _, _ = dense_matrices(grid, 0.1)
    expected = np.linalg.solve(np.eye(grid.interior_count) + theta * lap, rhs.values)
    out = solve_shifted(grid, theta, rhs)
    assert np.linalg.norm(out.values - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 10.0),
    n=st.tuples(st.integers(2, 32), st.integers(2, 32)),
    a=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    length=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
)
def test_solve_shifted_2d_matches_dense_on_anisotropic_grids(seed, theta, n, a, length):
    # unequal intervals and bounds per axis; the square case is nx == ny
    grid = make_grid(2, [(a[0], a[0] + length[0]), (a[1], a[1] + length[1])], n)
    rhs = random_field(grid, seed)
    lap, _, _ = dense_matrices(grid, 0.1)
    system = np.eye(grid.interior_count) + theta * lap
    expected = np.linalg.solve(system, rhs.values.ravel())
    out = solve_shifted(grid, theta, rhs)
    err = np.linalg.norm(out.values.ravel() - expected) / np.linalg.norm(expected)
    assert err <= 1e-12


@pytest.mark.parametrize("theta", [1.736e-5, 1.0])
def test_solve_shifted_2d_residual_at_n480(theta):
    # 479^2 nodes, far past the dense cap: check the stencil residual instead
    grid = make_grid(2, (0.0, 1.0), 480)
    rhs = random_field(grid, 480)
    out = solve_shifted(grid, theta, rhs)
    residual = out + theta * neg_laplacian(out) - rhs
    assert l2_norm(residual) <= 1e-12 * l2_norm(rhs)


def test_dense_matrices_smallest_grid():
    grid = make_grid(1, (0.0, 1.0), 2)
    h = grid.h[0]
    delta = 0.3
    lap, a_mat, g_mat = dense_matrices(grid, delta)
    assert lap.item() == pytest.approx(2.0 / h**2)
    assert a_mat.item() == pytest.approx(1.0 + 2.0 * delta**2 / h**2)
    assert g_mat.item() == pytest.approx(1.0 / (1.0 + 2.0 * delta**2 / h**2))


def test_dense_matrices_tridiagonal_pattern():
    grid = make_grid(1, (0.0, 1.0), 4)
    h = grid.h[0]
    lap, _, _ = dense_matrices(grid, 0.1)
    expected = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) / h**2
    assert lap == pytest.approx(expected)


def test_dense_inverse_identity():
    grid = make_grid(1, (0.0, 1.0), 16)
    _, a_mat, g_mat = dense_matrices(grid, 0.2)
    assert np.max(np.abs(a_mat @ g_mat - np.eye(15))) <= 1e-12


def test_dense_cap_enforced():
    with pytest.raises(ValueError):
        dense_matrices(make_grid(1, (0.0, 1.0), 5000), 0.1)


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 257), (2, 9), (2, 17)])
def test_dense_operators_symmetric_positive_definite(dim, n):
    # interior count stays <= 256
    grid = make_grid(dim, (0.0, 1.0), n)
    for delta in (0.01, 0.1, 1.0):
        lap, a_mat, g_mat = dense_matrices(grid, delta)
        for mat in (a_mat, g_mat):
            assert np.max(np.abs(mat - mat.T)) <= 1e-12
            assert np.linalg.eigvalsh(mat).min() > 0
        g_eigs = np.linalg.eigvalsh(g_mat)
        assert g_eigs.min() > 0
        assert g_eigs.max() <= 1 + 1e-12


def test_filter_stability_bounds():
    # ||G f|| <= ||f|| and the energy estimate
    # delta^2 |G f|_1^2 + 0.5 ||G f||^2 <= 0.5 ||f||^2
    for dim, n in ((1, 64), (2, 12)):
        grid = make_grid(dim, (0.0, 1.0), n)
        filt = HelmholtzFilter(grid, 0.08)
        for seed in range(3):
            f = random_field(grid, seed)
            smoothed = apply_filter(filt, f)
            assert l2_norm(smoothed) <= l2_norm(f) * (1 + 1e-12)
            energy = filt.delta**2 * h1_seminorm(smoothed) ** 2 + 0.5 * l2_norm(smoothed) ** 2
            assert energy <= 0.5 * l2_norm(f) ** 2 * (1 + 1e-10)


def test_filter_convergence_bound_and_slope():
    grid = make_grid(1, (0.0, 1.0), 400)
    mode, lam = eigenmode(grid, 1)
    deltas = np.logspace(-3, -1, 9)
    errors = []
    for delta in deltas:
        filt = HelmholtzFilter(grid, float(delta))
        diff = mode - apply_filter(filt, mode)
        err = l2_norm(diff)
        errors.append(err)
        assert err <= np.sqrt(2.0) * delta**2 * l2_norm(neg_laplacian(mode)) * (1 + 1e-12)
    slope = np.polyfit(np.log(deltas), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.1
