"""Deconvolution schemes versus scalar spectral and dense-matrix oracles."""

import numpy as np
import pytest

from helmdeconv import (
    Field,
    HelmholtzFilter,
    Method,
    apply_A,
    deconvolve_itl,
    deconvolve_mitlar,
    deconvolve_mtl,
    deconvolve_tl,
    dense_matrices,
    dense_reg_operators,
    l2_norm,
    make_grid,
    mitlar_noise_free_bound,
    mitlar_noisy_bound,
    neg_laplacian,
    sample_function,
)
from test_operators import eigenmode, random_field


# --- independent oracles ----------------------------------------------------

def dense_tl(grid, delta, alpha, ubar_flat):
    _, _, g_mat = dense_matrices(grid, delta)
    eye = np.eye(grid.interior_count)
    return np.linalg.solve(g_mat + alpha * eye, ubar_flat)


def dense_itl_iterates(grid, delta, alpha, ubar_flat, num_updates):
    _, _, g_mat = dense_matrices(grid, delta)
    eye = np.eye(grid.interior_count)
    system = g_mat + alpha * eye
    u = np.linalg.solve(system, ubar_flat)
    out = [u]
    for _ in range(num_updates):
        u = u + np.linalg.solve(system, ubar_flat - g_mat @ u)
        out.append(u)
    return out


def dense_mitlar_iterates(grid, delta, alpha, ubar_flat, num_updates):
    """Series oracle: j-th iterate is D * sum_i (alpha D (I - G))^i applied to data."""
    _, _, g_mat = dense_matrices(grid, delta)
    eye = np.eye(grid.interior_count)
    d_mat = np.linalg.inv((1.0 - alpha) * g_mat + alpha * eye)
    term = alpha * d_mat @ (eye - g_mat)
    out = []
    partial = ubar_flat.copy()
    powered = ubar_flat.copy()
    out.append(d_mat @ partial)
    for _ in range(num_updates):
        powered = term @ powered
        partial = partial + powered
        out.append(d_mat @ partial)
    return out


def scalar_itl(gain, alpha, data, num_updates):
    u = data / (gain + alpha)
    out = [u]
    for _ in range(num_updates):
        u = u + (data - gain * u) / (gain + alpha)
        out.append(u)
    return out


def scalar_mitlar(gain, alpha, data, num_updates):
    system = (1.0 - alpha) * gain + alpha
    u = data / system
    out = [u]
    for _ in range(num_updates):
        u = u + (data - gain * u) / system
        out.append(u)
    return out


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# --- Tikhonov-Lavrentiev ----------------------------------------------------

def test_tl_eigenmode_scalar_oracle():
    grid = make_grid(1, (0.0, 1.0), 32)
    delta, alpha, k = 0.08, 0.15, 4
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, k)
    gain = 1.0 / (1.0 + delta**2 * lam)
    ubar = gain * mode
    out = deconvolve_tl(filt, ubar, alpha)
    expected = scalar_itl(gain, alpha, gain, 0)[0]
    assert out.values == pytest.approx(expected * mode.values, rel=1e-12)


def test_tl_small_alpha_approaches_exact_deconvolution():
    grid = make_grid(1, (0.0, 1.0), 64)
    filt = HelmholtzFilter(grid, 0.05)
    u = random_field(grid, 2)
    ubar = Field(grid, np.linalg.solve(dense_matrices(grid, 0.05)[1], u.values))
    errs = [l2_norm(deconvolve_tl(filt, ubar, alpha) - u) for alpha in (1e-2, 1e-5, 1e-9)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-7 * l2_norm(u)


def test_tl_matches_dense_solve():
    grid = make_grid(1, (0.0, 1.0), 16)
    delta, alpha = 0.1, 0.3
    filt = HelmholtzFilter(grid, delta)
    ubar = random_field(grid, 9)
    out = deconvolve_tl(filt, ubar, alpha)
    expected = dense_tl(grid, delta, alpha, ubar.values)
    assert rel_err(out.values, expected) <= 1e-10


def test_tl_rejects_nonpositive_alpha():
    grid = make_grid(1, (0.0, 1.0), 8)
    filt = HelmholtzFilter(grid, 0.1)
    with pytest.raises(ValueError):
        deconvolve_tl(filt, random_field(grid, 0), 0.0)


# --- iterated Tikhonov-Lavrentiev -------------------------------------------

def test_itl_zero_updates_equals_tl():
    grid = make_grid(1, (0.0, 1.0), 24)
    filt = HelmholtzFilter(grid, 0.07)
    ubar = random_field(grid, 4)
    trace = deconvolve_itl(filt, ubar, 0.2, 0)
    assert len(trace.iterates) == 1
    assert trace.update_norms == ()
    assert trace.final.values == pytest.approx(deconvolve_tl(filt, ubar, 0.2).values)


def test_itl_eigenmode_scalar_recurrence():
    grid = make_grid(1, (0.0, 1.0), 32)
    delta, alpha, k = 0.12, 0.2, 3
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, k)
    gain = 1.0 / (1.0 + delta**2 * lam)
    trace = deconvolve_itl(filt, gain * mode, alpha, 3)
    expected = scalar_itl(gain, alpha, gain, 3)
    for iterate, coeff in zip(trace.iterates, expected):
        assert iterate.values == pytest.approx(coeff * mode.values, rel=1e-11)
    # error multiplier per step is alpha/(gain+alpha)
    for j, iterate in enumerate(trace.iterates):
        observed = l2_norm(mode - iterate) / l2_norm(mode)
        assert observed == pytest.approx((alpha / (gain + alpha)) ** (j + 1), rel=1e-10)


def test_itl_matches_dense_recurrence():
    grid = make_grid(1, (0.0, 1.0), 16)
    delta, alpha = 0.09, 0.25
    filt = HelmholtzFilter(grid, delta)
    ubar = random_field(grid, 21)
    trace = deconvolve_itl(filt, ubar, alpha, 3)
    expected = dense_itl_iterates(grid, delta, alpha, ubar.values, 3)
    for iterate, dense in zip(trace.iterates, expected):
        assert rel_err(iterate.values, dense) <= 1e-10


# --- modified family ---------------------------------------------------------

def test_mitlar_alpha_one_start_is_identity():
    grid = make_grid(1, (0.0, 1.0), 32)
    filt = HelmholtzFilter(grid, 0.1)
    ubar = random_field(grid, 6)
    trace = deconvolve_mitlar(filt, ubar, 1.0, 2)
    assert trace.iterates[0].values == pytest.approx(ubar.values, rel=1e-12)


def test_mitlar_eigenmode_scalar_recurrence_and_error_multiplier():
    grid = make_grid(1, (0.0, 1.0), 32)
    delta, alpha, k = 0.12, 0.2, 3
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, k)
    gain = 1.0 / (1.0 + delta**2 * lam)
    trace = deconvolve_mitlar(filt, gain * mode, alpha, 3)
    expected = scalar_mitlar(gain, alpha, gain, 3)
    for iterate, coeff in zip(trace.iterates, expected):
        assert iterate.values == pytest.approx(coeff * mode.values, rel=1e-11)
    multiplier = alpha * delta**2 * lam / (1.0 + alpha * delta**2 * lam)
    for j, iterate in enumerate(trace.iterates):
        observed = l2_norm(mode - iterate) / l2_norm(mode)
        assert observed == pytest.approx(multiplier ** (j + 1), rel=1e-9)


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 9)])
def test_mitlar_matches_dense_series(dim, n):
    # 2D exercises the conjugate-gradient path against the dense oracle
    grid = make_grid(dim, (0.0, 1.0), n)
    delta, alpha = 0.11, 0.3
    filt = HelmholtzFilter(grid, delta)
    ubar = random_field(grid, 33)
    trace = deconvolve_mitlar(filt, ubar, alpha, 2)
    expected = dense_mitlar_iterates(grid, delta, alpha, ubar.values.ravel(), 2)
    for iterate, dense in zip(trace.iterates, expected):
        assert rel_err(iterate.values.ravel(), dense) <= 1e-10


def test_mitlar_error_equation_identity():
    # noise free: u - u_J == (alpha*delta^2)^(J+1) (D G)^(J+1) (-lap)^(J+1) u
    grid = make_grid(1, (0.0, 1.0), 16)
    delta, alpha = 0.1, 0.2
    filt = HelmholtzFilter(grid, delta)
    lap, a_mat, g_mat = dense_matrices(grid, delta)
    eye = np.eye(grid.interior_count)
    d_mat = np.linalg.inv((1.0 - alpha) * g_mat + alpha * eye)
    dg = d_mat @ g_mat
    u = random_field(grid, 17)
    ubar = Field(grid, g_mat @ u.values)
    for num_updates in range(4):
        trace = deconvolve_mitlar(filt, ubar, alpha, num_updates)
        observed = u.values - trace.final.values
        op = np.linalg.matrix_power(dg @ lap, num_updates + 1)
        expected = (alpha * delta**2) ** (num_updates + 1) * (op @ u.values)
        assert rel_err(observed, expected) <= 1e-9


def test_mitlar_monotone_improvement_in_updates():
    grid = make_grid(1, (0.0, 1.0), 64)
    delta = 0.06
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, 5)
    ubar = (1.0 / (1.0 + delta**2 * lam)) * mode
    for alpha in (0.1, 0.5, 1.0):
        trace = deconvolve_mitlar(filt, ubar, alpha, 4)
        errs = [l2_norm(mode - it) for it in trace.iterates]
        assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_mtl_is_zero_update_mitlar():
    grid = make_grid(1, (0.0, 1.0), 24)
    filt = HelmholtzFilter(grid, 0.08)
    ubar = random_field(grid, 8)
    out = deconvolve_mtl(filt, ubar, 0.2)
    trace = deconvolve_mitlar(filt, ubar, 0.2, 0)
    assert out.values == pytest.approx(trace.final.values)


def test_mtl_eigenmode():
    grid = make_grid(1, (0.0, 1.0), 32)
    delta, alpha, k = 0.09, 0.25, 2
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, k)
    ubar = (1.0 / (1.0 + delta**2 * lam)) * mode
    out = deconvolve_mtl(filt, ubar, alpha)
    assert out.values == pytest.approx(mode.values / (1 + alpha * delta**2 * lam), rel=1e-11)


def test_mtl_alpha_zero_is_exact_inversion():
    grid = make_grid(1, (0.0, 1.0), 16)
    filt = HelmholtzFilter(grid, 0.1)
    ubar = random_field(grid, 12)
    out = deconvolve_mtl(filt, ubar, 0.0)
    assert out.values == pytest.approx(apply_A(filt, ubar).values)


def test_mitlar_rejects_alpha_out_of_range():
    grid = make_grid(1, (0.0, 1.0), 8)
    filt = HelmholtzFilter(grid, 0.1)
    ubar = random_field(grid, 0)
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError):
            deconvolve_mitlar(filt, ubar, alpha, 1)


# --- error bounds -------------------------------------------------------------

def test_noise_free_bound_dominates_eigenmode_error():
    grid = make_grid(1, (0.0, 1.0), 64)
    delta, alpha, k = 0.05, 0.2, 4
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, k)
    ubar = (1.0 / (1.0 + delta**2 * lam)) * mode
    bound = mitlar_noise_free_bound(filt, mode, alpha, 0)
    assert bound == pytest.approx(alpha * delta**2 * lam * l2_norm(mode), rel=1e-11)
    observed = l2_norm(mode - deconvolve_mtl(filt, ubar, alpha))
    assert observed <= bound * (1 + 1e-8)


def test_noise_free_bound_trivial_zeros():
    grid = make_grid(1, (0.0, 1.0), 16)
    filt = HelmholtzFilter(grid, 0.1)
    zero = Field(grid, np.zeros(15))
    assert mitlar_noise_free_bound(filt, zero, 0.3, 2) == 0.0
    assert mitlar_noise_free_bound(filt, random_field(grid, 3), 0.0, 2) == 0.0


def test_noisy_bound_arithmetic():
    grid = make_grid(1, (0.0, 1.0), 16)
    filt = HelmholtzFilter(grid, 0.1)
    u = random_field(grid, 5)
    free = mitlar_noise_free_bound(filt, u, 0.1, 0)
    assert mitlar_noisy_bound(filt, u, 0.1, 0, 0.0) == pytest.approx(free)
    assert mitlar_noisy_bound(filt, u, 0.1, 0, 0.01) == pytest.approx(free + 0.1)
    with pytest.raises(ValueError):
        mitlar_noisy_bound(filt, u, 0.0, 0, 0.01)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_noisy_bound_dominates_observed_error(n):
    grid = make_grid(1, (0.0, 1.0), n)
    delta, alpha = 0.08, 0.2
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, 2)
    clean = (1.0 / (1.0 + delta**2 * lam)) * mode
    rng = np.random.default_rng(n)
    raw = Field(grid, rng.standard_normal(grid.interior_shape))
    eps0 = 0.01 * l2_norm(clean)
    epsilon = raw * (eps0 / l2_norm(raw))
    data = clean - epsilon
    for num_updates in (0, 1, 2):
        trace = deconvolve_mitlar(filt, data, alpha, num_updates)
        observed = l2_norm(mode - trace.final)
        bound = mitlar_noisy_bound(filt, mode, alpha, num_updates, eps0)
        assert observed <= bound * (1 + 1e-10)


# --- dense regularization operators -------------------------------------------

def test_dense_reg_operators_alpha_one_is_identity():
    grid = make_grid(1, (0.0, 1.0), 16)
    d_mat, dg, residual_op, d_j = dense_reg_operators(grid, 0.1, 1.0, 0)
    eye = np.eye(15)
    assert np.max(np.abs(d_mat - eye)) <= 1e-12
    assert np.max(np.abs(d_j - eye)) <= 1e-12
    assert np.max(np.abs(dg + residual_op - eye)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 1.0])
def test_dense_reg_operator_spectral_radii(alpha):
    grid = make_grid(1, (0.0, 1.0), 32)
    _, dg, residual_op, _ = dense_reg_operators(grid, 0.1, alpha, 1)
    assert np.max(np.abs(np.linalg.eigvalsh(dg))) <= 1 + 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(residual_op))) <= 1 + 1e-12


@pytest.mark.parametrize("n", [16, 65])
def test_dense_reg_operator_norm_bounds(n):
    # interior count n-1 stays <= 64; spectral norms of the symmetric operators
    grid = make_grid(1, (0.0, 1.0), n)
    delta = 0.1
    for alpha in (0.01, 0.1, 0.5, 1.0):
        for num_updates in (0, 2):
            d_mat, dg, residual_op, d_j = dense_reg_operators(grid, delta, alpha, num_updates)
            _, _, g_mat = dense_matrices(grid, delta)
            assert np.max(np.abs(np.linalg.eigvalsh(g_mat))) <= 1 + 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(d_mat))) <= 1 / alpha + 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(dg))) <= 1 + 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(residual_op))) <= 1 + 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(d_j))) <= (num_updates + 1) / alpha + 1e-12


def test_dense_reg_operators_map_data_to_iterates():
    grid = make_grid(1, (0.0, 1.0), 16)
    delta, alpha = 0.1, 0.25
    filt = HelmholtzFilter(grid, delta)
    ubar = random_field(grid, 40)
    for num_updates in range(3):
        _, _, _, d_j = dense_reg_operators(grid, delta, alpha, num_updates)
        trace = deconvolve_mitlar(filt, ubar, alpha, num_updates)
        assert rel_err(trace.final.values, d_j @ ubar.values) <= 1e-9


def test_dense_reg_operators_cap():
    with pytest.raises(ValueError):
        dense_reg_operators(make_grid(1, (0.0, 1.0), 2000), 0.1, 0.5, 1)


# --- scheme selector ---------------------------------------------------------

def test_method_values():
    assert {m.value for m in Method} == {"tl", "itl", "mtl", "mitlar"}
