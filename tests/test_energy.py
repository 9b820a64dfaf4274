"""Energies, descent identity, and the stopping rule."""

import numpy as np
import pytest

import helmdeconv.regularizers as regularizers_module
from helmdeconv import (
    Field,
    HelmholtzFilter,
    NoiseModel,
    SolverError,
    apply_filter,
    deconvolve_mitlar,
    descent_gap,
    dense_matrices,
    energy_noise_free,
    energy_noisy,
    inner_product,
    l2_norm,
    make_grid,
    run_mitlar_with_stopping,
    sample_function,
    stopping_should_continue,
    zero_field,
)
from test_operators import eigenmode, random_field


def test_energy_zero_candidate_is_zero():
    grid = make_grid(1, (0.0, 1.0), 16)
    filt = HelmholtzFilter(grid, 0.1)
    ubar = random_field(grid, 1)
    zero = zero_field(grid)
    assert energy_noise_free(filt, zero, ubar) == 0.0
    assert energy_noisy(filt, zero, ubar, random_field(grid, 2)) == 0.0


def test_energy_at_exact_solution():
    # with ubar = G u: E(u) = (G u, u)/2 - (ubar, u) = -(ubar, u)/2
    grid = make_grid(1, (0.0, 1.0), 32)
    filt = HelmholtzFilter(grid, 0.07)
    u = random_field(grid, 3)
    ubar = apply_filter(filt, u)
    assert energy_noise_free(filt, u, ubar) == pytest.approx(
        -0.5 * inner_product(ubar, u), rel=1e-12
    )


def test_energy_eigenmode_scalar_oracle():
    grid = make_grid(1, (0.0, 1.0), 32)
    delta, k, c = 0.09, 3, 1.7
    filt = HelmholtzFilter(grid, delta)
    mode, lam = eigenmode(grid, k)
    gain = 1.0 / (1.0 + delta**2 * lam)
    norm_sq = l2_norm(mode) ** 2
    v = c * mode
    ubar = gain * mode
    expected = 0.5 * gain * c**2 * norm_sq - gain * c * norm_sq
    assert energy_noise_free(filt, v, ubar) == pytest.approx(expected, rel=1e-12)


def test_noisy_energy_shift_identity():
    # E_noisy(v) - E_free(v) = -(eps, v) by definition
    grid = make_grid(1, (0.0, 1.0), 24)
    filt = HelmholtzFilter(grid, 0.1)
    v, ubar, eps = (random_field(grid, s) for s in (4, 5, 6))
    diff = energy_noisy(filt, v, ubar, eps) - energy_noise_free(filt, v, ubar)
    assert diff == pytest.approx(-inner_product(eps, v), rel=1e-12)
    assert energy_noisy(filt, v, ubar, zero_field(grid)) == pytest.approx(
        energy_noise_free(filt, v, ubar)
    )


def test_descent_gap_trivial_and_half():
    grid = make_grid(1, (0.0, 1.0), 16)
    filt = HelmholtzFilter(grid, 0.1)
    u = random_field(grid, 7)
    assert descent_gap(filt, u, u, 0.2) == 0.0
    d = random_field(grid, 8)
    assert descent_gap(filt, u, u + d, 0.5) == pytest.approx(
        0.5 * l2_norm(d) ** 2, rel=1e-12
    )


def test_descent_gap_matches_dense_quadratic_form():
    grid = make_grid(1, (0.0, 1.0), 16)
    delta, alpha = 0.1, 0.2
    filt = HelmholtzFilter(grid, delta)
    _, _, g_mat = dense_matrices(grid, delta)
    u = random_field(grid, 9)
    d = random_field(grid, 10)
    h = grid.h[0]
    quad_form = h * d.values @ (((0.5 - alpha) * g_mat + alpha * np.eye(15)) @ d.values)
    assert descent_gap(filt, u, u + d, alpha) == pytest.approx(quad_form, rel=1e-10)


def test_stopping_rule_cases():
    assert stopping_should_continue(0.1, 0.0, 0.5) is True
    assert stopping_should_continue(0.1, 0.0, 0.0) is False
    # 0.01/0.05 = 0.2 > 0.1 -> stop
    assert stopping_should_continue(0.1, 0.01, 0.05) is False
    # boundary: eps0/norm == alpha continues
    assert stopping_should_continue(0.1, 0.01, 0.1) is True
    with pytest.raises(ValueError):
        stopping_should_continue(0.0, 0.01, 0.1)
    with pytest.raises(ValueError):
        stopping_should_continue(0.1, -1.0, 0.1)


def _noisy_setup(n=64, delta=0.08, level=0.02, seed=1234):
    grid = make_grid(1, (0.0, 1.0), n)
    filt = HelmholtzFilter(grid, delta)
    u = sample_function(grid, lambda x: np.sin(np.pi * x) + 0.5 * np.sin(9 * np.pi * x))
    clean = apply_filter(filt, u)
    rng = np.random.default_rng(seed)
    raw = Field(grid, rng.standard_normal(grid.interior_shape))
    eps0 = level * l2_norm(clean)
    epsilon = raw * (eps0 / l2_norm(raw))
    data = clean - epsilon
    return filt, data, epsilon, eps0


def test_stopping_noise_free_runs_to_jmax():
    filt, data, _, _ = _noisy_setup(level=0.0, n=32)
    run = run_mitlar_with_stopping(filt, data, 0.25, 0.0, 6)
    assert run.stop_index == 6
    assert run.reason == "max_iterations"
    assert len(run.trace.iterates) == 7
    assert len(run.energies) == 7
    assert all(run.continue_flags)


def test_stopping_criterion_fires_and_halt_truncates():
    filt, data, epsilon, eps0 = _noisy_setup()
    recorded = run_mitlar_with_stopping(
        filt, data, 0.25, eps0, 15, mode="record_only", epsilon=epsilon
    )
    assert recorded.reason == "criterion"
    assert recorded.stop_index < 15
    assert len(recorded.trace.iterates) == 16
    halted = run_mitlar_with_stopping(
        filt, data, 0.25, eps0, 15, mode="halt", epsilon=epsilon
    )
    assert halted.stop_index == recorded.stop_index
    assert len(halted.trace.iterates) == halted.stop_index + 1
    for a, b in zip(halted.trace.iterates, recorded.trace.iterates):
        assert a.values == pytest.approx(b.values)
    # the first violating candidate is logged but not kept
    assert len(halted.candidate_update_norms) == halted.stop_index + 1
    assert halted.continue_flags[-1] is False


def test_stopping_certified_steps_do_not_increase_noisy_energy():
    filt, data, epsilon, eps0 = _noisy_setup(seed=77)
    run = run_mitlar_with_stopping(
        filt, data, 0.25, eps0, 12, mode="record_only", epsilon=epsilon
    )
    for j, flag in enumerate(run.continue_flags, start=1):
        if flag and j < len(run.energies):
            assert run.energies[j] <= run.energies[j - 1] + 1e-10


def test_stopping_mode_and_parameter_validation():
    filt, data, _, eps0 = _noisy_setup(n=16)
    with pytest.raises(ValueError):
        run_mitlar_with_stopping(filt, data, 0.25, eps0, 0)
    with pytest.raises(ValueError):
        run_mitlar_with_stopping(filt, data, 0.25, eps0, 5, mode="sometimes")
    with pytest.raises(ValueError):
        run_mitlar_with_stopping(filt, data, 1.25, eps0, 5)
    with pytest.raises(ValueError):
        run_mitlar_with_stopping(filt, data, 0.25, -1.0, 5)
    with pytest.warns(UserWarning):
        run_mitlar_with_stopping(filt, data, 0.75, eps0, 2)


def test_stopping_solver_failure_attaches_partial_run(monkeypatch):
    filt, data, _, eps0 = _noisy_setup(n=16)
    real_solve = regularizers_module.solve_shifted
    calls = {"count": 0}

    def flaky_solve(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] >= 3:
            raise SolverError("injected failure", residual=1.0)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(regularizers_module, "solve_shifted", flaky_solve)
    with pytest.raises(SolverError) as exc:
        run_mitlar_with_stopping(filt, data, 0.25, eps0, 10, compute_energies=False)
    partial = exc.value.partial_run
    assert len(partial.trace.iterates) == 2  # start plus one accepted update


@pytest.mark.parametrize("mode", ["halt", "record_only"])
def test_stopping_nan_data_raises_instead_of_stopping(mode):
    # NaN update norms used to fail the rule and read as a certified stop
    filt, data, epsilon, eps0 = _noisy_setup()
    values = data.values.copy()
    values[20] = np.nan
    with pytest.raises(SolverError) as exc:
        run_mitlar_with_stopping(filt, Field(filt.grid, values), 0.25, eps0, 8,
                                 mode=mode, epsilon=epsilon)
    assert exc.value.partial_run is None


def test_stopped_run_csv_layout(tmp_path):
    filt, data, epsilon, eps0 = _noisy_setup()
    run = run_mitlar_with_stopping(
        filt, data, 0.25, eps0, 8, mode="record_only", epsilon=epsilon
    )
    path = tmp_path / "run.csv"
    run.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# alpha=")
    assert f"jstar={run.stop_index}" in lines[0]
    assert lines[1] == "j,update_norm,energy_noisy,continue_flag"
    assert len(lines) == 2 + 8
    cells = lines[2].split(",")
    assert cells[0] == "1"
    assert float(cells[1]) == pytest.approx(run.candidate_update_norms[0])
    assert cells[3] in ("true", "false")


def test_stopped_run_csv_deterministic(tmp_path):
    filt, data, epsilon, eps0 = _noisy_setup(seed=5)
    paths = []
    for tag in ("a", "b"):
        run = run_mitlar_with_stopping(
            filt, data, 0.25, eps0, 8, mode="record_only", epsilon=epsilon
        )
        path = tmp_path / f"run_{tag}.csv"
        run.to_csv(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_noise_model_validates_bound():
    grid = make_grid(1, (0.0, 1.0), 16)
    eps = random_field(grid, 3)
    NoiseModel(eps, l2_norm(eps), 0.01)
    with pytest.raises(ValueError):
        NoiseModel(eps, 0.5 * l2_norm(eps), 0.01)
    with pytest.raises(ValueError):
        NoiseModel(eps, l2_norm(eps), -0.01)


# --- descent invariants --------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5])
def test_energy_descends_along_modified_iterates(alpha):
    for seed, (dim, n) in enumerate(((1, 64), (2, 8))):
        grid = make_grid(dim, (0.0, 1.0), n)
        filt = HelmholtzFilter(grid, 0.09)
        ubar = random_field(grid, 50 + seed)
        trace = deconvolve_mitlar(filt, ubar, alpha, 4)
        energies = [energy_noise_free(filt, it, ubar) for it in trace.iterates]
        for j, (e_curr, e_next) in enumerate(zip(energies, energies[1:])):
            assert e_next < e_curr
            gap = descent_gap(filt, trace.iterates[j], trace.iterates[j + 1], alpha)
            assert e_curr - e_next == pytest.approx(gap, rel=1e-8)
