"""Signal presets, noise injection, and relative error."""

import numpy as np
import pytest

from helmdeconv import (
    HelmholtzFilter,
    SignalSpec,
    apply_filter,
    gen_noise,
    gen_signal,
    l2_norm,
    make_grid,
    relative_error,
    sample_function,
    signal_preset,
    zero_field,
)


def test_compare_preset_samples_expected_values():
    grid = make_grid(1, (0.0, 2.0), 1000)
    field = gen_signal(signal_preset("compare1d"), grid)
    xs = grid.axis_nodes(0)
    expected = np.sin(np.pi * xs) + 0.1 * np.sin(100 * np.pi * xs)
    assert field.values == pytest.approx(expected)


def test_stopping_preset_samples_expected_values():
    grid = make_grid(1, (0.0, 2.0), 1000)
    field = gen_signal(signal_preset("stopping1d"), grid)
    xs = grid.axis_nodes(0)
    assert field.values == pytest.approx(np.sin(np.pi * xs) + np.sin(200 * np.pi * xs))


def test_rates_preset_is_2d_product_of_sines():
    grid = make_grid(2, (0.0, 2.0), 60)
    field = gen_signal(signal_preset("rates2d"), grid)
    xs = grid.axis_nodes(0)
    ys = grid.axis_nodes(1)
    expected = (np.outer(np.sin(np.pi * xs), np.sin(np.pi * ys))
                + np.outer(np.sin(20 * np.pi * xs), np.sin(20 * np.pi * ys)))
    assert field.values == pytest.approx(expected)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        signal_preset("nope")


def test_empty_custom_signal_is_zero():
    grid = make_grid(1, (0.0, 1.0), 8)
    field = gen_signal(SignalSpec(()), grid)
    assert not field.values.any()


def test_boundary_incompatible_term_rejected():
    grid = make_grid(1, (0.0, 2.0), 8)
    with pytest.raises(ValueError):
        gen_signal(SignalSpec(((1.0, (0.3,)),)), grid)
    # half-integer frequency is fine on [0, 2]: 0.5*2 = 1
    gen_signal(SignalSpec(((1.0, (0.5,)),)), grid)


def test_boundary_check_rejects_an_overflowing_frequency():
    # 1e308*2 is inf, and round(inf) used to raise OverflowError
    grid = make_grid(1, (0.0, 2.0), 8)
    with pytest.raises(ValueError, match="does not vanish"):
        gen_signal(SignalSpec(((1.0, (1e308,)),)), grid)


def test_signal_dimension_mismatch_rejected():
    grid = make_grid(2, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        gen_signal(SignalSpec(((1.0, (1.0,)),)), grid)


def test_gen_noise_zero_level():
    grid = make_grid(1, (0.0, 1.0), 32)
    reference = sample_function(grid, lambda x: np.sin(np.pi * x))
    noise = gen_noise(3, 0.0, reference)
    assert not noise.epsilon.values.any()
    assert noise.eps0 == 0.0


def test_gen_noise_exact_norm_and_determinism():
    grid = make_grid(1, (0.0, 2.0), 1000)
    u = gen_signal(signal_preset("stopping1d"), grid)
    filt = HelmholtzFilter(grid, 6 * grid.h[0])
    reference = apply_filter(filt, u)
    noise = gen_noise(42, 0.01, reference)
    target = 0.01 * l2_norm(reference)
    assert abs(l2_norm(noise.epsilon) - target) <= 1e-12 * target
    assert noise.eps0 == pytest.approx(target, rel=1e-12)
    again = gen_noise(42, 0.01, reference)
    assert again.epsilon.values == pytest.approx(noise.epsilon.values, abs=0.0)
    other = gen_noise(43, 0.01, reference)
    assert not np.allclose(other.epsilon.values, noise.epsilon.values)


def test_gen_noise_respects_quadrature():
    grid = make_grid(1, (0.0, 1.0), 64)
    reference = sample_function(grid, lambda x: np.sin(np.pi * x))
    noise = gen_noise(7, 0.05, reference, quadrature="simpson")
    target = 0.05 * l2_norm(reference, "simpson")
    assert l2_norm(noise.epsilon, "simpson") == pytest.approx(target, rel=1e-12)


def test_gen_noise_simpson_bound_holds_over_seeds():
    # eps0 is a Simpson norm here, so the model must check it in that norm
    grid = make_grid(1, (0.0, 2.0), 1000)
    reference = gen_signal(signal_preset("stopping1d"), grid)
    target = 0.01 * l2_norm(reference, "simpson")
    for seed in range(200):
        noise = gen_noise(seed, 0.01, reference, quadrature="simpson")
        assert noise.quadrature == "simpson"
        assert noise.eps0 == pytest.approx(target, rel=1e-12)


def test_gen_noise_rejects_negative_level():
    grid = make_grid(1, (0.0, 1.0), 8)
    with pytest.raises(ValueError):
        gen_noise(0, -0.1, zero_field(grid))


@pytest.mark.parametrize("level", [1e308, np.nan])
def test_gen_noise_rejects_a_non_finite_noise_norm(level):
    # the overflowed noise used to reach the solver and exit 2 from the CLI
    grid = make_grid(1, (0.0, 2.0), 20)
    reference = gen_signal(signal_preset("stopping1d"), grid)
    with pytest.raises(ValueError, match="non-finite noise norm"):
        gen_noise(0, level, reference)


def test_relative_error_basic_cases():
    grid = make_grid(1, (0.0, 1.0), 32)
    u = sample_function(grid, lambda x: np.sin(np.pi * x))
    assert relative_error(u, u) == 0.0
    assert relative_error(u, zero_field(grid)) == pytest.approx(1.0)
    assert relative_error(u, 2.0 * u) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(zero_field(grid), u)
