"""Experiment runners: sweeps, rates, stopping, and their CSV output."""

import numpy as np
import pytest

from helmdeconv import (
    ExperimentConfig,
    Method,
    ScaleRule,
    SignalSpec,
    alpha_sweep,
    convergence_rates,
    preset_config,
    run_comparison,
    run_filter_check,
    run_rates,
    run_stopping,
)


def test_scale_rules():
    assert ScaleRule("absolute", 0.01).resolve(1000, 0.002) == 0.01
    assert ScaleRule("h_multiple", 6.0).resolve(1000, 0.002) == pytest.approx(0.012)
    rule = ScaleRule("power_law", 0.1, 0.25)
    assert rule.resolve(60, 2 / 60) == pytest.approx(0.1 * (2 * np.pi / 60) ** 0.25)
    with pytest.raises(ValueError):
        ScaleRule("geometric", 1.0)


def test_alpha_sweep_endpoints_and_validation():
    sweep = alpha_sweep(1e-3, 1.0, 25)
    assert len(sweep) == 25
    assert sweep[0] == pytest.approx(1e-3)
    assert sweep[-1] == pytest.approx(1.0)
    assert all(a < b for a, b in zip(sweep, sweep[1:]))
    with pytest.raises(ValueError):
        alpha_sweep(1.0, 1e-3, 5)
    with pytest.raises(ValueError):
        alpha_sweep(1e-3, 1.0, 1)


@pytest.mark.parametrize("rule", [ScaleRule("power_law", 0.1, -1e300),
                                  ScaleRule("h_multiple", 1e308), ScaleRule("absolute", np.inf)])
def test_scale_rule_rejects_a_non_finite_value(rule):
    # (2*pi/8)**-1e300 overflowed with an OverflowError traceback from the CLI
    with pytest.raises(ValueError, match=rule.kind):
        rule.resolve(8, 10.0)


def test_alpha_sweep_caps_the_count_before_allocating():
    from helmdeconv.experiments import MAX_SWEEP_POINTS

    assert len(alpha_sweep(1e-3, 1.0, MAX_SWEEP_POINTS)) == MAX_SWEEP_POINTS
    # 10**11 points would need 745 GiB; the cap must reject it before np.logspace runs
    with pytest.raises(ValueError, match="sweep points"):
        alpha_sweep(1e-3, 1.0, 10**11)


def test_preset_config_unknown_name():
    with pytest.raises(ValueError):
        preset_config("mystery")


def _small_compare_config(tmp_path=None):
    config = preset_config("compare1d", out_dir=tmp_path)
    config.alphas = alpha_sweep(1e-3, 1.0, 5)
    config.j_list = (1, 2)
    return config


def test_comparison_modified_scheme_has_lowest_error(tmp_path):
    config = _small_compare_config(tmp_path / "out")
    result = run_comparison(config)
    assert len(result.rows) == 5 * 4 * 2
    for j in config.j_list:
        mit = result.errors(Method.MITLAR, j)
        for other in (Method.TL, Method.ITL, Method.MTL):
            errs = result.errors(other, j)
            for alpha in config.alphas:
                assert mit[alpha] <= errs[alpha] * (1 + 1e-9)
    names = {p.name for p in result.files}
    assert names == {"compare_J1.csv", "compare_J2.csv", "compare_summary.txt"}


def test_comparison_alpha_one_start_matches_filter_error(tmp_path):
    import helmdeconv as hd

    config = _small_compare_config()
    config.alphas = (1.0,)
    config.j_list = (1,)
    result = run_comparison(config)
    grid = hd.make_grid(1, (0.0, 2.0), config.n)
    u = hd.gen_signal(config.signal, grid)
    filt = hd.HelmholtzFilter(grid, 0.01)
    ubar = hd.apply_filter(filt, u)
    start_error = hd.relative_error(u, ubar)
    mit = result.errors(Method.MITLAR, 1)[1.0]
    assert mit <= start_error  # one update refines the identity start


def test_comparison_gap_to_itl_widens_with_updates():
    # on the log-scale error plots the separation is the error ratio
    config = preset_config("compare1d")
    config.alphas = (1e-3,)
    config.j_list = (1, 2, 3)
    result = run_comparison(config)
    ratios = [
        result.errors(Method.ITL, j)[1e-3] / result.errors(Method.MITLAR, j)[1e-3]
        for j in (1, 2, 3)
    ]
    assert ratios[0] < ratios[1] < ratios[2]


def test_comparison_requires_sweep():
    config = preset_config("compare1d")
    config.alphas = ()
    with pytest.raises(ValueError):
        run_comparison(config)


@pytest.mark.parametrize("j_list", [(1, 1), (-1, 2), (2, 0, 2), ()])
def test_comparison_rejects_repeated_or_negative_update_counts(tmp_path, j_list):
    # (1, 1) wrote every row twice; J=-1 read iterates[-1], the J=2 iterate
    config = _small_compare_config(tmp_path / "out")
    config.j_list = j_list
    with pytest.raises(ValueError, match="distinct nonnegative update counts"):
        run_comparison(config)
    assert not (tmp_path / "out").exists()


def test_comparison_csv_deterministic(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        config = _small_compare_config(tmp_path / tag)
        result = run_comparison(config)
        outputs.append(sorted(p.read_bytes() for p in result.files))
    assert outputs[0] == outputs[1]


def test_convergence_rates_recover_synthetic_order():
    refinements = [8, 16, 32, 64]
    for p in (0.5, 1.0, 2.0):
        errors = [3.7 * n ** (-p) for n in refinements]
        rates = convergence_rates(errors)
        assert rates[0] is None
        for rate in rates[1:]:
            assert rate == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("errors", [[1.0, 0.0], [0.0, 0.0], [1.0, np.inf], [np.nan, 1.0]])
def test_convergence_rates_need_positive_finite_errors(errors):
    # a zero error (e.g. from a zero signal) used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="positive finite"):
        convergence_rates(errors)


def test_rates_refinements_must_double():
    config = preset_config("rates2d")
    config.refinements = (60, 100)
    with pytest.raises(ValueError):
        run_rates(config)
    config.refinements = (60,)
    with pytest.raises(ValueError):
        run_rates(config)


def test_rates_rejects_a_repeated_case():
    # both repeats used to append to one error list, pairing n=8 errors with n=16
    config = preset_config("rates2d")
    config.refinements = (8, 16)
    config.rate_cases = ((Method.MITLAR, 1), (Method.TL, 0), (Method.MITLAR, 1))
    with pytest.raises(ValueError, match="repeat mitlar:1"):
        run_rates(config)


def test_rates_small_study_structure(tmp_path):
    config = preset_config("rates2d", out_dir=tmp_path / "out")
    config.signal = SignalSpec(((1.0, (1.0, 1.0)), (0.5, (3.0, 3.0))))
    config.refinements = (8, 16, 32)
    result = run_rates(config)
    assert set(result.tables) == {("mitlar", 0), ("mitlar", 1), ("tl", 0), ("itl", 1)}
    for rows in result.tables.values():
        assert [r[0] for r in rows] == [8, 16, 32]
        assert rows[0][2] is None and rows[0][4] is None
        for row in rows[1:]:
            assert row[2] is not None and row[4] is not None
    names = {p.name for p in result.files}
    assert names == {
        "rates_mitlar_J0.csv", "rates_mitlar_J1.csv",
        "rates_tl_J0.csv", "rates_itl_J1.csv", "rates_summary.txt",
    }
    csv_path = next(p for p in result.files if p.name == "rates_mitlar_J0.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,l2_error,l2_rate,h1_error,h1_rate"
    assert lines[1].split(",")[2] == ""  # first row has no rate


def test_rates_modified_scheme_improves_with_update():
    # one refinement pair is enough to see the J = 1 rate roughly double J = 0
    config = preset_config("rates2d")
    config.signal = SignalSpec(((1.0, (1.0, 1.0)), (0.5, (3.0, 3.0))))
    config.refinements = (16, 32)
    result = run_rates(config)
    rate0 = result.tables[("mitlar", 0)][-1][4]
    rate1 = result.tables[("mitlar", 1)][-1][4]
    assert rate1 > rate0


def test_stopping_single_run_outputs(tmp_path):
    config = preset_config("stopping1d", out_dir=tmp_path / "out")
    config.seed = 11
    result = run_stopping(config)
    assert len(result.runs) == 1
    run = result.runs[0]
    assert run.seed == 11
    assert len(run.candidate_update_norms) == config.j_max
    names = {p.name for p in result.files}
    assert names == {"stopping_run.csv", "stopping_summary.txt"}
    csv_lines = next(p for p in result.files if p.name == "stopping_run.csv").read_text().splitlines()
    assert len(csv_lines) == 2 + config.j_max
    assert "seed=11" in csv_lines[0]


def test_stopping_zero_noise_never_stops_by_criterion():
    config = preset_config("stopping1d")
    config.noise_level = 0.0
    config.j_max = 5
    result = run_stopping(config)
    assert result.runs[0].reason in ("max_iterations", "zero_update")
    assert result.runs[0].stop_index == 5


def test_stopping_monte_carlo_histogram(tmp_path):
    config = preset_config("stopping1d", out_dir=tmp_path / "out")
    config.mc_runs = 5
    config.seed = 100
    result = run_stopping(config)
    assert len(result.runs) == 5
    assert {run.seed for run in result.runs} == {100, 101, 102, 103, 104}
    assert sum(count for _, count in result.histogram) == 5
    names = {p.name for p in result.files}
    assert "stopping_histogram.csv" in names


def test_filter_check_roundtrip(tmp_path):
    config = preset_config("stopping1d", out_dir=tmp_path / "out")
    result = run_filter_check(config)
    assert result.residual <= 1e-10
    assert result.filtered_norm > 0
    names = {p.name for p in result.files}
    assert names == {"filtered_signal.csv", "filter_summary.txt"}
