"""The shared refinement loop: solve counts, halt/record agreement, one dispatch."""

import pytest

import helmdeconv.operators as operators_module
import helmdeconv.regularizers as regularizers_module
from helmdeconv import (
    Method,
    alpha_sweep,
    deconvolve,
    deconvolve_itl,
    deconvolve_mitlar,
    deconvolve_mtl,
    deconvolve_tl,
    preset_config,
    run_comparison,
    run_mitlar_with_stopping,
)
from test_energy import _noisy_setup

SEEDS = range(50)
ALPHAS = (0.1, 0.25, 0.5)
LEVELS = (0.001, 0.05)  # 0.001 with alpha 0.5 runs to j_max unstopped


@pytest.fixture
def solves(monkeypatch):
    """Count shifted solves by the module that asked for them."""
    counts = {"regularizers": 0, "operators": 0}
    real_solve = operators_module.solve_shifted

    def counting(module):
        def solve(*args, **kwargs):
            counts[module] += 1
            return real_solve(*args, **kwargs)
        return solve

    for module in (regularizers_module, operators_module):
        name = module.__name__.rsplit(".", 1)[-1]
        monkeypatch.setattr(module, "solve_shifted", counting(name))
    return counts


def _bits(field):
    return field.values.tobytes()


# --- solve counts: the loop solves exactly when a pair is drawn ------------------

@pytest.mark.parametrize("num_updates", [0, 1, 4])
@pytest.mark.parametrize("run", [deconvolve_itl, deconvolve_mitlar])
def test_iterated_schemes_solve_once_per_iterate(solves, run, num_updates):
    filt, data, _, _ = _noisy_setup(n=32)
    run(filt, data, 0.25, num_updates)
    assert solves["regularizers"] == num_updates + 1


@pytest.mark.parametrize("run", [deconvolve_tl, deconvolve_mtl])
def test_single_step_schemes_solve_once(solves, run):
    filt, data, _, _ = _noisy_setup(n=32)
    run(filt, data, 0.25)
    assert solves["regularizers"] == 1


def test_stopping_record_only_solves_jmax_plus_one(solves):
    filt, data, epsilon, eps0 = _noisy_setup()
    run = run_mitlar_with_stopping(filt, data, 0.25, eps0, 15, epsilon=epsilon)
    assert run.stop_index < 15  # the rule fired, yet every candidate was solved
    assert solves["regularizers"] == 16


def test_stopping_halt_solves_through_the_rejected_candidate(solves):
    filt, data, epsilon, eps0 = _noisy_setup()
    run = run_mitlar_with_stopping(filt, data, 0.25, eps0, 15, mode="halt",
                                   epsilon=epsilon)
    assert run.reason == "criterion"
    assert solves["regularizers"] == run.stop_index + 2


def test_comparison_solves_two_traces_per_alpha(solves):
    config = preset_config("compare1d")
    config.n = 64
    config.alphas = alpha_sweep(1e-3, 1.0, 3)
    config.j_list = (1, 3)
    run_comparison(config)
    assert solves["regularizers"] == 3 * 2 * (3 + 1)
    assert solves["operators"] == 1  # the filter applied to the signal


# --- seeded properties -----------------------------------------------------------

@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_halt_and_record_only_agree_bitwise(alpha, level):
    for seed in SEEDS:
        filt, data, epsilon, eps0 = _noisy_setup(level=level, seed=seed)
        halted = run_mitlar_with_stopping(filt, data, alpha, eps0, 12, mode="halt",
                                          epsilon=epsilon)
        recorded = run_mitlar_with_stopping(filt, data, alpha, eps0, 12,
                                            mode="record_only", epsilon=epsilon)
        assert (halted.stop_index, halted.reason) == (recorded.stop_index, recorded.reason)
        kept = len(halted.trace.iterates)
        assert [_bits(u) for u in halted.trace.iterates] == [
            _bits(u) for u in recorded.trace.iterates[:kept]]
        assert halted.trace.update_norms == recorded.trace.update_norms[:kept - 1]
        assert halted.energies == recorded.energies[:kept]
        logged = len(halted.candidate_update_norms)
        assert halted.candidate_update_norms == recorded.candidate_update_norms[:logged]
        assert halted.continue_flags == recorded.continue_flags[:logged]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_deconvolve_matches_each_named_scheme_bitwise(alpha, level):
    for seed in SEEDS:
        filt, data, _, _ = _noisy_setup(level=level, seed=seed)
        for method, single in ((Method.TL, deconvolve_tl), (Method.MTL, deconvolve_mtl)):
            trace = deconvolve(filt, data, method, alpha)
            assert trace.update_norms == ()
            assert _bits(trace.final) == _bits(single(filt, data, alpha))
        for method, iterated in ((Method.ITL, deconvolve_itl),
                                 (Method.MITLAR, deconvolve_mitlar)):
            trace = deconvolve(filt, data, method, alpha, 3)
            named = iterated(filt, data, alpha, 3)
            assert [_bits(u) for u in trace.iterates] == [_bits(u) for u in named.iterates]
            assert trace.update_norms == named.update_norms


@pytest.mark.parametrize("method", [Method.TL, Method.MTL])
def test_deconvolve_rejects_updates_on_single_step_schemes(method):
    filt, data, _, _ = _noisy_setup(n=16)
    with pytest.raises(ValueError, match="takes no updates"):
        deconvolve(filt, data, method, 0.25, 2)

