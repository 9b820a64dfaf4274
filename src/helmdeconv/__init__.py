"""Helmholtz differential filtering and Tikhonov-Lavrentiev deconvolution.

A finite-difference toolkit for the discrete differential (Helmholtz-type)
low-pass filter on uniform Dirichlet grids, the family of Lavrentiev-style
deconvolution schemes including the modified iterated variant, an energy
based noise-aware stopping rule, and the experiment harness behind the
``helmdeconv`` CLI.
"""

from .fields import (
    Field,
    Grid,
    h1_seminorm,
    inner_product,
    l2_norm,
    make_grid,
    quadrature_weights,
    sample_function,
    write_field_csv,
    zero_field,
)
from .operators import (
    HelmholtzFilter,
    SolverError,
    apply_A,
    apply_filter,
    dense_matrices,
    neg_laplacian,
    solve_shifted,
)
from .regularizers import (
    IterateTrace,
    Method,
    deconvolve,
    deconvolve_itl,
    deconvolve_mitlar,
    deconvolve_mtl,
    deconvolve_tl,
    dense_reg_operators,
    mitlar_noise_free_bound,
    mitlar_noisy_bound,
)
from .energy import (
    NoiseModel,
    StoppedRun,
    descent_gap,
    energy_noise_free,
    energy_noisy,
    run_mitlar_with_stopping,
    stopping_should_continue,
)
from .signals import (
    SignalSpec,
    gen_noise,
    gen_signal,
    relative_error,
    signal_preset,
)
from .experiments import (
    ExperimentConfig,
    ScaleRule,
    alpha_sweep,
    convergence_rates,
    preset_config,
    run_comparison,
    run_filter_check,
    run_rates,
    run_stopping,
)

__version__ = "0.1.0"

__all__ = [
    "Field", "Grid", "h1_seminorm", "inner_product", "l2_norm", "make_grid",
    "quadrature_weights", "sample_function", "write_field_csv", "zero_field",
    "HelmholtzFilter", "SolverError", "apply_A", "apply_filter",
    "dense_matrices", "neg_laplacian", "solve_shifted",
    "IterateTrace", "Method", "deconvolve", "deconvolve_itl",
    "deconvolve_mitlar", "deconvolve_mtl", "deconvolve_tl",
    "dense_reg_operators", "mitlar_noise_free_bound", "mitlar_noisy_bound",
    "NoiseModel", "StoppedRun", "descent_gap", "energy_noise_free",
    "energy_noisy", "run_mitlar_with_stopping",
    "stopping_should_continue",
    "SignalSpec", "gen_noise", "gen_signal", "relative_error", "signal_preset",
    "ExperimentConfig", "ScaleRule", "alpha_sweep", "convergence_rates",
    "preset_config", "run_comparison", "run_filter_check", "run_rates",
    "run_stopping",
    "cli_main",
]


def __getattr__(name):
    # resolved on first use: ``python -m helmdeconv.cli`` must not find cli imported
    if name == "cli_main":
        from .cli import cli_main
        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
