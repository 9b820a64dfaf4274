"""Which package functions the traced run wraps, and the per-layer metrics it reports.

A layer is a public function of one module of ``helmdeconv``.  The span
name is ``<module>.<function>``; ``operators.solve_shifted`` is split into
``solve_shifted_1d`` and ``solve_shifted_2d`` by ``grid.dim``, and the
``Field`` operators ``+ - * neg`` share the span ``fields.field_arith``.
"""

from __future__ import annotations

import importlib

from spans import Patch, Tracer

# (span name, module, attribute) for plain functions
FUNCTIONS = (
    ("cli.cli_main", "cli", "cli_main"),
    ("experiments.run_comparison", "experiments", "run_comparison"),
    ("experiments.run_rates", "experiments", "run_rates"),
    ("experiments.run_stopping", "experiments", "run_stopping"),
    ("experiments.run_filter_check", "experiments", "run_filter_check"),
    ("regularizers.deconvolve_tl", "regularizers", "deconvolve_tl"),
    ("regularizers.deconvolve_itl", "regularizers", "deconvolve_itl"),
    ("regularizers.deconvolve_mtl", "regularizers", "deconvolve_mtl"),
    ("regularizers.deconvolve_mitlar", "regularizers", "deconvolve_mitlar"),
    ("energy.energy_noisy", "energy", "energy_noisy"),
    ("energy.energy_noise_free", "energy", "energy_noise_free"),
    ("operators.apply_A", "operators", "apply_A"),
    ("operators.apply_filter", "operators", "apply_filter"),
    ("fields.l2_norm", "fields", "l2_norm"),
    ("fields.inner_product", "fields", "inner_product"),
    ("fields.h1_seminorm", "fields", "h1_seminorm"),
    ("fields.write_field_csv", "fields", "write_field_csv"),
    ("signals.gen_signal", "signals", "gen_signal"),
    ("signals.gen_noise", "signals", "gen_noise"),
    ("signals.relative_error", "signals", "relative_error"),
)
FIELD_OPERATORS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")

# every span name: the plain functions, then the ones wrapped by hand below
LAYERS = (
    *(span for span, _, _ in FUNCTIONS),
    "energy.run_mitlar_with_stopping", "energy.to_csv",
    "operators.solve_shifted_1d", "operators.solve_shifted_2d",
    "fields.field_arith",
)


def install(hd, tracer: Tracer) -> Patch:
    """Wrap every layer function of the imported package; ``patch.undo()`` restores it."""
    patch = Patch(hd.__name__)
    for span, module, attr in FUNCTIONS:
        mod = importlib.import_module(f"{hd.__name__}.{module}")
        original = getattr(mod, attr)
        patch.function(original, tracer.wrap(span, original))

    operators = importlib.import_module(f"{hd.__name__}.operators")
    solve = operators.solve_shifted
    solve_1d = tracer.name_id("operators.solve_shifted_1d")
    solve_2d = tracer.name_id("operators.solve_shifted_2d")

    def solve_shifted(grid, *args, **kwargs):
        tracer.count("operators.nodes_solved", grid.interior_count)
        try:
            return tracer.call(solve_1d if grid.dim == 1 else solve_2d,
                               solve, (grid, *args), kwargs)
        except operators.SolverError:
            tracer.count("operators.solver_errors")
            raise

    patch.function(solve, solve_shifted)

    energy = importlib.import_module(f"{hd.__name__}.energy")
    stopping = energy.run_mitlar_with_stopping
    stopping_id = tracer.name_id("energy.run_mitlar_with_stopping")

    def run_mitlar_with_stopping(*args, **kwargs):
        run = tracer.call(stopping_id, stopping, args, kwargs)
        candidates = len(run.candidate_update_norms)
        # candidate stop_index + 1 is the one that decided the stop
        tracer.count("energy.candidates", candidates)
        tracer.count("energy.candidates_past_stop", max(0, candidates - run.stop_index - 1))
        return run

    patch.function(stopping, run_mitlar_with_stopping)
    patch.method(energy.StoppedRun, "to_csv",
                 tracer.wrap("energy.to_csv", energy.StoppedRun.to_csv))
    for op in FIELD_OPERATORS:
        patch.method(hd.Field, op, tracer.wrap("fields.field_arith", hd.Field.__dict__[op]))
    return patch
