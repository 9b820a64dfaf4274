"""Experiment harness: parameter sweeps, refinement studies, stopping demo.

Three studies are provided, each writing deterministic CSV output:

* ``run_comparison``: relative deconvolution error of the four schemes over
  a logarithmic alpha sweep, noise free, one CSV per update count.
* ``run_rates``: L2 and H1 errors under mesh refinement with radius and
  alpha tied to the mesh through power laws, plus dyadic convergence rates.
* ``run_stopping``: the stopping rule on noisy 1D data, single seeded run
  or a Monte Carlo sweep over seeds with a stop-index histogram.

Sweep points are independent; runs derive per-item seeds as
``seed + item_index`` and rows are written in fixed order, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .energy import StoppedRun, run_mitlar_with_stopping
from .fields import Grid, l2_norm, h1_seminorm, make_grid, write_field_csv
from .operators import HelmholtzFilter, SolverError, apply_A, apply_filter
from .regularizers import Method, deconvolve
from .signals import SignalSpec, gen_noise, gen_signal, relative_error, signal_preset


@dataclass(frozen=True)
class ScaleRule:
    """How a length/parameter scales with the mesh.

    kind 'absolute' ignores the mesh, 'h_multiple' is value*h, and
    'power_law' is value * (2*pi/n)**exponent.
    """

    kind: str
    value: float
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("absolute", "h_multiple", "power_law"):
            raise ValueError(f"unknown scale rule kind {self.kind!r}")

    def resolve(self, n: int, h: float) -> float:
        """The rule's value on a mesh of n intervals of size h; it must be finite."""
        try:
            if self.kind == "absolute":
                value = self.value
            elif self.kind == "h_multiple":
                value = self.value * h
            else:
                value = self.value * (2.0 * math.pi / n) ** self.exponent
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{self} is not finite at n={n}")
        return value


DEFAULT_RATE_CASES = ((Method.MITLAR, 0), (Method.MITLAR, 1),
                      (Method.TL, 0), (Method.ITL, 1))


@dataclass
class ExperimentConfig:
    """Settings shared by the experiment runners.

    Each runner reads the fields it needs; presets fill in the standard
    configurations (see ``preset_config``).
    """

    signal: SignalSpec
    bounds: tuple[tuple[float, float], ...] = ((0.0, 2.0),)
    n: int = 1000
    refinements: tuple[int, ...] = ()
    delta_rule: ScaleRule = ScaleRule("absolute", 0.01)
    alpha: float = 0.1
    alphas: tuple[float, ...] = ()
    alpha_rule: ScaleRule | None = None
    j_list: tuple[int, ...] = (1, 2, 3)
    j_max: int = 20
    noise_level: float = 0.0
    seed: int = 0
    rate_cases: tuple[tuple[Method, int], ...] = DEFAULT_RATE_CASES
    out_dir: Path | None = None
    quadrature: str = "trapezoid"
    mode: str = "record_only"
    mc_runs: int = 1


MAX_SWEEP_POINTS = 10_000  # each point costs 8 shifted solves in run_comparison


def alpha_sweep(low: float, high: float, count: int) -> tuple[float, ...]:
    """Logarithmically spaced regularization parameters, ascending."""
    if not 0 < low < high:
        raise ValueError(f"need 0 < low < high, got ({low}, {high})")
    if not 2 <= count <= MAX_SWEEP_POINTS:
        raise ValueError(f"need 2 to {MAX_SWEEP_POINTS} sweep points, got {count}")
    return tuple(np.logspace(math.log10(low), math.log10(high), count))


def preset_config(name: str, out_dir=None) -> ExperimentConfig:
    """Standard experiment configurations by preset name."""
    out = Path(out_dir) if out_dir is not None else None
    if name == "compare1d":
        return ExperimentConfig(
            signal=signal_preset("compare1d"),
            bounds=((0.0, 2.0),), n=1000,
            delta_rule=ScaleRule("absolute", 0.01),
            alphas=alpha_sweep(1e-3, 1.0, 25),
            j_list=(1, 2, 3),
            out_dir=out,
        )
    if name == "rates2d":
        return ExperimentConfig(
            signal=signal_preset("rates2d"),
            bounds=((0.0, 2.0), (0.0, 2.0)),
            refinements=(60, 120, 240, 480),
            delta_rule=ScaleRule("power_law", 0.1, 0.25),
            alpha_rule=ScaleRule("power_law", 0.1, 0.5),
            out_dir=out,
        )
    if name == "stopping1d":
        return ExperimentConfig(
            signal=signal_preset("stopping1d"),
            bounds=((0.0, 2.0),), n=1000,
            delta_rule=ScaleRule("h_multiple", 6.0),
            alpha=0.1, noise_level=0.01, j_max=20,
            mode="record_only", mc_runs=1,
            out_dir=out,
        )
    raise ValueError(f"unknown preset {name!r}; choices: compare1d, rates2d, stopping1d")


def _grid_for(config: ExperimentConfig, n: int) -> Grid:
    return make_grid(len(config.bounds), config.bounds, n)


def _fmt(x: float) -> str:
    return format(x, ".16e")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# four-method comparison


@dataclass(frozen=True)
class ComparisonResult:
    """Rows (method, alpha, updates, rel_error) plus written file paths."""

    rows: tuple[tuple[str, float, int, float], ...]
    files: tuple[Path, ...]

    def errors(self, method: Method, updates: int) -> dict[float, float]:
        return {alpha: err for name, alpha, j, err in self.rows
                if name == method.value and j == updates}


def run_comparison(config: ExperimentConfig) -> ComparisonResult:
    """Noise-free relative errors of all methods over the alpha sweep."""
    if not config.alphas:
        raise ValueError("comparison needs a nonempty alpha sweep")
    # a negative J would index the trace from its end, a repeated one duplicates rows
    if not config.j_list or min(config.j_list) < 0 or len(set(config.j_list)) < len(config.j_list):
        raise ValueError(
            f"comparison needs distinct nonnegative update counts, got j_list={config.j_list}"
        )
    grid = _grid_for(config, config.n)
    u = gen_signal(config.signal, grid)
    delta = config.delta_rule.resolve(config.n, grid.h[0])
    filt = HelmholtzFilter(grid, delta)
    u_bar = apply_filter(filt, u)
    quad = config.quadrature
    max_updates = max(config.j_list)

    rows: list[tuple[str, float, int, float]] = []
    per_alpha: dict[float, dict[tuple[str, int], float]] = {}
    for alpha in config.alphas:
        errs: dict[tuple[str, int], float] = {}
        try:
            # tl and mtl are u_0 of the itl and mitlar traces
            for method, start in ((Method.ITL, Method.TL), (Method.MITLAR, Method.MTL)):
                trace = deconvolve(filt, u_bar, method, alpha, max_updates, quad)
                errs[(start.value, 0)] = relative_error(u, trace.iterates[0], quad)
                for j in config.j_list:
                    errs[(method.value, j)] = relative_error(u, trace.iterates[j], quad)
        except SolverError as err:
            raise SolverError(f"comparison solve failed at method={method.value}, "
                              f"alpha={alpha:.6e}, J<={max_updates}: {err}",
                              residual=err.residual) from err
        per_alpha[alpha] = errs

    for j in config.j_list:
        for alpha in config.alphas:
            for method in Method:
                err = per_alpha[alpha][(method.value, j if method.iterated else 0)]
                rows.append((method.value, alpha, j, err))

    files: list[Path] = []
    if config.out_dir is not None:
        for j in config.j_list:
            lines = ["method,alpha,J,rel_l2_error"]
            for name, alpha, row_j, err in rows:
                if row_j == j:
                    lines.append(f"{name},{_fmt(alpha)},{j},{_fmt(err)}")
            path = Path(config.out_dir) / f"compare_J{j}.csv"
            _write_lines(path, lines)
            files.append(path)
        summary = ["four-method comparison (noise free)",
                   f"n={config.n} delta={_fmt(delta)} points={len(config.alphas)}"]
        for j in config.j_list:
            gaps = []
            for alpha in config.alphas:
                errs = per_alpha[alpha]
                others = [v for (name, jj), v in errs.items()
                          if name != "mitlar" and (jj == j or jj == 0)]
                gaps.append(min(others) - errs[("mitlar", j)])
            lowest = "yes" if min(gaps) >= 0 else "no"
            summary.append(
                f"J={j}: mitlar lowest everywhere: {lowest} "
                f"(worst margin {min(gaps):.3e})"
            )
        path = Path(config.out_dir) / "compare_summary.txt"
        _write_lines(path, summary)
        files.append(path)
    return ComparisonResult(tuple(rows), tuple(files))


# ---------------------------------------------------------------------------
# refinement / convergence-rate study


def convergence_rates(errors: list[float]) -> list[float | None]:
    """Dyadic rates log2(e(n)/e(2n)) between consecutive refinements."""
    if not all(0 < err < math.inf for err in errors):
        raise ValueError(f"convergence rates need positive finite errors, got {errors}")
    rates: list[float | None] = [None]
    for prev, curr in zip(errors, errors[1:]):
        rates.append(math.log2(prev / curr))
    return rates


@dataclass(frozen=True)
class RatesResult:
    """Per (method, updates): rows (n, l2_error, l2_rate, h1_error, h1_rate)."""

    tables: dict[tuple[str, int], tuple[tuple[int, float, float | None, float, float | None], ...]]
    files: tuple[Path, ...]


def run_rates(config: ExperimentConfig) -> RatesResult:
    """Refinement study with mesh-tied delta and alpha."""
    if len(config.refinements) < 2:
        raise ValueError("rates study needs at least two refinements")
    for prev, curr in zip(config.refinements, config.refinements[1:]):
        if curr != 2 * prev:
            raise ValueError(
                f"refinements must double at each step, got {prev} -> {curr}"
            )
    if config.alpha_rule is None:
        raise ValueError("rates study needs an alpha rule")
    repeated = [f"{m.value}:{j}" for (m, j), k in Counter(config.rate_cases).items() if k > 1]
    if repeated:
        raise ValueError(f"rates cases repeat {', '.join(repeated)}")
    quad = config.quadrature

    errors: dict[tuple[str, int], list[tuple[float, float]]] = {
        (m.value, j): [] for m, j in config.rate_cases
    }
    for n in config.refinements:
        grid = _grid_for(config, n)
        u = gen_signal(config.signal, grid)
        delta = config.delta_rule.resolve(n, grid.h[0])
        alpha = config.alpha_rule.resolve(n, grid.h[0])
        filt = HelmholtzFilter(grid, delta)
        where = "filter"
        try:
            u_bar = apply_filter(filt, u)
            for method, j in config.rate_cases:
                where = f"{method.value} J={j}"
                diff = u - deconvolve(filt, u_bar, method, alpha, j, quad).final
                errors[(method.value, j)].append(
                    (l2_norm(diff, quad), h1_seminorm(diff))
                )
        except SolverError as err:
            raise SolverError(f"rates solve failed at n={n}, {where}: {err}",
                              residual=err.residual) from err

    tables: dict[tuple[str, int], tuple] = {}
    for key, pairs in errors.items():
        l2_errors = [p[0] for p in pairs]
        h1_errors = [p[1] for p in pairs]
        l2_rates = convergence_rates(l2_errors)
        h1_rates = convergence_rates(h1_errors)
        tables[key] = tuple(
            (n, l2_errors[i], l2_rates[i], h1_errors[i], h1_rates[i])
            for i, n in enumerate(config.refinements)
        )

    files: list[Path] = []
    if config.out_dir is not None:
        summary = ["refinement study", f"refinements={config.refinements}"]
        for (name, j), rows in tables.items():
            lines = ["n,l2_error,l2_rate,h1_error,h1_rate"]
            for n, l2e, l2r, h1e, h1r in rows:
                l2r_text = "" if l2r is None else _fmt(l2r)
                h1r_text = "" if h1r is None else _fmt(h1r)
                lines.append(f"{n},{_fmt(l2e)},{l2r_text},{_fmt(h1e)},{h1r_text}")
            path = Path(config.out_dir) / f"rates_{name}_J{j}.csv"
            _write_lines(path, lines)
            files.append(path)
            final_h1 = rows[-1][4]
            summary.append(
                f"{name} J={j}: finest H1 rate "
                f"{'n/a' if final_h1 is None else format(final_h1, '.4f')}"
            )
        path = Path(config.out_dir) / "rates_summary.txt"
        _write_lines(path, summary)
        files.append(path)
    return RatesResult(tables, tuple(files))


# ---------------------------------------------------------------------------
# stopping demonstration


@dataclass(frozen=True)
class StoppingResult:
    """Stopping runs (one per seed) and the stop-index histogram."""

    runs: tuple[StoppedRun, ...]
    histogram: tuple[tuple[int, int], ...]
    files: tuple[Path, ...]


def run_stopping(config: ExperimentConfig) -> StoppingResult:
    """Noisy stopping demo; Monte Carlo over seeds when mc_runs > 1."""
    if config.mc_runs < 1:
        raise ValueError(f"mc_runs must be >= 1, got {config.mc_runs}")
    grid = _grid_for(config, config.n)
    u = gen_signal(config.signal, grid)
    delta = config.delta_rule.resolve(config.n, grid.h[0])
    filt = HelmholtzFilter(grid, delta)
    u_bar_clean = apply_filter(filt, u)
    quad = config.quadrature

    runs: list[StoppedRun] = []
    for item in range(config.mc_runs):
        seed = config.seed + item
        noise = gen_noise(seed, config.noise_level, u_bar_clean, quad)
        data = u_bar_clean - noise.epsilon
        run = run_mitlar_with_stopping(
            filt, data, config.alpha, noise.eps0, config.j_max,
            mode=config.mode, epsilon=noise.epsilon, quadrature=quad,
        )
        runs.append(replace(run, seed=seed))

    counts = Counter(run.stop_index for run in runs)
    histogram = tuple(sorted(counts.items()))

    files: list[Path] = []
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "stopping_run.csv"
        runs[0].to_csv(path)
        files.append(path)
        summary = [
            "stopping demonstration",
            f"n={config.n} delta={_fmt(delta)} alpha={_fmt(config.alpha)} "
            f"level={_fmt(config.noise_level)} jmax={config.j_max}",
            f"first run: jstar={runs[0].stop_index} reason={runs[0].reason}",
        ]
        if config.mc_runs > 1:
            lines = ["jstar,count"]
            lines.extend(f"{jstar},{count}" for jstar, count in histogram)
            hist_path = out / "stopping_histogram.csv"
            _write_lines(hist_path, lines)
            files.append(hist_path)
            stops = sorted(run.stop_index for run in runs)
            median = stops[len(stops) // 2]
            summary.append(
                f"monte carlo: runs={config.mc_runs} median_jstar={median} "
                f"min={stops[0]} max={stops[-1]}"
            )
        summary_path = out / "stopping_summary.txt"
        _write_lines(summary_path, summary)
        files.append(summary_path)
    return StoppingResult(tuple(runs), histogram, tuple(files))


# ---------------------------------------------------------------------------
# filter identity check (CLI 'filter' subcommand)


@dataclass(frozen=True)
class FilterCheckResult:
    residual: float
    filtered_norm: float
    files: tuple[Path, ...]


def run_filter_check(config: ExperimentConfig) -> FilterCheckResult:
    """Filter the preset signal and report the sharpen-filter roundtrip residual."""
    grid = _grid_for(config, config.n)
    u = gen_signal(config.signal, grid)
    delta = config.delta_rule.resolve(config.n, grid.h[0])
    filt = HelmholtzFilter(grid, delta)
    u_bar = apply_filter(filt, u)
    roundtrip = apply_A(filt, u_bar)
    residual = relative_error(u, roundtrip, config.quadrature)
    files: list[Path] = []
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        ubar_path = out / "filtered_signal.csv"
        write_field_csv(u_bar, ubar_path)
        summary_path = out / "filter_summary.txt"
        _write_lines(summary_path, [
            "filter identity check",
            f"n={config.n} delta={_fmt(delta)}",
            f"filtered_norm={_fmt(l2_norm(u_bar, config.quadrature))}",
            f"roundtrip_residual={_fmt(residual)}",
        ])
        files.extend([ubar_path, summary_path])
    return FilterCheckResult(residual, l2_norm(u_bar, config.quadrature), tuple(files))
