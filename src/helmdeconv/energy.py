"""Quadratic energies, descent gap, and the noise-aware stopping rule.

The deconvolution problem ``G v = data`` is the stationarity condition of
the quadratic energy ``E(v) = (G v, v)/2 - (data, v)``.  For the modified
iterated scheme with ``alpha <= 1/2`` the energy of the iterates decreases
by exactly

    gap = ( [ (1/2 - alpha) G + alpha I ] d, d ),     d = u_{j+1} - u_j,

which is the certificate behind the stopping rule: with a known noise bound
``||eps|| <= eps0``, a step is guaranteed not to increase the noisy energy
as long as ``eps0 / ||d|| <= alpha``.  Once updates shrink below
``eps0 / alpha`` the iteration is converging to the noise-contaminated
solution and should stop.

These identities are exact in the trapezoid inner product, where the
discrete filter is self-adjoint; Simpson weights perturb them at quadrature
order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .fields import Field, inner_product, l2_norm
from .operators import HelmholtzFilter, SolverError, apply_filter
from .regularizers import DESCENT_ALPHA_LIMIT, IterateTrace, _refine

REASON_CRITERION = "criterion"
REASON_MAX_ITERATIONS = "max_iterations"
REASON_ZERO_UPDATE = "zero_update"


@dataclass(frozen=True)
class NoiseModel:
    """A realized noise field, its norm bound eps0 in ``quadrature``, and relative level."""

    epsilon: Field
    eps0: float
    level: float
    quadrature: str = "trapezoid"

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"noise level must be nonnegative, got {self.level}")
        if l2_norm(self.epsilon, self.quadrature) > self.eps0 * (1 + 1e-12) + 1e-300:
            raise ValueError("realized noise norm exceeds the stated bound eps0")


@dataclass(frozen=True)
class StoppedRun:
    """A stopping-rule run: accepted iterates plus the per-candidate log.

    ``stop_index`` is the index of the last certified iterate.  Candidate
    ``j`` (for ``j = 1..len(candidate_update_norms)``) was accepted exactly
    when ``j < len(trace.iterates)``; in halt mode a rejected candidate is
    logged but not kept.  ``energies``, when present, hold the noisy energy
    of each accepted iterate.
    """

    trace: IterateTrace
    stop_index: int
    reason: str
    energies: tuple[float, ...] | None
    candidate_update_norms: tuple[float, ...]
    continue_flags: tuple[bool, ...]
    alpha: float
    eps0: float
    delta: float
    grid_n: tuple[int, ...]
    seed: int | None = None

    def to_csv(self, path) -> None:
        """Write one row per candidate: j, update_norm, energy_noisy, continue_flag."""
        path = Path(path)
        n_text = "x".join(str(n) for n in self.grid_n)
        seed_text = "" if self.seed is None else str(self.seed)
        lines = [
            f"# alpha={self.alpha:.16e},eps0={self.eps0:.16e},"
            f"delta={self.delta:.16e},n={n_text},seed={seed_text},"
            f"jstar={self.stop_index},reason={self.reason}",
            "j,update_norm,energy_noisy,continue_flag",
        ]
        accepted = len(self.trace.iterates)
        for j, (norm, flag) in enumerate(
            zip(self.candidate_update_norms, self.continue_flags), start=1
        ):
            if self.energies is not None and j < accepted:
                energy_text = format(self.energies[j], ".16e")
            else:
                energy_text = ""
            flag_text = "true" if flag else "false"
            lines.append(f"{j},{format(norm, '.16e')},{energy_text},{flag_text}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def energy_noise_free(filt: HelmholtzFilter, v: Field, u_bar: Field,
                      quadrature: str = "trapezoid") -> float:
    """E(v) = (G v, v)/2 - (ubar, v); one filter solve, two inner products."""
    gv = apply_filter(filt, v)
    return 0.5 * inner_product(gv, v, quadrature) - inner_product(u_bar, v, quadrature)


def energy_noisy(filt: HelmholtzFilter, v: Field, u_bar: Field, epsilon: Field,
                 quadrature: str = "trapezoid") -> float:
    """E(v) = (G v, v)/2 - (ubar + eps, v); minimized by the clean solution."""
    gv = apply_filter(filt, v)
    return (0.5 * inner_product(gv, v, quadrature)
            - inner_product(u_bar, v, quadrature)
            - inner_product(epsilon, v, quadrature))


def descent_gap(filt: HelmholtzFilter, u_j: Field, u_next: Field, alpha: float,
                quadrature: str = "trapezoid") -> float:
    """Energy drop of one modified update: ([(1/2 - a) G + a I] d, d)."""
    d = u_next - u_j
    gd = apply_filter(filt, d)
    return ((0.5 - alpha) * inner_product(gd, d, quadrature)
            + alpha * inner_product(d, d, quadrature))


def stopping_should_continue(alpha: float, eps0: float, update_norm: float) -> bool:
    """True while eps0 / ||update|| <= alpha; a zero update always stops."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if eps0 < 0:
        raise ValueError(f"noise bound must be nonnegative, got {eps0}")
    if update_norm <= 0.0:
        return False
    return eps0 <= alpha * update_norm


def run_mitlar_with_stopping(filt: HelmholtzFilter, u_bar: Field, alpha: float,
                             eps0: float, j_max: int, mode: str = "record_only",
                             *, epsilon: Field | None = None,
                             compute_energies: bool = True,
                             quadrature: str = "trapezoid") -> StoppedRun:
    """Run the modified iterated scheme with the noise-aware stopping rule.

    In ``halt`` mode the run discards the first candidate that violates the
    rule and the trace ends at the stop index; in ``record_only`` mode the
    trace runs to ``j_max`` and the stop index is annotated.  ``epsilon``,
    when given, is the realized noise used for the noisy-energy trace
    (otherwise energies are evaluated against the data alone).  A solver
    failure raises SolverError with the partial run attached as
    ``partial_run`` (None when the first solve fails, e.g. on NaN data).
    """
    if mode not in ("halt", "record_only"):
        raise ValueError(f"mode must be 'halt' or 'record_only', got {mode!r}")
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if alpha > DESCENT_ALPHA_LIMIT:
        warnings.warn(
            f"alpha = {alpha} > {DESCENT_ALPHA_LIMIT}: the stopping rule's "
            "descent guarantee does not apply",
            stacklevel=2,
        )
    if eps0 < 0:
        raise ValueError(f"noise bound must be nonnegative, got {eps0}")

    def measure(v: Field) -> float:
        if epsilon is None:
            return energy_noise_free(filt, v, u_bar, quadrature)
        return energy_noisy(filt, v, u_bar, epsilon, quadrature)

    iterates: list[Field] = []
    accepted_norms: list[float] = []
    energies: list[float] = []
    candidate_norms: list[float] = []
    flags: list[bool] = []
    stop_index: int | None = None
    reason: str | None = None

    def build(si: int, rs: str) -> StoppedRun:
        return StoppedRun(
            trace=IterateTrace(tuple(iterates), tuple(accepted_norms)),
            stop_index=si,
            reason=rs,
            energies=tuple(energies) if compute_energies else None,
            candidate_update_norms=tuple(candidate_norms),
            continue_flags=tuple(flags),
            alpha=alpha,
            eps0=eps0,
            delta=filt.delta,
            grid_n=filt.grid.n,
        )

    try:
        refine = islice(_refine(filt, u_bar, alpha, modified=True), j_max + 1)
        for j, (u, step) in enumerate(refine):
            if step is not None:
                norm = l2_norm(step, quadrature)
                flag = stopping_should_continue(alpha, eps0, norm)
                candidate_norms.append(norm)
                flags.append(flag)
                if not flag and stop_index is None:
                    stop_index = j - 1
                    reason = REASON_ZERO_UPDATE if norm == 0.0 else REASON_CRITERION
                if not flag and mode == "halt":
                    break
                accepted_norms.append(norm)
            iterates.append(u)
            if compute_energies:
                energies.append(measure(u))
    except SolverError as err:
        err.partial_run = build(
            stop_index if stop_index is not None else len(iterates) - 1,
            reason if reason is not None else REASON_MAX_ITERATIONS,
        ) if iterates else None
        raise

    if stop_index is None:
        stop_index = j_max
        reason = REASON_MAX_ITERATIONS
    return build(stop_index, reason)
