"""Deconvolution of the differential filter by the Tikhonov-Lavrentiev family.

Given filtered data ``ubar`` with ``G u = ubar`` (plus noise in the noisy
setting), four regularized schemes recover an approximation of ``u``:

=========  =============================================================
tl         (G + a I) u0 = ubar
itl        tl start, then (G + a I)(u_j - u_{j-1}) = ubar - G u_{j-1}
mtl        ((1-a) G + a I) u0 = ubar          (the modified scheme, J = 0)
mitlar     mtl start, then ((1-a) G + a I)(u_j - u_{j-1}) = ubar - G u_{j-1}
=========  =============================================================

Multiplying each equation through by ``A = G**-1`` eliminates every filter
application, so one update costs exactly one SPD shifted solve plus a
stencil application:

    tl / itl:   ((1+a) I + a d^2 (-lap)) step = A ubar - ...   (theta = a d^2/(1+a))
    mitlar:     (I + a d^2 (-lap)) step = A ubar - ...         (theta = a d^2)

The modified family trades the ``O(a**(J+1))`` noise-free error of itl for
``O((a d^2)**(J+1))``: per Laplacian eigenvalue ``lam`` the per-step error
multiplier is ``a*d^2*lam / (1 + a*d^2*lam)`` instead of
``a*(1 + d^2*lam) / (1 + a*(1 + d^2*lam))``.

Every iterate of every scheme, and of the stopping rule in ``energy``, comes
from one lazy loop, ``_refine``; tl and mtl are its zero-update cases, and
``deconvolve`` selects a scheme by ``Method``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fields import Field, l2_norm
from .operators import HelmholtzFilter, apply_A, dense_matrices, neg_laplacian, solve_shifted


class Method(enum.Enum):
    """Deconvolution scheme selector."""

    TL = "tl"
    ITL = "itl"
    MTL = "mtl"
    MITLAR = "mitlar"

    @property
    def iterated(self) -> bool:
        """True for itl and mitlar, the schemes that take residual updates."""
        return self in (Method.ITL, Method.MITLAR)


DESCENT_ALPHA_LIMIT = 0.5


@dataclass(frozen=True)
class IterateTrace:
    """Iterates u_0..u_J of an iterative scheme with per-update norms.

    ``update_norms[j-1]`` is the L2 norm of ``u_j - u_{j-1}``.
    """

    iterates: tuple[Field, ...]
    update_norms: tuple[float, ...]

    def __post_init__(self):
        if len(self.update_norms) != len(self.iterates) - 1:
            raise ValueError("need exactly one update norm per update")

    @property
    def final(self) -> Field:
        return self.iterates[-1]


def _refine(filt: HelmholtzFilter, u_bar: Field, alpha: float,
            modified: bool) -> Iterator[tuple[Field, Field | None]]:
    """Yield (u_0, None), then (u_j, step_j) with u_j = u_{j-1} + step_j, forever.

    The one refinement loop of itl, mitlar and the stopping rule.  Each pair
    costs one shifted solve, made when it is drawn: ``islice`` it, or ``zip``
    it after a bounded iterable, since ``zip`` pulls its first argument first.
    """
    a_ubar = apply_A(filt, u_bar)
    theta = alpha * filt.delta**2
    scale = 1.0 / (1.0 + alpha)  # tl and itl divide their equations by 1 + alpha
    if not modified:
        theta = theta * scale
    u = solve_shifted(filt.grid, theta, a_ubar if modified else a_ubar * scale)
    yield u, None
    while True:
        # a_ubar - u stays unnamed: itl frees it before its solve (alive: 2D ~30% slower)
        step = solve_shifted(filt.grid, theta, a_ubar - u if modified else (a_ubar - u) * scale)
        u = u + step
        yield u, step


def _trace(refine: Iterator[tuple[Field, Field | None]], num_updates: int,
           quadrature: str) -> IterateTrace:
    if num_updates < 0:
        raise ValueError(f"update count must be >= 0, got {num_updates}")
    pairs = list(islice(refine, num_updates + 1))
    return IterateTrace(tuple(u for u, _ in pairs),
                        tuple(l2_norm(step, quadrature) for _, step in pairs[1:]))


def deconvolve_tl(filt: HelmholtzFilter, u_bar: Field, alpha: float) -> Field:
    """Tikhonov-Lavrentiev: solve (G + alpha I) u0 = ubar."""
    return deconvolve_itl(filt, u_bar, alpha, 0).final


def deconvolve_itl(filt: HelmholtzFilter, u_bar: Field, alpha: float,
                   num_updates: int, quadrature: str = "trapezoid") -> IterateTrace:
    """Iterated Tikhonov-Lavrentiev: tl start plus residual refinements."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _trace(_refine(filt, u_bar, alpha, modified=False), num_updates, quadrature)


def deconvolve_mitlar(filt: HelmholtzFilter, u_bar: Field, alpha: float,
                      num_updates: int, quadrature: str = "trapezoid") -> IterateTrace:
    """Modified iterated Tikhonov-Lavrentiev: ((1-a)G + aI) systems.

    Each step solves one shifted system with theta = alpha * delta**2.
    alpha = 0 is the exact-inversion path (theta = 0, u0 = A ubar); alpha = 1
    makes the start the identity, u0 = ubar.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return _trace(_refine(filt, u_bar, alpha, modified=True), num_updates, quadrature)


def deconvolve_mtl(filt: HelmholtzFilter, u_bar: Field, alpha: float) -> Field:
    """Modified Tikhonov-Lavrentiev: the zero-update modified scheme."""
    return deconvolve_mitlar(filt, u_bar, alpha, 0).final


def deconvolve(filt: HelmholtzFilter, u_bar: Field, method: Method, alpha: float,
               num_updates: int = 0, quadrature: str = "trapezoid") -> IterateTrace:
    """Any scheme as an IterateTrace; tl and mtl are zero-update itl and mitlar."""
    if num_updates and not method.iterated:
        raise ValueError(f"{method.value} takes no updates, got {num_updates}")
    run = deconvolve_mitlar if method in (Method.MTL, Method.MITLAR) else deconvolve_itl
    return run(filt, u_bar, alpha, num_updates, quadrature)


def mitlar_noise_free_bound(filt: HelmholtzFilter, u: Field, alpha: float,
                            num_updates: int, quadrature: str = "trapezoid") -> float:
    """Noise-free error bound (alpha*delta^2)^(J+1) * ||(-lap_h)^(J+1) u||.

    The repeated stencil grows like h^(-2(J+1)) on rough inputs; the bound
    is informative only for band-limited ``u``.
    """
    w = u
    for _ in range(num_updates + 1):
        w = neg_laplacian(w)
    return float((alpha * filt.delta**2) ** (num_updates + 1) * l2_norm(w, quadrature))


def mitlar_noisy_bound(filt: HelmholtzFilter, u: Field, alpha: float,
                       num_updates: int, eps0: float,
                       quadrature: str = "trapezoid") -> float:
    """Noisy error bound: noise-free part plus (J+1) * eps0 / alpha."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if eps0 < 0:
        raise ValueError(f"noise bound must be nonnegative, got {eps0}")
    free = mitlar_noise_free_bound(filt, u, alpha, num_updates, quadrature)
    return free + (num_updates + 1) * eps0 / alpha


DENSE_REG_CAP = 1024


def dense_reg_operators(grid, delta: float, alpha: float, num_updates: int):
    """Dense (D, D G, I - D G, D_J) with D = ((1-a) G + a I)^-1 (test oracle).

    ``D_J`` is the series  D * sum_{i=0..J} (a D (I - G))^i  that maps data
    to the J-th modified iterate.  Capped at 1024 interior nodes.
    """
    if grid.interior_count > DENSE_REG_CAP:
        raise ValueError(
            f"dense regularization operators capped at {DENSE_REG_CAP} "
            f"interior nodes, grid has {grid.interior_count}"
        )
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if num_updates < 0:
        raise ValueError(f"update count must be >= 0, got {num_updates}")
    _, _, g_mat = dense_matrices(grid, delta)
    eye = np.eye(grid.interior_count)
    d_mat = np.linalg.inv((1.0 - alpha) * g_mat + alpha * eye)
    dg = d_mat @ g_mat
    residual_op = eye - dg
    term = alpha * (d_mat @ (eye - g_mat))
    series = eye.copy()
    power = eye
    for _ in range(num_updates):
        power = power @ term
        series = series + power
    d_j = d_mat @ series
    return d_mat, dg, residual_op, d_j
