"""Sum-of-sines test signals and seeded noise injection.

Signals are sums of products of ``sin(k*pi*x)`` factors, one factor per
axis.  Every term must vanish on the domain boundary (``k*a`` and ``k*b``
integral per axis), which makes the sampled term an exact eigenvector of
the discrete Dirichlet Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Field, Grid, l2_norm, zero_field
from .energy import NoiseModel

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SignalSpec:
    """Sum of sine terms: ``(amplitude, (k_per_axis, ...))`` entries.

    A term contributes ``amplitude * prod_ax sin(k_ax * pi * x_ax)``.
    """

    terms: tuple[tuple[float, tuple[float, ...]], ...]

    @property
    def dim(self) -> int:
        return len(self.terms[0][1]) if self.terms else 0


SIGNAL_PRESETS: dict[str, SignalSpec] = {
    # high- and low-frequency mix for the stopping demonstration
    "stopping1d": SignalSpec(((1.0, (1.0,)), (1.0, (200.0,)))),
    # small high-frequency component for the four-method comparison
    "compare1d": SignalSpec(((1.0, (1.0,)), (0.1, (100.0,)))),
    # 2D product-of-sines for the refinement study
    "rates2d": SignalSpec(((1.0, (1.0, 1.0)), (1.0, (20.0, 20.0)))),
}


def signal_preset(name: str) -> SignalSpec:
    try:
        return SIGNAL_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown signal preset {name!r}; choices: {sorted(SIGNAL_PRESETS)}"
        ) from None


def _check_boundary_compatible(freq: float, a: float, b: float) -> None:
    for endpoint in (a, b):
        value = freq * endpoint
        if not np.isfinite(value) or abs(value - round(value)) > BOUNDARY_TOL:
            raise ValueError(
                f"sine frequency {freq} does not vanish at boundary point "
                f"{endpoint}: {freq}*{endpoint} is not an integer"
            )


def gen_signal(spec: SignalSpec, grid: Grid) -> Field:
    """Sample a sum-of-sines spec on a grid; rejects boundary-incompatible terms."""
    if spec.terms and spec.dim != grid.dim:
        raise ValueError(
            f"signal is {spec.dim}-dimensional but grid is {grid.dim}-dimensional"
        )
    values = np.zeros(grid.interior_shape)
    coords = [grid.axis_nodes(ax) for ax in range(grid.dim)]
    for amplitude, freqs in spec.terms:
        for ax, freq in enumerate(freqs):
            a, b = grid.bounds[ax]
            _check_boundary_compatible(freq, a, b)
        if grid.dim == 1:
            term = np.sin(freqs[0] * np.pi * coords[0])
        else:
            term = np.outer(
                np.sin(freqs[0] * np.pi * coords[0]),
                np.sin(freqs[1] * np.pi * coords[1]),
            )
        values += amplitude * term
    return Field(grid, values)


def gen_noise(seed: int, level: float, reference: Field,
              quadrature: str = "trapezoid") -> NoiseModel:
    """Standard-normal noise rescaled so ||eps|| = level * ||reference||.

    Deterministic in ``seed``; ``eps0`` is set to the achieved norm in the
    given quadrature rule, which the returned model carries.
    """
    if level < 0:
        raise ValueError(f"noise level must be nonnegative, got {level}")
    grid = reference.grid
    if level == 0.0:
        return NoiseModel(zero_field(grid), 0.0, 0.0, quadrature)
    rng = np.random.default_rng(seed)
    raw = Field(grid, rng.standard_normal(grid.interior_shape))
    target = level * l2_norm(reference, quadrature)
    with np.errstate(over="ignore"):  # an overflowing level is rejected below
        epsilon = raw * (target / l2_norm(raw, quadrature))
        eps0 = l2_norm(epsilon, quadrature)
    if not np.isfinite(eps0):
        raise ValueError(f"noise level {level} gives a non-finite noise norm")
    return NoiseModel(epsilon, eps0, level, quadrature)


def relative_error(u_true: Field, u_approx: Field,
                   quadrature: str = "trapezoid") -> float:
    """||u_true - u_approx|| / ||u_true||; rejects a zero true signal."""
    denom = l2_norm(u_true, quadrature)
    if denom == 0.0:
        raise ValueError("relative error is undefined for a zero true signal")
    return l2_norm(u_true - u_approx, quadrature) / denom
