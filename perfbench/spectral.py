"""Independent DST-I reference for the filter, the four schemes and the stopping rule.

On a uniform grid with homogeneous Dirichlet boundaries, the centered
3-point (1D) and 5-point (2D) ``-lap_h`` is diagonalised by the type-I
discrete sine transform: mode ``k`` of an axis with ``n`` intervals of size
``h`` has eigenvalue ``(4/h^2) sin^2(k pi / 2n)``, and the 2D eigenvalues are
sums over the two axes.  With ``norm="ortho"`` the transform is orthogonal
and its own inverse, so every operator of the package is "transform,
multiply per mode, transform back":

    G      g = 1 / (1 + delta^2 lam)
    tl     u0 = b / (g + a)
    itl    u_j = u_{j-1} + (b - g u_{j-1}) / (g + a)
    mtl    u0 = b / ((1 - a) g + a)
    mitlar u_j = u_{j-1} + (b - g u_{j-1}) / ((1 - a) g + a)

Nothing here calls the package; the benchmark checks the package against
this reference on grids far beyond the dense oracles' 4096 / 1024 node caps.
With trapezoid weights the interior weight is the constant ``prod(h)``, so
L2 norms and inner products are weighted Parseval sums over the modes.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dstn


def axis_nodes(a: float, b: float, n: int) -> np.ndarray:
    """Interior node coordinates ``a + i*h``, ``i = 1..n-1``."""
    h = (b - a) / n
    return a + h * np.arange(1, n)


class Spectral:
    """Per-mode operators on one grid: ``n`` intervals per axis over ``bounds``."""

    def __init__(self, bounds: tuple[tuple[float, float], ...], n: tuple[int, ...]):
        self.h = tuple((b - a) / m for (a, b), m in zip(bounds, n))
        self.shape = tuple(m - 1 for m in n)
        lam = np.zeros(self.shape)
        for axis, (m, h) in enumerate(zip(n, self.h)):
            k = np.arange(1, m)
            per_axis = 4.0 / h**2 * np.sin(k * np.pi / (2 * m)) ** 2
            index = [None] * len(n)
            index[axis] = slice(None)
            lam = lam + per_axis[tuple(index)]
        self.lam = lam
        self.weight = float(np.prod(self.h))

    # transform pair -------------------------------------------------------

    @staticmethod
    def modes(values: np.ndarray) -> np.ndarray:
        return dstn(values, type=1, norm="ortho")

    nodes = modes  # the orthonormal DST-I is its own inverse

    # operators ------------------------------------------------------------

    def gain(self, delta: float) -> np.ndarray:
        """Per-mode transfer gain of the filter G."""
        return 1.0 / (1.0 + delta**2 * self.lam)

    def solve_shifted(self, theta: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (I + theta*(-lap_h)) x = rhs."""
        return self.nodes(self.modes(rhs) / (1.0 + theta * self.lam))

    def apply_filter(self, delta: float, values: np.ndarray) -> np.ndarray:
        return self.nodes(self.gain(delta) * self.modes(values))

    def _iterated(self, delta: float, ubar: np.ndarray, denom: np.ndarray,
                  updates: int) -> tuple[list[np.ndarray], list[float]]:
        g = self.gain(delta)
        b = self.modes(ubar)
        c = b / denom
        iterates = [self.nodes(c)]
        norms = []
        for _ in range(updates):
            step = (b - g * c) / denom
            c = c + step
            iterates.append(self.nodes(c))
            norms.append(self.norm(step))
        return iterates, norms

    def tl(self, delta: float, ubar: np.ndarray, alpha: float) -> np.ndarray:
        return self.itl(delta, ubar, alpha, 0)[0][0]

    def itl(self, delta: float, ubar: np.ndarray, alpha: float, updates: int):
        """Iterates u_0..u_J and update norms of iterated Tikhonov-Lavrentiev."""
        return self._iterated(delta, ubar, self.gain(delta) + alpha, updates)

    def mtl(self, delta: float, ubar: np.ndarray, alpha: float) -> np.ndarray:
        return self.mitlar(delta, ubar, alpha, 0)[0][0]

    def mitlar(self, delta: float, ubar: np.ndarray, alpha: float, updates: int):
        """Iterates u_0..u_J and update norms of the modified iterated scheme."""
        denom = (1.0 - alpha) * self.gain(delta) + alpha
        return self._iterated(delta, ubar, denom, updates)

    # trapezoid quadrature -------------------------------------------------

    def norm(self, values: np.ndarray) -> float:
        """L2 norm of nodal values, or of their modes: the orthonormal DST preserves it."""
        return float(np.sqrt(self.weight * np.sum(values * values)))

    # noise and the stopping rule -------------------------------------------

    def noise(self, seed: int, level: float, reference: np.ndarray):
        """Seeded standard-normal noise scaled to ``level * ||reference||``.

        This is the documented construction of ``signals.gen_noise``; the
        benchmark re-derives it so that its check does not trust the package.
        Returns ``(epsilon, eps0)``.
        """
        raw = np.random.default_rng(seed).standard_normal(self.shape)
        eps = raw * (level * self.norm(reference) / self.norm(raw))
        return eps, self.norm(eps)

    def stopping(self, delta: float, data: np.ndarray, epsilon: np.ndarray,
                 alpha: float, eps0: float, j_max: int):
        """Record-only mitlar run with the noise-aware stopping rule.

        Returns ``(candidate_norms, flags, stop_index, energies)`` where
        ``energies[j]`` is the noisy energy of iterate ``u_j``,
        ``j = 0..j_max``, and ``flags[j-1]`` says whether candidate ``j``
        passes ``eps0 <= alpha * ||u_j - u_{j-1}||``.
        """
        g = self.gain(delta)
        b = self.modes(data)
        e = self.modes(epsilon)
        denom = (1.0 - alpha) * g + alpha

        def energy(c):
            return self.weight * (0.5 * np.sum(g * c * c) - np.sum((b + e) * c))

        c = b / denom
        energies = [energy(c)]
        norms, flags = [], []
        stop_index = None
        for j in range(1, j_max + 1):
            step = (b - g * c) / denom
            norm = self.norm(step)
            flag = norm > 0.0 and eps0 <= alpha * norm
            norms.append(norm)
            flags.append(flag)
            if not flag and stop_index is None:
                stop_index = j - 1
            c = c + step
            energies.append(energy(c))
        return norms, flags, (j_max if stop_index is None else stop_index), energies
