"""The three benchmark workloads: seeded inputs and one request each.

Every workload is a closed loop with one client: the runner builds input
``i`` (untimed), sends it through the package's public API (timed), checks
the output against a reference (untimed), and only then builds input
``i + 1``.  The package receives only generated inputs: fields, experiment
configs and CLI argv.  Names are fixed; later changes cite them.

This module imports nothing beyond numpy, so a fresh interpreter that
imports ``helmdeconv`` and then builds a workload measures set-up time
without the benchmark's own reference code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import shutil
from pathlib import Path

import numpy as np

FLOAT_BYTES = 8


def _field_bytes(shape) -> int:
    return int(np.prod(shape)) * FLOAT_BYTES


class Deconv2dRandom:
    """Seeded white noise at n=128 in 2D, filtered and deconvolved by all four schemes.

    A random right-hand side excites every Laplacian mode, so the 2D
    conjugate gradient inside ``solve_shifted`` runs to its tolerance (the
    preset signals are eigenvectors and converge in a few iterations).
    """

    name = "deconv2d-random"
    n = 128
    bounds = ((0.0, 2.0), (0.0, 2.0))
    updates = 1
    warmup = 2

    def __init__(self, hd, seed: int, work_dir: Path):
        self.hd = hd
        self.seed = seed
        self.grid = hd.make_grid(2, self.bounds, self.n)
        scale = 2.0 * math.pi / self.n
        self.delta = 0.1 * scale**0.25
        self.alpha = 0.1 * scale**0.5
        self.filt = hd.HelmholtzFilter(self.grid, self.delta)
        self.first_input = self.make_input(0)  # set-up ends with input 0 built

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        return self.hd.Field(self.grid, rng.standard_normal(self.grid.interior_shape))

    def request(self, u):
        hd, filt, alpha = self.hd, self.filt, self.alpha
        u_bar = hd.apply_filter(filt, u)
        return (u_bar,
                hd.deconvolve_tl(filt, u_bar, alpha),
                hd.deconvolve_mtl(filt, u_bar, alpha),
                hd.deconvolve_itl(filt, u_bar, alpha, self.updates),
                hd.deconvolve_mitlar(filt, u_bar, alpha, self.updates))

    def working_set(self) -> dict:
        field = _field_bytes(self.grid.interior_shape)
        # CG holds x, r, p, A p, the right-hand side and a padded stencil copy
        return {"field_bytes": field, "solver_arrays": 6, "solver_bytes": 6 * field}


class Stopping1dMc:
    """``run_stopping`` on preset stopping1d with 16 Monte Carlo seeds per request.

    No 2D solve: the load is small 1D banded solves, quadrature norms,
    energies and ``Field`` arithmetic.  Request ``i`` uses seeds
    ``seed + 16*i .. seed + 16*i + 15``.
    """

    name = "stopping1d-mc"
    preset = "stopping1d"
    mc_runs = 16
    warmup = 2

    def __init__(self, hd, seed: int, work_dir: Path):
        self.hd = hd
        self.seed = seed
        self.base = hd.preset_config(self.preset)
        self.first_input = self.make_input(0)  # set-up ends with input 0 built

    def make_input(self, i: int):
        return dataclasses.replace(self.base, mc_runs=self.mc_runs,
                                   seed=self.seed + self.mc_runs * i)

    def request(self, config):
        return self.hd.run_stopping(config)

    def working_set(self) -> dict:
        field = _field_bytes((self.base.n - 1,))
        # banded solve: 3-row band, right-hand side and solution
        return {"field_bytes": field, "solver_arrays": 5, "solver_bytes": 5 * field}


# (kind, argv) in request order; the runner cycles through them.
CLI_MIX = (
    ("compare", ["compare"]),
    ("rates", ["rates"]),
    ("stopping", ["stopping"]),
    ("filter", ["filter"]),
    ("filter-rates2d-n160", ["filter", "--preset", "rates2d", "--n", "160"]),
)


@dataclasses.dataclass(frozen=True)
class CliInput:
    kind: str
    argv: list[str]
    out_dir: Path
    seed: int


@dataclasses.dataclass(frozen=True)
class CliOutput:
    exit_code: int
    stdout: str


class CliPresets:
    """One in-process ``cli_main`` call per request, cycling through ``CLI_MIX``.

    Each request writes into a fresh directory under the checkout; the
    runner removes it after the check.  Request ``i`` passes ``--seed seed+i``.
    """

    name = "cli-presets"
    warmup = len(CLI_MIX)

    def __init__(self, hd, seed: int, work_dir: Path):
        self.hd = hd
        self.seed = seed
        self.work_dir = work_dir / "cli"
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        self.first_input = self.make_input(0)  # set-up ends with input 0 built

    def make_input(self, i: int) -> CliInput:
        kind, argv = CLI_MIX[i % len(CLI_MIX)]
        out_dir = self.work_dir / f"req{i}"
        seed = self.seed + i
        return CliInput(kind, [*argv, "--out", str(out_dir), "--seed", str(seed)],
                        out_dir, seed)

    def request(self, inp: CliInput) -> CliOutput:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = self.hd.cli_main(inp.argv)
        return CliOutput(code, captured.getvalue())

    def finish(self, inp: CliInput) -> int:
        """Remove a request's output directory; returns the bytes it held."""
        written = sum(p.stat().st_size for p in inp.out_dir.rglob("*") if p.is_file())
        shutil.rmtree(inp.out_dir, ignore_errors=True)
        return written

    def working_set(self) -> dict:
        # the largest field is the n=480 level of the rates study
        field = _field_bytes((479, 479))
        return {"field_bytes": field, "solver_arrays": 6, "solver_bytes": 6 * field}


WORKLOADS = {cls.name: cls for cls in (Deconv2dRandom, Stopping1dMc, CliPresets)}
