"""Output checks for each workload, run between requests outside the timed interval.

``deconv2d-random`` and ``stopping1d-mc`` are checked against the spectral
reference in ``spectral.py``; ``cli-presets`` against stored golden files and
text rendered from the same reference.  A check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import golden
from spectral import Spectral, axis_nodes

# CG stops at a relative residual of 1e-12; measured agreement with the
# reference is about 2e-12 at n=128 (error about 2.3x the CG tolerance), and
# 1D banded elimination about 1e-14.  A CG tolerance 100x looser fails.
FIELD_RTOL = 1e-10


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / scale) if scale else float(np.linalg.norm(got))


def _fmt(x: float) -> str:
    return format(x, ".16e")


class Deconv2dCheck:
    """Filter output and every scheme iterate and update norm against the reference."""

    def __init__(self, workload):
        self.w = workload
        self.sp = Spectral(workload.bounds, (workload.n, workload.n))

    def __call__(self, u, out) -> list[str]:
        w, sp = self.w, self.sp
        u_bar, tl, mtl, itl, mitlar = out
        problems = []

        def field(label, got, want):
            err = _rel(got, want)
            if not err <= FIELD_RTOL:
                problems.append(f"{label}: relative error {err:.3e} > {FIELD_RTOL:.0e}")

        def trace(label, got, want):
            iterates, norms = want
            if len(got.iterates) != len(iterates):
                problems.append(f"{label}: {len(got.iterates)} iterates, expected {len(iterates)}")
                return
            for j, (g, ref) in enumerate(zip(got.iterates, iterates)):
                field(f"{label} u_{j}", g.values, ref)
            field(f"{label} update norms", np.array(got.update_norms), np.array(norms))

        field("apply_filter", u_bar.values, sp.apply_filter(w.delta, u.values))
        ref_bar = u_bar.values  # isolates each scheme from the filter's own error
        field("tl", tl.values, sp.tl(w.delta, ref_bar, w.alpha))
        field("mtl", mtl.values, sp.mtl(w.delta, ref_bar, w.alpha))
        trace("itl", itl, sp.itl(w.delta, ref_bar, w.alpha, w.updates))
        trace("mitlar", mitlar, sp.mitlar(w.delta, ref_bar, w.alpha, w.updates))
        return problems


class StoppingReference:
    """The filtered stopping1d preset signal, and reference stopping runs, one per noise seed."""

    def __init__(self, config):
        self.config = config
        (a, b), = config.bounds
        x = axis_nodes(a, b, config.n)
        signal = np.sin(np.pi * x) + np.sin(200.0 * np.pi * x)  # the preset signal
        self.delta = 6.0 * (b - a) / config.n  # preset radius: 6 h
        self.sp = Spectral(config.bounds, (config.n,))
        self.u_bar = self.sp.apply_filter(self.delta, signal)

    def run(self, seed: int):
        c = self.config
        eps, eps0 = self.sp.noise(seed, c.noise_level, self.u_bar)
        norms, flags, stop, energies = self.sp.stopping(
            self.delta, self.u_bar - eps, eps, c.alpha, eps0, c.j_max)
        return eps0, norms, flags, stop, energies

    def render(self, seed: int) -> dict[str, str]:
        """Expected files of a record-only ``stopping`` CLI run, by name."""
        c = self.config
        eps0, norms, flags, stop, energies = self.run(seed)
        reason = "criterion" if stop < c.j_max else "max_iterations"
        lines = [f"# alpha={_fmt(c.alpha)},eps0={_fmt(eps0)},delta={_fmt(self.delta)},"
                 f"n={c.n},seed={seed},jstar={stop},reason={reason}",
                 "j,update_norm,energy_noisy,continue_flag"]
        for j, (norm, flag) in enumerate(zip(norms, flags), start=1):
            lines.append(f"{j},{_fmt(norm)},{_fmt(energies[j])},{'true' if flag else 'false'}")
        summary = (f"stopping demonstration\n"
                   f"n={c.n} delta={_fmt(self.delta)} alpha={_fmt(c.alpha)} "
                   f"level={_fmt(c.noise_level)} jmax={c.j_max}\n"
                   f"first run: jstar={stop} reason={reason}\n")
        return {"stopping_run.csv": "\n".join(lines) + "\n", "stopping_summary.txt": summary}


class StoppingCheck:
    """Every Monte Carlo run: update norms, stop index, energies and descent."""

    def __init__(self, workload):
        self.ref = StoppingReference(workload.base)

    def __call__(self, config, result) -> list[str]:
        problems = []
        if len(result.runs) != config.mc_runs:
            return [f"{len(result.runs)} runs, expected {config.mc_runs}"]
        for item, run in enumerate(result.runs):
            seed = config.seed + item
            where = f"seed {seed}"
            _, norms, _, stop, energies = self.ref.run(seed)
            if run.seed != seed:
                problems.append(f"{where}: run carries seed {run.seed}")
            if run.stop_index != stop:
                problems.append(f"{where}: stop index {run.stop_index}, expected {stop}")
            err = _rel(np.array(run.candidate_update_norms), np.array(norms))
            if not err <= FIELD_RTOL:
                problems.append(f"{where}: update norms off by {err:.3e}")
            got_e = np.array(run.energies)
            err = _rel(got_e, np.array(energies))
            if not err <= FIELD_RTOL:
                problems.append(f"{where}: energies off by {err:.3e}")
            rises = np.flatnonzero(np.diff(got_e[:run.stop_index + 1])
                                   > 1e-12 * np.abs(got_e[:run.stop_index]))
            if rises.size:
                problems.append(f"{where}: noisy energy rises at j={int(rises[0]) + 1} "
                                f"before the stop index {run.stop_index}")
        counts = sorted(Counter(r.stop_index for r in result.runs).items())
        if list(result.histogram) != counts:
            problems.append(f"histogram {result.histogram} != {counts}")
        return problems


def _field_csv(bounds, n: int, values: np.ndarray) -> str:
    """Expected ``write_field_csv`` text for interior values on an n-interval grid."""
    axes = [axis_nodes(a, b, n) for a, b in bounds]
    if len(axes) == 1:
        lines = ["i,x,value"]
        lines += [f"{i},{_fmt(x)},{_fmt(v)}" for i, (x, v) in enumerate(zip(axes[0], values), 1)]
    else:
        xs = [_fmt(x) for x in axes[0]]
        ys = [_fmt(y) for y in axes[1]]
        lines = ["i,j,x,y,value"]
        lines += [f"{i},{j},{xs[i - 1]},{ys[j - 1]},{_fmt(values[i - 1, j - 1])}"
                  for i in range(1, len(xs) + 1) for j in range(1, len(ys) + 1)]
    return "\n".join(lines) + "\n"


def rates2d_filtered_csv(n: int) -> str:
    """Expected ``filtered_signal.csv`` of ``filter --preset rates2d --n <n>``."""
    bounds, delta = ((0.0, 2.0), (0.0, 2.0)), 0.1 * (2.0 * math.pi / n) ** 0.25
    x = axis_nodes(0.0, 2.0, n)
    u = np.outer(np.sin(np.pi * x), np.sin(np.pi * x))
    u += np.outer(np.sin(20.0 * np.pi * x), np.sin(20.0 * np.pi * x))
    return _field_csv(bounds, n, Spectral(bounds, (n, n)).apply_filter(delta, u))


class CliCheck:
    """Exit code, exact file set, every file within the golden tolerance, stdout."""

    def __init__(self, workload):
        self.stopping = StoppingReference(workload.hd.preset_config("stopping1d"))
        c = self.stopping.config  # the filter command's default preset is stopping1d
        self.expected = {kind: golden.load(kind) for kind in ("compare", "rates")}
        self.expected["filter"] = {
            **golden.load("filter"),
            "filtered_signal.csv": _field_csv(c.bounds, c.n, self.stopping.u_bar)}
        self.expected["filter-rates2d-n160"] = {
            **golden.load("filter-rates2d-n160"),
            "filtered_signal.csv": rates2d_filtered_csv(160)}

    def __call__(self, inp, out) -> list[str]:
        if out.exit_code != 0:
            return [f"{inp.kind}: exit code {out.exit_code}"]
        if inp.kind == "stopping":
            expected = self.stopping.render(inp.seed)
        else:
            expected = self.expected[inp.kind]
        problems = golden.compare_outputs(inp.out_dir, expected)
        if f"wrote {len(expected)} files to {inp.out_dir}" not in out.stdout:
            problems.append(f"stdout {out.stdout.strip()!r} does not report the files")
        return [f"{inp.kind}: {p}" for p in problems]


CHECKS = {"deconv2d-random": Deconv2dCheck, "stopping1d-mc": StoppingCheck,
          "cli-presets": CliCheck}
