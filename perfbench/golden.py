"""Tolerant comparison of CLI output files, and the stored golden outputs.

A file matches its expected text when

* every header, label, integer (``j``, ``jstar``, ``count``, ``n``, ``i``,
  ``J``) and non-numeric cell is identical, and
* every real number ``got`` lies within ``RTOL*|want| + ATOL*scale + q`` of
  ``want``.  ``scale`` is the largest magnitude in the same CSV column (1 for
  numbers in free text, whose signals have unit amplitude) and ``q`` is one
  unit in the last printed digit of ``want``, so a value printed with four
  digits may round the other way.

The tolerance admits what a legitimate kernel change produces and rejects a
wrong answer.  Swapping every shifted solve of the package for an exact DST
solve moves the stored outputs by at most 7e-14 absolute and 3e-14 relative
(a 2D field value by 2e-14, a 1D relative error near 8e-10 by 1e-16, the 2D
roundtrip residual of 2.7e-13 to about 0); with ``RTOL = 1e-10`` and
``ATOL = 1e-12`` that is a margin of at least 50x.  A roundtrip residual
near 1e-11, as a 100x looser conjugate gradient gives, fails.

Outputs that do not depend on the seed are stored under ``golden/<kind>/``.
Field CSVs and the stopping outputs are not stored: the checks render their
expected text from the spectral reference (``ORACLE_FILES``).

Regenerate the stored files after an intended change of output with
``python3 perfbench/golden.py`` from the repository root.
"""

from __future__ import annotations

import re
import shutil
import sys
from pathlib import Path

import numpy as np

RTOL = 1e-10
ATOL = 1e-12

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ORACLE_FILES = frozenset({"filtered_signal.csv", "stopping_run.csv", "stopping_summary.txt"})

_INT = re.compile(r"[-+]?\d+")
_REAL = re.compile(r"[-+]?(\d+)(?:\.(\d*))?(?:[eE]([-+]?\d+))?|[-+]?(?:nan|inf)")
_NUMBER_IN_TEXT = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _quantum(text: str) -> float:
    """One unit in the last printed digit of a real number."""
    match = _REAL.fullmatch(text)
    if match is None or match.group(1) is None:
        return 0.0
    decimals = len(match.group(2) or "")
    exponent = int(match.group(3) or 0)
    return 10.0 ** (exponent - decimals)


def _close(got: list[str], want: list[str], scale: float) -> list[int]:
    """Indices where the real numbers ``got`` and ``want`` disagree."""
    try:
        g = np.array(got, dtype=float)
    except ValueError:
        return [i for i, text in enumerate(got) if _REAL.fullmatch(text.lower()) is None] or [0]
    w = np.array(want, dtype=float)
    ok = np.abs(g - w) <= RTOL * np.abs(w) + ATOL * scale
    bad = np.flatnonzero(~ok)
    return [int(i) for i in bad
            if not abs(g[i] - w[i]) <= RTOL * abs(w[i]) + ATOL * scale + _quantum(want[i])]


def compare_text(got: str, want: str, where: str) -> list[str]:
    """Compare free text: numbers within tolerance, everything else exactly."""
    got_parts = _NUMBER_IN_TEXT.split(got)
    want_parts = _NUMBER_IN_TEXT.split(want)
    got_nums = _NUMBER_IN_TEXT.findall(got)
    want_nums = _NUMBER_IN_TEXT.findall(want)
    if got_parts != want_parts or len(got_nums) != len(want_nums):
        return [f"{where}: text differs: {got[:200]!r} != {want[:200]!r}"]
    problems = []
    reals = [i for i, w in enumerate(want_nums) if not _INT.fullmatch(w)]
    real_set = set(reals)
    for i, w in enumerate(want_nums):
        if i not in real_set and got_nums[i] != w:
            problems.append(f"{where}: integer {got_nums[i]} != {w}")
    for k in _close([got_nums[i] for i in reals], [want_nums[i] for i in reals], 1.0):
        i = reals[k]
        problems.append(f"{where}: number {got_nums[i]} != {want_nums[i]}")
    return problems


def compare_csv(got: str, want: str, where: str) -> list[str]:
    """Compare CSV text column by column; '#' lines are compared as free text."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{where}: {len(got_lines)} lines, expected {len(want_lines)}"]
    problems: list[str] = []
    body = 0
    while body < len(want_lines) and want_lines[body].startswith("#"):
        problems += compare_text(got_lines[body], want_lines[body], f"{where}:{body + 1}")
        body += 1
    if got_lines[body:body + 1] != want_lines[body:body + 1]:
        return problems + [f"{where}: header {got_lines[body:body + 1]} != {want_lines[body:body + 1]}"]
    got_rows = [line.split(",") for line in got_lines[body + 1:]]
    want_rows = [line.split(",") for line in want_lines[body + 1:]]
    width = len(want_lines[body].split(","))
    if any(len(row) != width for row in got_rows + want_rows):
        return problems + [f"{where}: ragged rows"]
    if not want_rows:
        return problems
    for col, (got_col, want_col) in enumerate(zip(zip(*got_rows), zip(*want_rows))):
        if got_col == want_col:
            continue
        reals = [r for r, text in enumerate(want_col)
                 if _REAL.fullmatch(text) and not _INT.fullmatch(text)]
        real_set = set(reals)
        for r, (g, w) in enumerate(zip(got_col, want_col)):
            if r not in real_set and g != w:
                problems.append(f"{where}:{body + 2 + r} column {col + 1}: {g!r} != {w!r}")
        if reals:
            w_vals = [want_col[r] for r in reals]
            scale = float(np.max(np.abs(np.array(w_vals, dtype=float))))
            for k in _close([got_col[r] for r in reals], w_vals, scale):
                r = reals[k]
                problems.append(f"{where}:{body + 2 + r} column {col + 1}: "
                                f"{got_col[r]} != {want_col[r]}")
        if len(problems) > 20:
            break
    return problems


def compare_outputs(out_dir: Path, expected: dict[str, str]) -> list[str]:
    """Compare the file set exactly and each file's content within tolerance."""
    names = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if names != sorted(expected):
        return [f"{out_dir.name}: files {names} != {sorted(expected)}"]
    problems: list[str] = []
    for name, want in expected.items():
        got = (out_dir / name).read_text(encoding="utf-8")
        compare = compare_csv if name.endswith(".csv") else compare_text
        problems += compare(got, want, name)
    return problems


def load(kind: str) -> dict[str, str]:
    """Stored golden files of one CLI request kind, by file name."""
    return {p.name: p.read_text(encoding="utf-8")
            for p in sorted((GOLDEN_DIR / kind).iterdir())}


def regenerate(root: Path) -> None:
    """Rerun every CLI request kind and store its seed-independent outputs."""
    sys.path.insert(0, str(root / "src"))
    import helmdeconv
    from workloads import CLI_MIX

    scratch = root / "perfbench" / "out" / "golden-regen"
    shutil.rmtree(scratch, ignore_errors=True)
    for kind, argv in CLI_MIX:
        out = scratch / kind
        if helmdeconv.cli_main([*argv, "--out", str(out)]) != 0:
            raise SystemExit(f"{kind}: CLI failed")
        stored = [p for p in sorted(out.iterdir()) if p.name not in ORACLE_FILES]
        shutil.rmtree(GOLDEN_DIR / kind, ignore_errors=True)
        if stored:
            (GOLDEN_DIR / kind).mkdir(parents=True)
        for path in stored:
            shutil.copyfile(path, GOLDEN_DIR / kind / path.name)
    shutil.rmtree(scratch)


if __name__ == "__main__":
    regenerate(Path(__file__).resolve().parent.parent)
