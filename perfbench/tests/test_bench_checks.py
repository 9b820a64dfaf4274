"""Output checks: a legitimate kernel change passes, a wrong answer is counted."""

import json
from pathlib import Path

import numpy as np
import pytest

import golden
import run
from checks import CHECKS
from spans import Patch
from spectral import Spectral
from workloads import CLI_MIX, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def one_pass(hd, name, seed, tmp_path):
    """Warm-up requests plus one timed request (for cli-presets, one full cycle + 1)."""
    workload = WORKLOADS[name](hd, seed, tmp_path)
    return workload, run.run_requests(hd, workload, CHECKS[name](workload), 1e-9)


@pytest.mark.parametrize("seed", [0, 1], ids=["default-seed", "held-out-seed"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workloads_pass_their_checks(hd, name, seed, tmp_path):
    _, result = one_pass(hd, name, seed, tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] >= 2


@pytest.fixture
def spectral_kernel(hd):
    """Swap the package's shifted solve for an exact DST solve, as a kernel change would."""
    import helmdeconv.operators as operators

    original = operators.solve_shifted

    def solve_shifted(grid, theta, rhs, *args, **kwargs):
        if theta == 0.0:
            return original(grid, theta, rhs)
        sp = Spectral(grid.bounds, grid.n)
        return hd.Field(grid, sp.solve_shifted(theta, rhs.values))

    patch = Patch("helmdeconv")
    patch.function(original, solve_shifted)
    yield
    patch.undo()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_legitimate_kernel_change_passes(hd, name, spectral_kernel, tmp_path):
    _, result = one_pass(hd, name, 3, tmp_path)
    assert result["failed"] == 0, result["problems"]


@pytest.fixture
def loose_cg(hd):
    """Run the package's 2D conjugate gradient to a 100x looser tolerance, trading precision."""
    import helmdeconv.operators as operators

    original = operators.solve_shifted

    def solve_shifted(grid, theta, rhs, *args, **kwargs):
        return original(grid, theta, rhs, 100 * operators.CG_TOL)

    patch = Patch("helmdeconv")
    patch.function(original, solve_shifted)
    yield
    patch.undo()


def test_looser_solver_tolerance_fails(hd, loose_cg, tmp_path):
    _, result = one_pass(hd, "deconv2d-random", 3, tmp_path)
    assert result["failed"] == result["attempted"]
    assert any("relative error" in p for p in result["problems"])


def _scale_value(text, row, col, factor):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = format(float(cells[col]) * factor, ".16e")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _flip_flag(text, row, col, factor):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = "false" if cells[col] == "true" else "true"
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


PERTURBATIONS = [
    ("compare", "compare_J2.csv", _scale_value, 7, 3),
    ("rates", "rates_mitlar_J1.csv", _scale_value, 4, 1),
    ("filter-rates2d-n160", "filtered_signal.csv", _scale_value, 9000, 4),
    ("filter", "filtered_signal.csv", _scale_value, 101, 2),
    ("stopping", "stopping_run.csv", _flip_flag, 3, 3),
]


@pytest.mark.parametrize("kind,file,mutate,row,col", PERTURBATIONS,
                         ids=[p[0] for p in PERTURBATIONS])
def test_perturbed_cli_output_counts_in_fail_ratio(hd, tmp_path, kind, file, mutate, row, col):
    workload = WORKLOADS["cli-presets"](hd, 0, tmp_path)
    real = workload.request

    def perturbed(inp):
        out = real(inp)
        if inp.kind == kind:
            path = inp.out_dir / file
            path.write_text(mutate(path.read_text(), row, col, 1.0 + 1e-5))
        return out

    workload.request = perturbed
    result = run.run_requests(hd, workload, CHECKS["cli-presets"](workload), 1e-9)
    per_cycle = sum(1 for i in range(result["attempted"])
                    if CLI_MIX[i % len(CLI_MIX)][0] == kind)
    assert result["failed"] == per_cycle >= 1
    assert all(file in p for p in result["problems"])


def test_comparator_rules():
    want = "n,err,flag\n60,1.2345678901234567e-02,true\n120,1.0000000000000000e-03,false\n"
    assert golden.compare_csv(want, want, "f") == []
    assert golden.compare_csv(want.replace("120", "121"), want, "f")
    assert golden.compare_csv(want.replace("n,err", "n,error"), want, "f")
    assert golden.compare_csv(want.replace("1.0000000000000000e-03", "1.0000000000100000e-03"),
                              want, "f") == []
    assert golden.compare_csv(want.replace("1.0000000000000000e-03", "1.0000100000000000e-03"),
                              want, "f")
    assert golden.compare_csv(want.replace("1.0000000000000000e-03", "nan"), want, "f")
    assert golden.compare_csv(want.replace("true", "false"), want, "f")
    assert golden.compare_text("margin 3.852e-10 rate 0.8386", "margin 3.851e-10 rate 0.8385",
                               "t") == []
    assert golden.compare_text("margin 3.853e-10", "margin 3.851e-10", "t") == []
    assert golden.compare_text("roundtrip_residual=2.7e-11", "roundtrip_residual=2.7e-13", "t")
    assert golden.compare_text("roundtrip_residual=1.0e-15", "roundtrip_residual=2.7e-13",
                               "t") == []
    small = "method,rel_l2_error\ntl,5.0e-01\nmitlar,7.9650473080446827e-10\n"
    assert golden.compare_csv(small.replace("7.9650473080446827e-10", "7.96504731e-10"),
                              small, "f") == []
    assert golden.compare_csv(small.replace("7.9650473080446827e-10", "8.0446978e-10"),
                              small, "f")
    assert golden.compare_text("rate 0.8395", "rate 0.8385", "t")
    assert golden.compare_text("jstar=4", "jstar=3", "t")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
