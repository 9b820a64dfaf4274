"""Every exported name resolves, and so does everything the benchmark calls or traces."""

import ast
import importlib
from pathlib import Path

import helmdeconv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = PERFBENCH / "workloads.py"


def test_every_exported_name_resolves():
    for name in helmdeconv.__all__:
        assert getattr(helmdeconv, name) is not None, name


def _traced_functions():
    # read the table without importing the benchmark (it imports its own modules)
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no FUNCTIONS table in perfbench/layers.py")


def test_every_benchmark_traced_function_exists():
    functions = _traced_functions()
    assert functions
    for span, module, attr in functions:
        mod = importlib.import_module(f"helmdeconv.{module}")
        assert callable(getattr(mod, attr, None)), span


def _is_package(node):
    # the workloads reach the package as ``hd`` or ``self.hd``
    return (isinstance(node, ast.Name) and node.id == "hd") or (
        isinstance(node, ast.Attribute) and node.attr == "hd"
        and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_every_package_name_the_benchmark_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and _is_package(node.value)}
    assert {"make_grid", "cli_main", "run_stopping"} <= names
    for name in names:
        assert getattr(helmdeconv, name, None) is not None, name


def test_grid_dim_the_benchmark_reads():
    # perfbench/layers.py splits the traced solve on grid.dim
    assert helmdeconv.make_grid(2, (0.0, 1.0), 4).dim == 2
    assert helmdeconv.make_grid(1, (0.0, 1.0), 4).dim == 1
