"""Every exported name resolves, and so does every function the benchmark traces."""

import ast
import importlib
from pathlib import Path

import helmdeconv

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
