"""The public names and the functions the benchmark tracer wraps exist."""

import ast
import importlib
from pathlib import Path

import sublorentz


def test_every_exported_name_resolves():
    missing = [name for name in sublorentz.__all__ if not hasattr(sublorentz, name)]
    assert missing == []


def _traced():
    # read the list without importing the benchmark package
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED list")


def test_every_traced_function_exists():
    traced = _traced()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"sublorentz.{module}"), name, None))
    ]
    assert missing == []
