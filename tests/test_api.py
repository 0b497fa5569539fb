"""The public names and the functions the benchmark tracer wraps exist, and
every public function or class has a reader."""

import ast
import importlib
import re
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


def _read_names(path):
    """Every identifier the file reads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_reader():
    # A public top-level function or class must be read somewhere other than
    # its definition, the package __init__ and its own tests/test_<module>.py.
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "sublorentz"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    shared = set().union(*(_read_names(p) for p in modules + sorted((root / "bench").glob("*.py"))))
    tests = {p.name: _read_names(p) for p in (root / "tests").glob("test_*.py")}
    readme = (root / "README.md").read_text()
    unread = []
    for path in modules:
        readers = shared.union(*(names for file, names in tests.items() if file != f"test_{path.stem}.py"))
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in readers and not re.search(rf"\b{node.name}\b", readme):
                unread.append(f"{path.stem}.{node.name}")
    assert unread == [], "read by nothing: " + ", ".join(unread)
