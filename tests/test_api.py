"""The public names are their home modules' own objects, importing the
package loads none of its modules, the functions the benchmark tracer wraps
exist, every public function, class and result field has a reader, and the
console script and ``python -m sublorentz.cli`` enter through one function."""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sublorentz

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "sublorentz").glob("*.py") if p.name != "__init__.py")


@functools.lru_cache(maxsize=None)
def _tree(path):
    """The parsed file at path, parsed once per session; callers only read it."""
    return ast.parse(path.read_text())


@functools.lru_cache(maxsize=None)
def _nodes(path):
    """Every node of _tree(path), in ast.walk order, listed once per session."""
    return tuple(ast.walk(_tree(path)))


def _defined_names(path):
    """The names a module's top level defines: functions, classes, assignments."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_resolves():
    missing = [name for name in sublorentz.__all__ if not hasattr(sublorentz, name)]
    assert missing == []
    # each name is the very object of the one module that defines it
    homes = {path.stem: _defined_names(path) for path in MODULES}
    for name in sublorentz.__all__:
        if name == "__version__":
            continue
        defining = [module for module, names in homes.items() if name in names]
        assert len(defining) == 1, (name, defining)
        home = importlib.import_module(f"sublorentz.{defining[0]}")
        assert getattr(sublorentz, name) is getattr(home, name), name


_LAYERING_PROBE = """
import contextlib, io, sys
import sublorentz
loaded = sorted(m for m in sys.modules if m.startswith("sublorentz."))
assert loaded == [] and "numpy" not in sys.modules, loaded
from sublorentz import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["tau", "--from", "0,0,0", "--to", "2,1,0.1"],
                 ["logmap", "--from", "0,0,0", "--to", "2,1,0.1"],
                 ["geodesic", "--cov", "-1,0,1", "--n", "5"]):
        assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("sublorentz."))
assert "dataclasses" not in sys.modules, sorted(m for m in sys.modules if m.startswith("sublorentz."))
# the LP commands load logging only if something else already has, the
# monotonicity audit draws no random cycles, on a 6x6 pair or on an 8x8 pair
# whose support has more than 12 pairs, so none of them loads numpy.random,
# and no command loads dataclasses (the test process wrote the pairs to
# sys.argv[1])
import os
names = ("mu.txt", "nu.txt", "mu8.txt", "nu8.txt", "b", "i")
mu, nu, mu8, nu8, b, i = (os.path.join(sys.argv[1], name) for name in names)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "--mu", mu, "--nu", nu]) == 0
    assert cli.main(["solve", "--mu", mu8, "--nu", nu8]) == 0
    assert cli.main(["brenier", "--mu", mu, "--nu", nu, "--out", b]) == 0
    assert cli.main(["interpolate", "--mu", mu, "--nu", nu, "--t", "0.5", "--out", i]) == 0
    assert cli.main(["right-translation", "--mu", mu, "--q0", "1.5,0.2,0"]) == 0
loaded = [m for m in ("logging", "numpy.random", "dataclasses") if m in sys.modules]
assert loaded == [], loaded
"""


def test_import_layering(tmp_path):
    # A fresh interpreter: importing the package loads no submodule and no
    # numpy, the start-up bound commands run without numpy, and solve,
    # brenier, interpolate and right-translation on a 6x6 pair, and solve on
    # an 8x8 pair with 15 support pairs, run without logging, numpy.random
    # or dataclasses.
    from sublorentz.measures_io import sample_chronological_pair, save_measure
    from sublorentz.transport import CostParams, solve_kantorovich

    for measure, name in zip(sample_chronological_pair(6, 6, seed=1, weights="random"), ("mu.txt", "nu.txt")):
        save_measure(measure, str(tmp_path / name))
    pair8 = sample_chronological_pair(8, 8, seed=5, weights="random")
    assert len(solve_kantorovich(*pair8, CostParams(0.5))[0].support()) > 12
    for measure, name in zip(pair8, ("mu8.txt", "nu8.txt")):
        save_measure(measure, str(tmp_path / name))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_dataclasses():
    # Records are NamedTuples or __slots__ classes; this also covers the
    # modules the layering probe never loads, such as svg.
    importers = []
    for path in sorted((ROOT / "src" / "sublorentz").glob("*.py")):
        for node in _nodes(path):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "dataclasses" in (name.split(".")[0] for name in names):
                importers.append(path.name)
    assert importers == []


def test_console_script_and_main_block_share_one_entry():
    # pyproject's sublorentz script and cli.py's __main__ block call the same
    # process entry, and neither calls main directly: the exit has one path
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        script = tomllib.load(f)["project"]["scripts"]["sublorentz"]
    module, _, target = script.partition(":")
    assert module == "sublorentz.cli"
    blocks = [
        node
        for node in _tree(ROOT / "src" / "sublorentz" / "cli.py").body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert len(blocks) == 1
    calls = [
        ast.unparse(node.func) for stmt in blocks[0].body for node in ast.walk(stmt) if isinstance(node, ast.Call)
    ]
    assert calls == [target] and target != "main", (script, calls)
    from sublorentz import cli

    assert callable(getattr(cli, target, None))


def _traced():
    # read the list without importing the benchmark package
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    for node in _tree(spans).body:
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
    for node in _nodes(path):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_attributes(path):
    """Every name the file reads as an attribute, obj.name."""
    return {
        node.attr
        for node in _nodes(path)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _readers(read):
    """Per module, what read() finds in src/, bench/ and every test file
    except the module's own tests/test_<module>.py."""
    shared = set().union(*(read(p) for p in MODULES + sorted((ROOT / "bench").glob("*.py"))))
    tests = {p.name: read(p) for p in (ROOT / "tests").glob("test_*.py")}
    return {
        path: shared.union(*(names for file, names in tests.items() if file != f"test_{path.stem}.py"))
        for path in MODULES
    }


def test_every_public_name_has_a_reader():
    # A public top-level function or class must be read somewhere other than
    # its definition, the package __init__ and its own tests/test_<module>.py.
    readers = _readers(_read_names)
    readme = (ROOT / "README.md").read_text()
    unread = []
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in readers[path] and not re.search(rf"\b{node.name}\b", readme):
                unread.append(f"{path.stem}.{node.name}")
    assert unread == [], "read by nothing: " + ", ".join(unread)


def _fields(cls):
    """The annotated fields and the properties of a class definition."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.FunctionDef) and any(
            getattr(d, "id", None) == "property" for d in node.decorator_list
        ):
            yield node.name


def test_every_field_has_a_reader():
    # An annotated field or property of a public class must be read as an
    # attribute somewhere in src/, bench/ or a test file other than its
    # class's own tests/test_<module>.py.  README prose does not count.  The
    # match is by name, so a field whose name another attribute shares
    # (.params, .q0, .cost) passes whether or not anything reads it; such
    # fields have to be checked by hand.
    readers = _readers(_read_attributes)
    unread = [
        f"{path.stem}.{cls.name}.{field}"
        for path in MODULES
        for cls in _tree(path).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for field in _fields(cls)
        if not field.startswith("_") and field not in readers[path]
    ]
    assert unread == [], "read by nothing: " + ", ".join(unread)


def _body_nodes(module, name):
    """Every AST node in the body of a top-level function (not its signature)."""
    path = ROOT / "src" / "sublorentz" / f"{module}.py"
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return [sub for stmt in node.body for sub in ast.walk(stmt)]
    raise AssertionError(f"{module}.py defines no {name}")


def test_scalar_kernels_build_no_difference_record():
    # classify, tau and log_map take the group difference as three plain
    # floats from heisenberg._difference: no group_difference call and no
    # GroupPoint per pair, and classify returns the members bound once at
    # module level instead of looking them up on CausalRelation
    found = []
    for module, name in (("causality", "classify"), ("causality", "tau"), ("geodesics", "log_map")):
        for node in _body_nodes(module, name):
            if isinstance(node, ast.Name) and node.id in ("group_difference", "GroupPoint"):
                found.append(f"{module}.{name} reads {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr == "group_difference":
                found.append(f"{module}.{name} reads .group_difference")
    for node in _body_nodes("causality", "classify"):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "CausalRelation":
            found.append(f"causality.classify reads CausalRelation.{node.attr}")
    assert found == []


def test_scalar_path_builds_records_without_their_constructors():
    # the per-pair kernels build GroupPoint, FrameCovector and
    # HamiltonianState through tuple.__new__, skipping the Python-level
    # __new__ that NamedTuple generates; _beta_twist writes its two Newton
    # steps out, and _flow computes its f-factors inline
    records = ("GroupPoint", "FrameCovector", "HamiltonianState")
    found = []
    for module, name in (("heisenberg", "mul"), ("heisenberg", "group_difference"),
                         ("geodesics", "_flow"), ("geodesics", "flow"), ("geodesics", "log_map")):
        for node in _body_nodes(module, name):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in records:
                found.append(f"{module}.{name} calls {node.func.id}")
    for node in _body_nodes("causality", "_beta_twist"):
        if isinstance(node, (ast.For, ast.While, ast.comprehension)):
            found.append("causality._beta_twist loops")
    geodesics = _tree(ROOT / "src" / "sublorentz" / "geodesics.py")
    if any(getattr(node, "name", None) == "_flow_factors" for node in geodesics.body):
        found.append("geodesics defines _flow_factors")
    assert found == []


def test_simplex_tree_keeps_no_child_lists():
    # the basis tree is kept in preorder (thread, rev, size, last): the
    # climb compares subtree sizes, and the re-hung subtree is a run of the
    # thread, so no child list, list.remove or depth is kept per node
    found = []
    for node in _body_nodes("simplex", "solve_max_transport"):
        if isinstance(node, ast.Name) and node.id in ("children", "depth"):
            found.append(f"names {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr == "remove":
            found.append("calls .remove")
    assert found == []



def test_simplex_keeps_one_price_array():
    # the arc prices live in one complex array, M part + i * float part: the
    # float phase prices on views of its imaginary part, and a pivot stores
    # each price change through one memoryview, with no float copy kept
    viewed, copies = [], 0
    for node in _body_nodes("simplex", "solve_max_transport"):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "memoryview":
            viewed.append(ast.unparse(node.args[0]))
        copies += isinstance(node, ast.Attribute) and node.attr == "copy"
    assert ([v for v in viewed if "price" in v], copies) == (["price_mf_f"], 0)


def test_verify_suites_build_results_through_one_rule():
    # every SuiteResult in verify.py comes from _result, which holds each
    # check's value and bound
    path = ROOT / "src" / "sublorentz" / "verify.py"
    built = [
        (func.name, ast.unparse(node.args[0]) if node.args else "")
        for func in _tree(path).body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SuiteResult"
    ]
    assert built == [("_result", "name")]


def test_verify_flow_oracle_reads_nothing_from_geodesics():
    # _taylor_flows integrates the geodesic equations on its own: it reads no
    # name that verify.py imports from geodesics, so it shares no code with
    # the closed form that flow-vs-ode checks against it
    path = ROOT / "src" / "sublorentz" / "verify.py"
    imported = {
        alias.asname or alias.name
        for node in _tree(path).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "geodesics"
        for alias in node.names
    }
    assert "flow" in imported
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in _body_nodes("verify", "_taylor_flows")
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert read & (imported | {"geodesics"}) == set()
    calls = {getattr(node.func, "id", None) for node in _body_nodes("verify", "suite_flow_vs_ode")
             if isinstance(node, ast.Call)}
    assert {"_taylor_flows", "flow"} <= calls


def test_source_lines_fit_116_characters():
    # the longest line in src/ when this bound was set; a longer one is a
    # line to split, not a bound to raise
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in (*MODULES, ROOT / "src" / "sublorentz" / "__init__.py")
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > 116
    ]
    assert long_lines == []


def test_one_gain_scale_rule():
    # simplex.gain_exponent is the one place that picks the power of two by
    # which the LP layer scales its gains: math.frexp appears nowhere else,
    # and no function that rescales by ldexp compares anything with 1.0,
    # which is how a one-sided "scale only below 1" rule reads
    def is_one(node):
        return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1.0

    found = []
    for path in MODULES:
        for func in _nodes(path):
            if not isinstance(func, ast.FunctionDef):
                continue
            nodes = [sub for stmt in func.body for sub in ast.walk(stmt)]
            names = {getattr(node, "attr", getattr(node, "id", None)) for node in nodes}
            if "frexp" in names and (path.stem, func.name) != ("simplex", "gain_exponent"):
                found.append(f"{path.stem}.{func.name} reads frexp")
            compares = [node for node in nodes if isinstance(node, ast.Compare)]
            if names & {"frexp", "ldexp"} and any(is_one(c) for n in compares for c in [n.left, *n.comparators]):
                found.append(f"{path.stem}.{func.name} compares with 1.0")
    assert found == []
