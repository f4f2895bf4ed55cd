import ast
import importlib
import sys
from pathlib import Path

import pytest

from cpvi.dynamics import APPENDIX_SOURCE

ROOT = Path(__file__).resolve().parents[1]


def test_console_scripts_import():
    """Every [project.scripts] target names a module and a callable in it."""
    tomllib = pytest.importorskip("tomllib")

    with (ROOT / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _module_of(node):
    """The cpvi module name of an expression ``cp.<module>``, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cp"):
        return node.attr
    return None


def _aliases(scope):
    """Names bound to a cpvi module in ``scope``: ``lin = cp.linear`` and
    ``sym, dyn = cp.symmetry, cp.dynamics``."""
    out = {}
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            else:
                pairs = [(target, node.value)]
            for name, value in pairs:
                module = _module_of(value)
                if module is not None and isinstance(name, ast.Name):
                    out[name.id] = module
    return out


def _cpvi_references(tree):
    """{(module, name, line)} for every ``cp.<module>.<name>`` in a parsed
    benchmark file, and every ``<alias>.<name>`` inside a function that
    binds the alias to ``cp.<module>``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _module_of(node.value) is not None:
            refs.add((_module_of(node.value), node.attr, node.lineno))
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = _aliases(scope)
        for node in ast.walk(scope):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr, node.lineno))
    return refs


def test_reference_scanner_follows_aliases():
    tree = ast.parse(
        "def f(cp):\n"
        "    lin = cp.linear\n"
        "    sym, dyn = cp.symmetry, cp.dynamics\n"
        "    return cp.hyperfn.eval_series, lin.branch_spec, dyn.integrate, sym.coordinate\n"
        "def g(lin):\n"
        "    return lin.not_cpvi\n")
    assert {(m, name) for m, name, _ in _cpvi_references(tree)} == {
        ("hyperfn", "eval_series"), ("linear", "branch_spec"),
        ("dynamics", "integrate"), ("symmetry", "coordinate")}


def test_benchmark_reaches_only_existing_names():
    """Every cpvi module and name that a perfbench/ script reaches exists,
    so deleting a name the benchmark calls fails here, not in the benchmark."""
    bench = ROOT / "perfbench"
    if not bench.is_dir():
        pytest.skip("no perfbench/ directory in this checkout")
    missing, seen = [], 0
    for path in sorted(bench.glob("*.py")):
        for module, name, line in sorted(_cpvi_references(ast.parse(path.read_text()))):
            seen += 1
            try:
                found = hasattr(importlib.import_module(f"cpvi.{module}"), name)
            except ImportError:
                found = False
            if not found:
                missing.append(f"{path.name}:{line}: cpvi.{module}.{name}")
    assert seen, "no cpvi reference found in perfbench/"
    assert not missing, missing


def _module_definitions(tree):
    """Module-level functions, classes and constants of a parsed module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _private_definitions(tree):
    """Module-level private functions, classes and constants of a parsed module."""
    return [name for name in _module_definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def _public_definitions(tree):
    """Module-level public functions, classes and constants of a parsed module."""
    return [name for name in _module_definitions(tree) if not name.startswith("_")]


def _loaded_names(tree):
    """Every bare name and attribute a parsed module reads (Load context only)."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_private_name_scanner_finds_orphans():
    tree = ast.parse(
        "_USED, _ORPHAN = 1, 2\n"
        "_TABLE: dict = {}\n"
        "def _helper():\n"
        "    return _USED + m._TABLE\n"
        "def _dead():\n"
        "    _helper()\n"
        "class _Gone:\n"
        "    pass\n"
        "__all__ = []\n")
    defined = _private_definitions(tree)
    assert sorted(defined) == ["_Gone", "_ORPHAN", "_TABLE", "_USED", "_dead", "_helper"]
    assert sorted(set(defined) - _loaded_names(tree)) == ["_Gone", "_ORPHAN", "_dead"]


def test_no_unreferenced_private_names():
    """Every module-level private function, class and constant in src/cpvi is read
    somewhere in src/cpvi, so a deletion leaves no orphaned helper behind."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "cpvi").glob("*.py"))}
    loaded = set().union(*map(_loaded_names, trees.values()))
    defined = [(module, name) for module, tree in trees.items()
               for name in _private_definitions(tree)]
    assert defined, "no private module-level name found in src/cpvi"
    orphans = [f"{module}: {name}" for module, name in defined if name not in loaded]
    assert not orphans, orphans


def test_public_name_scanner_finds_orphans():
    tree = ast.parse(
        "LIMIT, ORPHAN = 1, 2\n"
        "_hidden = 3\n"
        "def solve():\n"
        "    return LIMIT\n"
        "def unused():\n"
        "    pass\n"
        "class Report:\n"
        "    pass\n"
        "print(solve(), m.Report)\n"
        "__all__ = []\n")
    defined = _public_definitions(tree)
    assert sorted(defined) == ["LIMIT", "ORPHAN", "Report", "solve", "unused"]
    assert sorted(set(defined) - _loaded_names(tree)) == ["ORPHAN", "unused"]


def test_benchmark_names_the_canonical_systems_of_the_library():
    """perfbench/verify.py keeps its own copy of the canonical systems; it must list
    exactly dynamics.APPENDIX_SOURCE, with the same ranks, levels and time flips."""
    script = ROOT / "perfbench" / "verify.py"
    if not script.is_file():
        pytest.skip("no perfbench/ directory in this checkout")
    copies = [node.value for node in ast.parse(script.read_text()).body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "CANONICAL" for target in node.targets)]
    assert len(copies) == 1, "perfbench/verify.py assigns CANONICAL once"
    assert ast.literal_eval(copies[0]) == APPENDIX_SOURCE


def test_no_unreferenced_public_names():
    """Every module-level public function, class and constant in src/cpvi is read
    somewhere in src, tests or perfbench, so a deletion leaves no orphaned public name behind."""
    sources = [path for top in ("src", "tests", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    loaded = set().union(*(_loaded_names(ast.parse(path.read_text())) for path in sources))
    defined = [(path.name, name) for path in sorted((ROOT / "src" / "cpvi").glob("*.py"))
               for name in _public_definitions(ast.parse(path.read_text()))]
    assert defined, "no public module-level name found in src/cpvi"
    orphans = [f"{module}: {name}" for module, name in defined if name not in loaded]
    assert not orphans, orphans


_ALLOWED_IMPORTS = {"numpy", "cpvi"}


def _foreign_imports(tree):
    """Top-level packages a parsed module imports that are neither the standard
    library nor numpy nor cpvi; relative imports are cpvi's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return sorted(names - sys.stdlib_module_names - _ALLOWED_IMPORTS)


def test_import_scanner_finds_foreign_packages():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "import scipy.linalg\n"
        "from fractions import Fraction\n"
        "from .params import ParameterSet\n"
        "from cpvi.linear import build_fuchsian\n"
        "def f():\n"
        "    import mpmath\n"
        "    from sympy import Symbol\n")
    assert _foreign_imports(tree) == ["mpmath", "scipy", "sympy"]


def test_library_imports_only_stdlib_and_numpy():
    """src/cpvi imports nothing but the standard library, numpy and itself, so
    scipy, mpmath, sympy and hypothesis stay test and benchmark tools."""
    foreign = {path.name: _foreign_imports(ast.parse(path.read_text()))
               for path in sorted((ROOT / "src" / "cpvi").glob("*.py"))}
    assert foreign, "no module found in src/cpvi"
    assert not {name: mods for name, mods in foreign.items() if mods}
