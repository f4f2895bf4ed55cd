import ast
import importlib
from pathlib import Path

import pytest

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
