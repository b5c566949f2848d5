"""The rules every change keeps: standard-library imports only, no
floats, the module layering, and no stale names in the package exports."""

import ast
import sys
from pathlib import Path

import omsal

SRC = Path(__file__).parent.parent / "src" / "omsal"
TESTS = Path(__file__).parent


def _imported_modules(path):
    """Every module a source file imports, package-relative ones as omsal.x."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                mod = f"omsal.{mod}" if mod else "omsal"
            out.append(mod)
    return out


def test_stdlib_only_and_no_floats():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                roots = []
            bad += [f"{where}: import {r}" for r in roots
                    if r != "omsal" and r not in sys.stdlib_module_names]
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                bad.append(f"{where}: float literal {node.value!r}")
            if isinstance(node, ast.Name) and node.id == "float":
                bad.append(f"{where}: the name float")
    assert not bad


def test_every_export_resolves():
    assert not [name for name in omsal.__all__ if not hasattr(omsal, name)]


def test_module_layering():
    # posets is a leaf: it needs nothing from the package but its errors
    assert set(_imported_modules(SRC / "posets.py")) <= \
        {"__future__", "omsal.errors"}
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    bad = [f"{path.name}: {mod}" for path in sorted(SRC.glob("*.py"))
           for mod in _imported_modules(path)
           if mod.split(".")[0] in test_modules]
    assert not bad
