"""The rules every change keeps: standard-library imports only, no
floats, and no stale names in the package exports."""

import ast
import sys
from pathlib import Path

import omsal

SRC = Path(__file__).parent.parent / "src" / "omsal"


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
