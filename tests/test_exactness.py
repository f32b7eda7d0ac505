"""The package promises exact arithmetic: no float or complex value in its source."""

import ast
from pathlib import Path

import cubiclat

SOURCES = sorted(Path(cubiclat.__file__).parent.glob("*.py"))


def inexact_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "cmath" for a in node.names):
            yield node, "imports cmath"
        if isinstance(node, ast.ImportFrom) and node.module == "cmath":
            yield node, "imports from cmath"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node, f"literal {node.value!r}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node, "calls float()"


def test_source_has_no_floating_point():
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}: {what}"
        for path in SOURCES
        for node, what in inexact_nodes(ast.parse(path.read_text()))
    ]
    assert found == []
