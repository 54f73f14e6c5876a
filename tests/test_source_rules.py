"""Rules the package source keeps: no assert statements, and only stdlib and numpy imports.

An ``assert`` vanishes under ``python -O``, so nothing in the package validates
with one.  The runtime dependencies are the standard library plus numpy.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bikelab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "ring.py", "kem.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_only_stdlib_or_numpy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert asserts == []
    assert roots - ALLOWED == set()
