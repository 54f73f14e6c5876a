"""Rules the package source keeps: no assert statements, only stdlib and numpy
imports, no file opened outside ``files.py``, and one rejection rule.

An ``assert`` vanishes under ``python -O``, so nothing in the package validates
with one.  The runtime dependencies are the standard library plus numpy.  Every
file the package reads or writes goes through ``files``, so output formats and
write paths live in one module.  Every index draw goes through
``XofStream.indices``, so the rejection limit floor(2^32 / n) is computed once.
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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "files.py"],
                         ids=lambda p: p.name)
def test_only_files_opens_files(path):
    # open(...), and io.open / os.open / Path.open alike
    tree = ast.parse(path.read_text(), filename=str(path))
    opens = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "open"
                  or getattr(node.func, "attr", None) == "open")]
    assert opens == []


def test_one_rejection_rule():
    # (1 << 32) // n, or 2**32 // n, anywhere in the package
    sites = [(path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
             and ast.unparse(node.left) in ("1 << 32", "2 ** 32", str(1 << 32))]
    assert len(sites) == 1, sites
