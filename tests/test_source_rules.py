"""Rules the package source keeps: no assert statements, only stdlib and numpy
imports, no file opened outside ``files.py``, one rejection rule, one owner for
each validity rule of a key and a ring element, one policy for an h0 that
does not invert, and no name that only tests reach.

An ``assert`` vanishes under ``python -O``, so nothing in the package validates
with one.  The runtime dependencies are the standard library plus numpy.  Every
file the package reads or writes goes through ``files``, so output formats and
write paths live in one module.  Every index draw goes through
``XofStream.indices``, so the rejection limit floor(2^32 / n) is computed once.
A key's two blocks (one ring, equal weight), the ring size (odd, at least 3),
a dense element's range and the decoder's (2, w/2) support array are each
written once, so no copy can drift from the others.  Only ``kem.public_key``
(which names h0 and r) and ``cli.main`` (exit 2) catch ``NotInvertibleError``.
The package keeps only what the lab runs: each of its functions, classes and
methods is named in a program, a package module or a ``perfbench`` driver.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bikelab").glob("*.py"))
# the files that run the package: its modules (not the re-exports) and perfbench's drivers
PROGRAMS = ([p for p in SOURCES if p.name != "__init__.py"]
            + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")])
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


def _raise_texts(tree):
    """The string parts of each raise statement's expression, one joined text per raise."""
    return [" ".join(sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)
                     and isinstance(sub.value, str))
            for node in ast.walk(tree) if isinstance(node, ast.Raise)]


def _sites(found):
    return [(path.name, item) for path in SOURCES
            for item in found(ast.parse(path.read_text(), filename=str(path)))]


@pytest.mark.parametrize("found", [
    # a key's two blocks have equal weight
    lambda tree: [t for t in _raise_texts(tree) if "equal weight" in t],
    # r is odd and at least 3
    lambda tree: [t for t in _raise_texts(tree) if "must be odd" in t],
    # a seed is an unsigned 64-bit integer, for keygen's --seed and a campaign's master seed
    lambda tree: [t for t in _raise_texts(tree) if "unsigned 64-bit" in t],
    # a dense element's bits lie in [0, 2^r): the one comparison against a ring's mask
    lambda tree: [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and ".mask" in ast.unparse(node)],
    # the decoder's (2, w/2) array of the key's supports
    lambda tree: [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "np.array" and ".support" in ast.unparse(node)],
], ids=["equal-weight", "odd-r", "u64-seed", "dense-range", "support-array"])
def test_one_owner_per_validity_rule(found):
    sites = _sites(found)
    assert len(sites) == 1, sites


def _functions_catching(tree, name):
    """Names of the innermost functions whose ``except`` clauses name the exception."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.ExceptHandler) and node.type and name in ast.unparse(node.type):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_one_policy_for_a_non_invertible_h0():
    # public_key names h0 and r in the message, main maps it to exit 2; nothing
    # else catches it, so no caller redraws or falls back on its own
    sites = _sites(lambda tree: _functions_catching(tree, "NotInvertibleError"))
    assert sorted(sites) == [("cli.py", "main"), ("kem.py", "public_key")]


def _defined_names(tree):
    """Top-level functions and classes, and the methods of those classes, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def _used_names(tree):
    # a string counts, because cli.main looks handlers up by name and the
    # tracer wraps attributes by name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_name_has_a_program_caller():
    used = {name for path in PROGRAMS
            for name in _used_names(ast.parse(path.read_text(), filename=str(path)))}
    uncalled = [f"{path.stem}.{qualified}" for path in SOURCES
                for qualified, name in _defined_names(ast.parse(path.read_text(),
                                                                filename=str(path)))
                if name not in used]
    assert uncalled == []
