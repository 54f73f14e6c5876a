"""Code lines of each ``src/bikelab`` module and their total.

A code line is a line that holds a code token: blank lines, comment lines and
docstrings (the string that opens a module, class or function body) do not
count, and a statement that spans several lines counts each of them.  This is
the count that ROADMAP.md and CHANGES.md quote.

    python tests/source_lines.py [SRC_DIR]

SRC_DIR defaults to this checkout's ``src/bikelab``.  pytest does not collect
this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(src: Path) -> int:
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main(Path(sys.argv[1]) if sys.argv[1:] else Path(__file__).parents[1] / "src" / "bikelab")
