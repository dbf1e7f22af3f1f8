"""Count the lines of each module of ``src/svgforge/``, and their total.

    python tools/loc.py

prints one line per module, then the total, each with two counts:
physical lines, and code lines. Code lines leave out blank lines,
comment-only lines and the lines of module, class and function docstrings.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "svgforge"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """Physical lines and code lines of the Python ``source``."""
    skipped = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - skipped)


def main() -> int:
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:<16}{lines:>7,}{code:>7,}")
    print(f"{'total':<16}{total_lines:>7,}{total_code:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
