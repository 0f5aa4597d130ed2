"""Print the non-blank and code line counts of every module of a package.

    python tools/package_lines.py [PKG_DIR]

PKG_DIR defaults to src/path_excitation.  A code line is a non-blank
line that lies outside every module, class and function docstring and
holds more than a comment.  The output has one row per module, in path
order, and then the totals:

    <non-blank>  <code>  <module>
    <non-blank>  <code>  total
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(non-blank lines, code lines) of one module's source text."""
    non_blank = {i for i, line in enumerate(source.splitlines(), start=1) if line.strip()}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(non_blank), len(code & non_blank - _docstring_lines(source))


def main(argv: list[str]) -> int:
    pkg = Path(argv[0] if argv else "src/path_excitation")
    totals = [0, 0]
    for path in sorted(pkg.rglob("*.py")):
        counts = count(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:6d}  {counts[1]:6d}  {path.relative_to(pkg)}")
    print(f"{totals[0]:6d}  {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
