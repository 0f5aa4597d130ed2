"""Print every statement of a package that a pytest run never executes.

    python tools/unrun_statements.py [-- PYTEST_ARGS]

Runs pytest in-process with PYTEST_ARGS (none by default, so the
configured test paths) under a sys.settrace line tracer, then prints
each statement of src/path_excitation that never ran, in path and line
order, as

    <module>:<line>: <first source line of the statement>

coverage.py is not a dependency and Python 3.11 has no sys.monitoring,
so a plain trace function records the executed lines.  It traces only
frames whose code lies in the package, but every call still pays for
that check: the tier-1 suite took 42 s traced against 26-33 s
untraced on a 2-core host.  A statement counts as executable when its own lines (its header,
decorators included, without the statements nested in it) compile to
code, so docstrings and bare `else:` lines never count, and as run
when any of those lines raised a line event.  Code that only runs in
a subprocess, such as a `__main__` block, is reported unrun.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "path_excitation"
_NESTED = ("body", "orelse", "finalbody", "handlers")


def _code_lines(source: str, filename: str) -> set[int]:
    """Every line that some code object compiled from source attributes code to."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def statements(source: str, filename: str = "<module>") -> list[tuple[int, set[int]]]:
    """(first line, own code lines) of each statement that compiles to code, by first line."""
    code = _code_lines(source, filename)
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(first, node.end_lineno + 1))
        for name in _NESTED:
            for child in getattr(node, name, []):
                own -= set(range(child.lineno, child.end_lineno + 1))
        if own & code:
            found.append((first, own & code))
    return sorted(found, key=lambda s: s[0])


def _traced_run(pkg: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with the line tracer on: (exit status, executed lines per package file)."""
    root = str(pkg.resolve()) + os.sep
    hits: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        known = inside.get(filename)
        if known is None:
            known = inside[filename] = os.path.realpath(filename).startswith(root)
            if known:
                hits.setdefault(filename, set())
        return local if known else None

    sys.path.insert(0, str(pkg.resolve().parent))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = int(pytest.main(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[str, set[int]] = {}
    for filename, lines in hits.items():
        by_path.setdefault(os.path.realpath(filename), set()).update(lines)
    return status, by_path


def main(argv: list[str], pkg: Path = PACKAGE) -> int:
    pytest_args = argv[1:] if argv[:1] == ["--"] else argv
    status, hits = _traced_run(pkg, pytest_args)
    for path in sorted(pkg.resolve().rglob("*.py")):
        source = path.read_text()
        ran = hits.get(str(path), set())
        lines = source.splitlines()
        for first, own in statements(source, str(path)):
            if not own & ran:
                print(f"{path.relative_to(pkg.resolve())}:{first}: {lines[first - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
