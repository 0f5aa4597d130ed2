"""tools/unrun_statements.py lists the package statements a pytest run never executes."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import unrun_statements

MODULE = textwrap.dedent('''\
    """One called and one uncalled function."""


    def called(x):
        """Only the live branch runs."""
        if x:
            return 1
        else:
            return 0


    def uncalled():
        try:
            y = 2
        except ValueError:
            raise
        return y
    ''')

TEST = textwrap.dedent('''\
    from synth.mod import called


    def test_called():
        assert called(1) == 1
    ''')


def test_statements_skip_docstrings_and_bare_else():
    firsts = [first for first, _ in unrun_statements.statements(MODULE)]
    assert firsts == [1, 4, 6, 7, 9, 12, 13, 14, 16, 17]


def test_reports_the_statements_no_test_runs(tmp_path):
    pkg = tmp_path / "src" / "synth"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""A synthetic package."""\n')
    (pkg / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(TEST)
    run = (
        "import sys, unrun_statements; from pathlib import Path; "
        "sys.exit(unrun_statements.main(sys.argv[1:], pkg=Path('src/synth')))"
    )
    # a subprocess, so the tracer stays out of this test session
    proc = subprocess.run(
        [sys.executable, "-c", run, "--", "test_mod.py", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(unrun_statements.__file__).parent)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    unrun = [line for line in proc.stdout.splitlines() if line.startswith("mod.py:")]
    assert unrun == [
        "mod.py:9: return 0",
        "mod.py:13: try:",
        "mod.py:14: y = 2",
        "mod.py:16: raise",
        "mod.py:17: return y",
    ]
    assert not [line for line in proc.stdout.splitlines() if line.startswith("__init__.py:")]
