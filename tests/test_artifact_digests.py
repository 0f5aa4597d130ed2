"""Every CLI artifact, exit status and error line keeps its bytes.

tools/artifact_digests.py's own CASES run in-process through `main`, and
their digest lines must equal the ones recorded in artifact_digests.txt.
The digests depend on the numpy build and on the CPU's vector paths, so
the file records numpy's version and the machine it was written on, and
a mismatch fails rather than passing unchecked.  To rewrite the file,
after checking that every line that moves is meant to, run

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import contextlib
import importlib.util
import io
import json
import platform
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from path_excitation.cli import main

GOLDEN = Path(__file__).with_name("artifact_digests.txt")
_TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
_spec = importlib.util.spec_from_file_location("artifact_digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def host_header() -> list[str]:
    return [f"# numpy {np.__version__}", f"# machine {platform.machine()}"]


def current_lines() -> list[str]:
    """The tool's output lines for its CASES, each run in-process in a fresh directory."""
    lines = []
    for label, config, subs in digests.CASES:
        for sub in subs:
            with tempfile.TemporaryDirectory() as tmp:
                cfg_path = Path(tmp) / "config.json"
                cfg_path.write_text(json.dumps(config))
                out = Path(tmp) / "out"
                err = io.StringIO()
                with contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main([sub, "--config", str(cfg_path), "--out-dir", str(out)])
                lines += digests.digest_lines(label, sub, out, code, err.getvalue())
    return lines


def test_artifacts_match_the_recorded_digests():
    recorded = GOLDEN.read_text().splitlines()
    header = [line for line in recorded if line.startswith("#")]
    if header != host_header():
        pytest.fail(
            f"{GOLDEN.name} was written under {header}, this host is {host_header()}."
            " Run tools/artifact_digests.py here on this tree's parent and on this tree;"
            " if their outputs agree, rewrite the file with"
            " `PYTHONPATH=src python tests/test_artifact_digests.py`.",
            pytrace=False,
        )
    assert current_lines() == recorded[len(header):]


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(host_header() + current_lines()) + "\n")
