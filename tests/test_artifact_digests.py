"""Every CLI artifact, exit status and error line keeps its bytes.

tools/artifact_digests.py's current_lines() runs its CASES in-process,
and their digest lines must equal the ones recorded in
artifact_digests.txt.  The digests depend on the numpy build and on the
CPU's vector paths, so the file records numpy's version, the machine
and numpy's SIMD level (its baseline targets, then the dispatch targets
this CPU enables, as np.show_runtime() reads them) where it was written,
and a mismatch fails rather than passing unchecked.  numpy reads
NPY_DISABLE_CPU_FEATURES at import, so one process can take a lower
level's path.  The values differ between levels, but the exit status
and error line of every run that fails do not, and a test checks that
on the X86_V3 (AVX2) and X86_V2 (baseline) paths.
To rewrite the file, after checking that every line that moves is meant
to, run

    PYTHONPATH=src:tools python tests/test_artifact_digests.py
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import artifact_digests as digests
import numpy as np
import pytest
from numpy._core import _multiarray_umath as umath

GOLDEN = Path(__file__).with_name("artifact_digests.txt")
ROOT = Path(__file__).resolve().parent.parent

# NPY_DISABLE_CPU_FEATURES for each level below X86_V4
LOWER_LEVELS = {
    "X86_V3": "AVX512_SPR AVX512_ICL X86_V4",
    "X86_V2": "AVX512_SPR AVX512_ICL X86_V4 X86_V3",
}
# Runs the cases named on its command line, "<label>/<subcommand>" each,
# and prints their exit and error lines.
FAILING_RUNS = """
import sys, tempfile
from pathlib import Path
import artifact_digests as d
for label, config, subs in d.CASES:
    for sub in subs:
        if f"{label}/{sub}" in sys.argv[1:]:
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                lines = d.digest_lines(label, sub, out, *d.run(sub, config, out))
                print(*(l for l in lines if l.startswith(("exit ", "stderr "))), sep="\\n")
"""


def host_header() -> list[str]:
    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    simd = " ".join(["# simd", *umath.__cpu_baseline__, *enabled])
    return [f"# numpy {np.__version__}", f"# machine {platform.machine()}", simd]


def test_artifacts_match_the_recorded_digests():
    recorded = GOLDEN.read_text().splitlines()
    header = [line for line in recorded if line.startswith("#")]
    if header != host_header():
        pytest.fail(
            f"{GOLDEN.name} was written under {header}, this host is {host_header()}."
            " Run `PYTHONPATH=<parent>/src python tools/artifact_digests.py` and"
            " `PYTHONPATH=src python tools/artifact_digests.py` here, <parent> being"
            " a checkout of this tree's parent; if their outputs agree, rewrite the"
            " file with `PYTHONPATH=src:tools python tests/test_artifact_digests.py`.",
            pytrace=False,
        )
    assert digests.current_lines() == recorded[len(header):]


@pytest.mark.parametrize("level", LOWER_LEVELS)
def test_failing_runs_keep_their_exit_and_error_on_lower_simd_levels(level):
    disabled = LOWER_LEVELS[level]
    if set(disabled.split()) & set(umath.__cpu_baseline__):
        pytest.skip(f"numpy's baseline here includes a feature of {disabled}")
    lines = GOLDEN.read_text().splitlines()
    recorded = [line for line in lines if line.startswith(("exit ", "stderr "))]
    exits = [line.split() for line in recorded if line.startswith("exit ")]
    failing = [run for _, code, run in exits if code != "0"]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tools")]),
        NPY_DISABLE_CPU_FEATURES=disabled,
    )
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_RUNS, *failing],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [line for line in recorded if line.rsplit("  ", 1)[1] in failing]
    assert proc.stdout.splitlines() == expected


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(host_header() + digests.current_lines()) + "\n")
