"""Every CLI artifact, exit status and error line keeps its bytes.

tools/artifact_digests.py's current_lines() runs its CASES in-process,
and their digest lines must equal the ones recorded in
artifact_digests.txt.  The digests depend on the numpy build and on the
CPU's vector paths, so the file records numpy's version, the machine
and numpy's SIMD level (its baseline targets, then the dispatch targets
this CPU enables, as np.show_runtime() reads them) where it was written,
and a mismatch fails rather than passing unchecked.  numpy reads
NPY_DISABLE_CPU_FEATURES at import, so one process can take a lower
level's path.
To rewrite the file, after checking that every line that moves is meant
to, run

    PYTHONPATH=src:tools python tests/test_artifact_digests.py
"""

import platform
from pathlib import Path

import artifact_digests as digests
import numpy as np
import pytest
from numpy._core import _multiarray_umath as umath

GOLDEN = Path(__file__).with_name("artifact_digests.txt")


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


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(host_header() + digests.current_lines()) + "\n")
