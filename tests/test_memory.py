"""Memory of the grid path grows by a few bytes per grid point.

field, verify and sorkin stream the grid in blocks.  What they still hold
per point is the grid itself (8 B) and, for sorkin, one values array per
order (8 B each); a whole-grid evaluation held about 190 B per point
with 3 slits.  Peaks are measured with tracemalloc, which counts numpy's
array buffers, in a fresh interpreter, so nothing else the test run
allocated is counted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import path_excitation

SIZES = (20001, 200001)

SCRIPT = """
import json, sys, tracemalloc
from path_excitation.field import GridSpec, SlitMask, _grid_blocks
from path_excitation.oracle import equivalence_report
from path_excitation.packet import PhysParams, SlitSpec
from path_excitation.sorkin import sumrule_report

P = PhysParams()
slits = [SlitSpec(center=c) for c in (-4.0, 0.0, 4.0)]
mask = SlitMask.all_open(3)
runs = {
    "field": lambda g: [None for _ in _grid_blocks(P, slits, mask, g, 1e-12)],
    "verify": lambda g: equivalence_report(P, slits, mask, g),
    "sorkin": lambda g: sumrule_report(P, slits, g),
}
tracemalloc.start()
peaks = {name: [] for name in runs}
for n in json.loads(sys.argv[1]):
    grid = GridSpec(-20.0, 20.0, n, 2.0)
    for name, run in runs.items():
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(grid)
        peaks[name].append(tracemalloc.get_traced_memory()[1] - base)
print(json.dumps(peaks))
"""


def test_grid_path_peak_memory_per_point():
    src = str(Path(path_excitation.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(SIZES)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    peaks = json.loads(proc.stdout)
    extra = SIZES[1] - SIZES[0]
    per_point = {name: (big - small) / extra for name, (small, big) in peaks.items()}
    # the grid, 8 B per point, plus slack; sorkin adds orders 2 and 3
    assert per_point["field"] <= 16.0, per_point
    assert per_point["verify"] <= 16.0, per_point
    assert per_point["sorkin"] <= 16.0 + 2 * 8.0, per_point
