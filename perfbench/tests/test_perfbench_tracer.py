"""Tests of the benchmark's span tracer.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from tracer import Tracer, layer_metrics, self_times  # noqa: E402

FIELD_SRC = """
from types import SimpleNamespace

def open_evals(n):
    return [SimpleNamespace(x=[0.0] * n, weight=1.0) for _ in range(n)]

def pairwise_field(evals):
    return sum(ev.weight for ev in evals)
"""

TRAJECTORIES_SRC = """
from concurrent.futures import ThreadPoolExecutor
from fakepkg.field import open_evals, pairwise_field

def ensemble(n_chunks):
    def run(k):
        return pairwise_field(open_evals(k + 1))
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(run, range(n_chunks)))
"""


@pytest.fixture
def fakepkg():
    """A package laid out like path_excitation: trajectories resolves field's functions."""
    names = ("fakepkg", "fakepkg.field", "fakepkg.trajectories")
    mods = {name: types.ModuleType(name) for name in names}
    for name, mod in mods.items():
        sys.modules[name] = mod
    exec(FIELD_SRC, mods["fakepkg.field"].__dict__)
    exec(TRAJECTORIES_SRC, mods["fakepkg.trajectories"].__dict__)
    try:
        yield mods
    finally:
        for name in names:
            del sys.modules[name]


def _attributes(mods):
    return {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "packet.psi", "test")

    def mid():
        leaf()
        time.sleep(0.001)
        leaf()

    mid = tracer.wrap(mid, "field.open_evals", "test")

    def root():
        mid()
        leaf()
        time.sleep(0.001)

    tracer.wrap(root, "oracle.qm_current", "test")()
    spans = {s[0]: s for s in tracer.spans}
    (root_span,) = [s for s in spans.values() if s[5] == 0]
    assert [spans[s[5]][1] for s in spans.values() if s[1] == "packet.psi"].count(
        "field.open_evals"
    ) == 2
    selfs = self_times(tracer.spans)
    child_time = sum(s[4] - s[3] for s in spans.values() if s[5] == root_span[0])
    duration = root_span[4] - root_span[3]
    resolution = max(time.get_clock_info("perf_counter").resolution, 1e-9)
    assert abs(sum(selfs.values()) - duration) <= 10 * resolution + 1e-12
    assert abs(selfs[root_span[0]] + child_time - duration) <= 10 * resolution + 1e-12
    assert selfs[root_span[0]] >= 0.001 - 1e-4


def test_pool_tasks_nest_under_the_submitting_span(fakepkg):
    before = _attributes(fakepkg)
    tracer = Tracer(keep=("trajectories.ensemble",))
    with tracer.installed("fakepkg"):
        traj = fakepkg["fakepkg.trajectories"]
        assert traj.ensemble(3) == [1.0, 2.0, 3.0]
    assert _attributes(fakepkg) == before
    (ens,) = [s for s in tracer.spans if s[1] == "trajectories.ensemble"]
    stages = [s for s in tracer.spans if s[1] == "field.pairwise_field"]
    assert len(stages) == 3
    assert all(s[2] == "trajectories" and s[5] == ens[0] for s in stages)
    assert all(ens[3] <= s[3] and s[4] <= ens[4] for s in stages)
    assert sorted(s[7] for s in stages) == [1, 2, 3]  # points per stage evaluation
    assert tracer.submitted == ["trajectories"] * 3
    assert tracer.returns["trajectories.ensemble"] == [[1.0, 2.0, 3.0]]


def test_wrappers_are_removed_when_the_traced_code_raises(fakepkg):
    before = _attributes(fakepkg)
    with pytest.raises(TypeError):
        with Tracer().installed("fakepkg"):
            fakepkg["fakepkg.trajectories"].ensemble(None)
    assert _attributes(fakepkg) == before


def test_traced_package_run_leaves_the_package_unpatched(tmp_path):
    from path_excitation import cli

    mods = {n: m for n, m in sys.modules.items() if n.startswith("path_excitation")}
    before = _attributes(mods)
    config = {
        "slits": [{"center": -3.0}, {"center": 3.0}],
        "grid": {"xmin": -15.0, "xmax": 15.0, "n": 51, "t": 2.0},
    }
    tracer = Tracer()
    with tracer.installed():
        cfg = cli.parse_config(json.dumps(config))
        assert cli.run_subcommand("verify", cfg, str(tmp_path)) == 0
    assert _attributes(mods) == before
    metrics = layer_metrics(tracer, 0)
    assert metrics["cli.parse_config.calls"] == 1
    assert metrics["cli.run_subcommand.calls"] == 1
    assert metrics["oracle.equivalence_report.calls"] == 1
    assert metrics["packet.eval_packet.points"] == 2 * 51
    assert metrics["packet.psi.calls"] == 4  # two direct, two inside psi_dx
    assert metrics["cli.verify.s"] >= metrics["oracle.equivalence_report.s"] > 0.0
    assert metrics["cli.format.s"] > 0.0
