"""A workspace that earlier calls left dirty gives the bits of a fresh one.

Every field kernel writes into a field._Workspace.  Trajectory bundles
evaluate every stage into one and keep stage i's output in stage
workspace i; the public field functions build one per call.  These tests
compare a dirty workspace with fresh ones and with eval_packet, bit for
bit, in the cases where the kernels mask values or skip a step: masked
phases, one open slit, an empty mask and nodal points.  They also check
that a scalar x still gives numpy scalars from every public function
that evaluates it in a 0-d workspace, and that no stage output is
overwritten while a step still reads it.
"""

from dataclasses import fields

import numpy as np
import pytest

from path_excitation import trajectories
from path_excitation.channels import assemble, build_channels
from path_excitation.field import (
    SlitMask,
    _pairwise,
    _workspace,
    intensity,
    open_evals,
    pairwise_field,
)
from path_excitation.packet import PhysParams, SlitSpec, _floats, _packet, eval_packet
from path_excitation.sorkin import interference_term, subset_intensity

from test_trajectories import COLLIDING

P = PhysParams()
SYMMETRIC = [SlitSpec(center=-3.0), SlitSpec(center=3.0)]
EIGHT = [SlitSpec(center=c, drift=0.1 * c, phase0=0.3 * c) for c in np.linspace(-14.0, 14.0, 8)]
OUTPUTS = ("amplitude", "cos", "sin", "conv_velocity", "diff_velocity")

# (slits, open slits, x, t, node floor)
CASES = {
    # exp(-xi^2 / (4 sigma^2)) underflows to 0 beyond |xi| ~ 55 sigma,
    # where theta is masked to 0 and every point is nodal
    "underflow": (SYMMETRIC, [0, 1], np.linspace(-90.0, 90.0, 61), 0.5, 1e-12),
    "one open slit": (SYMMETRIC, [1], np.linspace(-8.0, 8.0, 41), 1.0, 1e-12),
    "empty mask": (SYMMETRIC, [], np.linspace(-8.0, 8.0, 41), 1.0, 1e-12),
    # a floor of 0.1 of the peak bound makes the dark fringes nodal
    "nodal": (SYMMETRIC, [0, 1], np.linspace(-8.0, 8.0, 41), 2.0, 0.1),
    "eight slits": (EIGHT, range(8), np.linspace(-20.0, 20.0, 81), 1.5, 1e-12),
}


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dirty(ws) -> None:
    for a in [*(a for out in ws.packets for a in out), *ws.scratch, ws.p, ws.j, ws.v]:
        a.fill(np.nan)
    ws.nodal.fill(True)


@pytest.mark.parametrize("case", CASES)
def test_workspace_stage_matches_the_allocating_calls(case):
    slits, open_idx, x, t, floor = CASES[case]
    mask = SlitMask(open_idx)
    evals = open_evals(P, slits, mask, x, t)
    p, j = _pairwise(evals, _workspace(x.shape, 0))
    v, nodal = trajectories._velocity(P, slits, mask, x, t, floor, _workspace(x.shape, len(evals)))
    ws = _workspace(x.shape, len(evals))
    dirty(ws)
    # cold, after another time has left its values, and again
    for when in (t, 0.05, t):
        got = trajectories._velocity(P, slits, mask, x, when, floor, ws)
    assert got[0] is ws.v and got[1] is ws.nodal
    assert same(ws.v, v) and same(ws.nodal, nodal)
    assert same(ws.p, p) and same(ws.j, j)
    for out, ev in zip(ws.packets, evals):
        assert all(same(a, getattr(ev, f)) for a, f in zip(out, OUTPUTS))
    if case == "underflow":
        dark = evals[0].amplitude == 0.0
        assert dark.any() and (evals[0].cos[dark] == 1.0).all() and nodal[dark].all()
    if case == "nodal":
        assert nodal.any() and not nodal.all() and np.isnan(v[nodal]).all()
    if case == "empty mask":
        assert nodal.all() and np.isnan(v).all()


def test_scalar_x_gives_numpy_scalars():
    evals = [eval_packet(P, s, 0.3, 1.0) for s in SYMMETRIC]
    for ev in evals:
        assert all(type(getattr(ev, f)) is np.float64 for f in OUTPUTS)
    out = _floats((), 5)
    kernel = _packet(P, SYMMETRIC[0], np.asarray(0.3), 1.0, out, _floats((), 3))
    assert all(getattr(kernel, f) is a for f, a in zip(OUTPUTS, out))
    assert all(same(getattr(kernel, f), getattr(evals[0], f)) for f in OUTPUTS)
    assert type(intensity(evals)) is np.float64
    samples = [pairwise_field(evals), pairwise_field(evals[:1])]
    samples += [assemble(build_channels(evals)), assemble(build_channels(evals[:1]))]
    for sample in samples:
        types = [type(getattr(sample, f.name)) for f in fields(sample)]
        assert types == [np.float64, np.float64, np.float64, np.bool_]
    for subset in ([0, 1], [1], []):
        assert type(subset_intensity(P, SYMMETRIC, subset, 0.3, 1.0)) is np.float64
    assert same(subset_intensity(P, SYMMETRIC, [0, 1], 0.3, 1.0), intensity(evals))
    assert subset_intensity(P, SYMMETRIC, [], 0.3, 1.0) == 0.0
    assert type(interference_term(P, SYMMETRIC, [0, 1], 0.3, 1.0)) is np.float64
    whole = pairwise_field([eval_packet(P, s, np.array([0.3, 1.0]), 1.0) for s in SYMMETRIC])
    point = pairwise_field(evals)
    assert all(same(getattr(whole, f.name)[0], getattr(point, f.name)) for f in fields(point))


@pytest.mark.parametrize(
    ("dt", "node_floor"),
    [(None, 1e-12), (0.05, 1e-12), (None, 0.01), (0.05, 0.01)],
    ids=["dopri", "rk4", "dopri-aborts", "rk4-aborts"],
)
def test_stage_outputs_survive_the_step(monkeypatch, dt, node_floor):
    # Every stage output is kept until its step is done: k1 through
    # stages 2-7 and any number of rejected attempts, and k7 as the next
    # k1.  A run whose stages return copies cannot alias them; the pooled
    # run must match it bit for bit.  Colliding packets force rejections,
    # and a floor of 0.01 aborts lines after the first step.
    x0 = trajectories.quantile_initial(P, COLLIDING, SlitMask.all_open(2), 1e-3, 50)
    args = (P, COLLIDING, SlitMask.all_open(2), x0, 1e-3, 4.0, dt, node_floor)
    pooled = trajectories._bundle(*args, record=True)
    velocity = trajectories._velocity
    monkeypatch.setattr(
        trajectories, "_velocity", lambda *a: tuple(out.copy() for out in velocity(*a))
    )
    copied = trajectories._bundle(*args, record=True)
    assert (pooled.n_rejected > 0) == (dt is None)
    assert (pooled.abort_step > 0).any() == (node_floor == 0.01)
    assert pooled.n_rejected == copied.n_rejected and pooled.n_violations == copied.n_violations
    for name in ("times", "x_final", "abort_step", "paths"):
        assert same(getattr(pooled, name), getattr(copied, name)), name
