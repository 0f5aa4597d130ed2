"""A bundle's stage workspace gives the bits of the allocating calls.

Trajectory bundles evaluate every stage into one field._Workspace and
keep the stage outputs in a rotating pool.  These tests compare a
workspace that earlier calls left dirty with the public, allocating
calls, bit for bit, in the cases where the kernels skip a step: masked
phases, one open slit, an empty mask and nodal points.  They also check
that a scalar x still gives numpy scalars, and that no stage output is
overwritten while a step still reads it.
"""

from dataclasses import fields

import numpy as np
import pytest

from path_excitation import trajectories
from path_excitation.field import (
    SlitMask,
    _pairwise,
    _workspace,
    intensity,
    open_evals,
    pairwise_field,
)
from path_excitation.packet import PhysParams, SlitSpec, _floats, _packet, eval_packet

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
    p, j = _pairwise(evals, x)
    v, nodal = trajectories._velocity(P, slits, mask, x, t, floor)
    ws = _workspace(x.size, len(evals))
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
    for sample in (pairwise_field(evals), pairwise_field(evals[:1])):
        types = [type(getattr(sample, f.name)) for f in fields(sample)]
        assert types == [np.float64, np.float64, np.float64, np.bool_]
    whole = pairwise_field([eval_packet(P, s, np.array([0.3, 1.0]), 1.0) for s in SYMMETRIC])
    point = pairwise_field(evals)
    assert all(same(getattr(whole, f.name)[0], getattr(point, f.name)) for f in fields(point))


@pytest.mark.parametrize("dt", [None, 0.05], ids=["dopri", "rk4"])
def test_stage_outputs_survive_the_step(monkeypatch, dt):
    # Every stage output is kept until its step is done: k1 through
    # stages 2-7 and any number of rejected attempts.  A run whose
    # stages return copies cannot alias them; the pooled run must match
    # it bit for bit.  Colliding packets force rejections.
    x0 = trajectories.quantile_initial(P, COLLIDING, SlitMask.all_open(2), 1e-3, 50)
    args = (P, COLLIDING, SlitMask.all_open(2), x0, 1e-3, 4.0, dt, 1e-12)
    pooled = trajectories._bundle(*args, record=True)
    velocity = trajectories._velocity
    monkeypatch.setattr(
        trajectories, "_velocity", lambda *a: tuple(out.copy() for out in velocity(*a))
    )
    copied = trajectories._bundle(*args, record=True)
    assert (pooled.n_rejected > 0) == (dt is None)
    assert pooled.n_rejected == copied.n_rejected and pooled.n_violations == copied.n_violations
    for name in ("times", "x_final", "abort_step", "paths"):
        assert same(getattr(pooled, name), getattr(copied, name)), name
