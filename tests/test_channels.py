"""Channel decomposition and projection-rule tests.

Two layers: hand-built channel sets with prescribed amplitudes and
phases pin the algebra (projections, currents, assembly), and
hypothesis-driven random slit configurations check the structural
identities against the closed-form pairwise field and the squared
modulus of the summed complex profiles.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from path_excitation.channels import (
    ChannelKind,
    assemble,
    build_channels,
    channel_current,
    project,
)
from path_excitation.errors import MismatchedPoint
from path_excitation.field import pairwise_field
from path_excitation.packet import PacketEval, PhysParams, SlitSpec, eval_packet, psi

P = PhysParams()


def make_eval(r, theta, v=0.0, u=0.0, x=0.0, t=0.5):
    """Synthetic packet evaluation with prescribed envelope and phase."""
    theta = np.asarray(theta, dtype=float)
    return PacketEval(
        amplitude=np.asarray(r, dtype=float),
        cos=np.cos(theta),
        sin=np.sin(theta),
        conv_velocity=np.asarray(v, dtype=float),
        diff_velocity=np.asarray(u, dtype=float),
        x=np.asarray(x, dtype=float),
        t=t,
    )


# ---------------------------------------------------------------- structure


def test_channel_order_and_kinds():
    evals = [make_eval(1.0, 0.0), make_eval(0.5, 1.0)]
    cset = build_channels(evals)
    assert len(cset.channels) == 6
    assert cset.n_slits == 2
    kinds = [ch.kind for ch in cset.channels]
    assert kinds == [
        ChannelKind.CONVECTIVE,
        ChannelKind.DIFFUSIVE_RIGHT,
        ChannelKind.DIFFUSIVE_LEFT,
    ] * 2
    assert [ch.slit_index for ch in cset.channels] == [0, 0, 0, 1, 1, 1]


def test_diffusive_split_positive_branch():
    cset = build_channels([make_eval(1.0, 0.0, v=0.2, u=0.5)])
    conv, right, left = cset.channels
    assert float(right.physical_velocity) == 0.5
    assert float(left.physical_velocity) == 0.0
    assert float(right.physical_velocity) - float(left.physical_velocity) == 0.5
    assert float(conv.physical_velocity) == 0.2


def test_diffusive_split_negative_branch():
    cset = build_channels([make_eval(1.0, 0.0, u=-0.5)])
    _, right, left = cset.channels
    assert float(right.physical_velocity) == 0.0
    assert float(left.physical_velocity) == 0.5


def test_orientations_are_unit_and_opposed():
    theta = np.linspace(-7.0, 7.0, 23)
    cset = build_channels([make_eval(np.ones_like(theta), theta)])
    conv, right, left = cset.channels
    for ch in (conv, right, left):
        norm = np.hypot(ch.orientation[..., 0], ch.orientation[..., 1])
        assert np.max(np.abs(norm - 1.0)) < 1e-12
    assert np.array_equal(left.orientation, -right.orientation)
    dot = np.sum(conv.orientation * right.orientation, axis=-1)
    assert np.max(np.abs(dot)) < 1e-12


def test_mismatched_points_rejected():
    a = make_eval(1.0, 0.0, x=0.0)
    b = make_eval(1.0, 0.0, x=1.0)
    with pytest.raises(MismatchedPoint):
        build_channels([a, b])
    c = make_eval(1.0, 0.0, t=0.7)
    with pytest.raises(MismatchedPoint):
        build_channels([a, c])


# --------------------------------------------------------------- projection


def test_projection_hand_value_quarter_phase():
    # two unit envelopes, quarter-turn relative phase
    cset = build_channels([make_eval(1.0, 0.0), make_eval(1.0, -np.pi / 2)])
    assert float(project(cset, 0)) == pytest.approx(1.0, abs=1e-15)


def test_projection_diffusive_pair_cancels_exactly():
    cset = build_channels(
        [make_eval(0.8, 0.3, u=0.4), make_eval(1.1, -1.2, u=-0.9)]
    )
    for slit in range(2):
        right = project(cset, 3 * slit + 1)
        left = project(cset, 3 * slit + 2)
        assert np.array_equal(right, -left)


def test_projection_single_slit_is_squared_envelope():
    cset = build_channels([make_eval(0.7, 1.9, u=0.3)])
    assert float(project(cset, 0)) == pytest.approx(0.49, rel=1e-14)


def test_channel_current_convective_closed_form():
    r1, r2, phi, v1 = 0.9, 1.3, 0.8, 1.7
    cset = build_channels([make_eval(r1, phi, v=v1), make_eval(r2, 0.0)])
    expected = v1 * (r1**2 + r1 * r2 * np.cos(phi))
    assert float(channel_current(cset, 0)) == pytest.approx(expected, rel=1e-13)


def test_channel_current_diffusive_right_closed_form():
    # theta2 > theta1 so the separation angle equals theta2 - theta1
    r1, r2, sep, u1 = 0.8, 1.2, np.pi / 3, 0.45
    cset = build_channels(
        [make_eval(r1, 0.0, u=u1), make_eval(r2, sep)]
    )
    expected = u1 * r1 * r2 * np.sin(sep)
    assert float(channel_current(cset, 1)) == pytest.approx(expected, rel=1e-13)


def test_channel_current_zero_velocity_is_zero():
    cset = build_channels([make_eval(1.0, 0.4, v=0.0, u=0.7), make_eval(1.0, 1.1)])
    assert float(channel_current(cset, 0)) == 0.0
    # left channel of slit 0 carries velocity 0 for positive u
    assert float(channel_current(cset, 2)) == 0.0


# ----------------------------------------------------------------- assembly


def test_assemble_in_phase_mean_velocity():
    r = 0.6
    cset = build_channels([make_eval(r, 0.0, v=1.0), make_eval(r, 0.0, v=2.0)])
    fs = assemble(cset)
    assert float(fs.p_tot) == pytest.approx(4 * r**2, rel=1e-14)
    assert float(fs.j_tot) == pytest.approx(6 * r**2, rel=1e-14)
    assert float(fs.v_tot) == pytest.approx(1.5, rel=1e-14)
    assert not bool(fs.nodal)


def test_assemble_flags_destructive_node():
    cset = build_channels([make_eval(1.0, 0.0), make_eval(1.0, np.pi)])
    fs = assemble(cset, peak=4.0)
    assert float(fs.p_tot) == pytest.approx(0.0, abs=1e-15)
    assert bool(fs.nodal)
    assert np.isnan(float(fs.v_tot))


def test_assemble_single_slit_velocity_is_exact():
    ev = eval_packet(P, SlitSpec(center=0.3, drift=0.5), np.linspace(-3, 3, 50), 1.2)
    fs = assemble(build_channels([ev]))
    assert np.array_equal(fs.v_tot, ev.conv_velocity)


def test_two_slit_current_closed_form_signs():
    """Pin every sign of the two-slit assembled current.

    The diffusive cross term must carry (u2 - u1) against the signed
    relative phase theta1 - theta2; the opposite pairing looks equally
    plausible at a glance but breaks probability continuity and the
    complex-amplitude current, so this test is the guard against
    regressing the handedness of the diffusive orientations.
    """
    rng = np.random.default_rng(7)
    for _ in range(40):
        r1, r2 = rng.uniform(0.2, 1.5, 2)
        th1, th2 = rng.uniform(-4.0, 4.0, 2)
        v1, v2 = rng.uniform(-2.0, 2.0, 2)
        u1, u2 = rng.uniform(-2.0, 2.0, 2)
        cset = build_channels(
            [make_eval(r1, th1, v=v1, u=u1), make_eval(r2, th2, v=v2, u=u2)]
        )
        fs = assemble(cset)
        phi = th1 - th2
        p_expected = r1**2 + r2**2 + 2 * r1 * r2 * np.cos(phi)
        j_expected = (
            r1**2 * v1
            + r2**2 * v2
            + r1 * r2 * ((v1 + v2) * np.cos(phi) + (u2 - u1) * np.sin(phi))
        )
        assert float(fs.p_tot) == pytest.approx(p_expected, abs=1e-13)
        assert float(fs.j_tot) == pytest.approx(j_expected, abs=1e-13)


# ----------------------------------------------------- random configurations

_param = {"allow_nan": False, "allow_infinity": False}


@st.composite
def slit_configs(draw):
    """Up to four slits with bounded parameters plus an evaluation time."""
    n = draw(st.integers(min_value=1, max_value=4))
    slits = []
    for _ in range(n):
        slits.append(
            SlitSpec(
                center=draw(st.floats(min_value=-5.0, max_value=5.0, **_param)),
                sigma0=draw(st.floats(min_value=0.3, max_value=2.0, **_param)),
                drift=draw(st.floats(min_value=-1.0, max_value=1.0, **_param)),
                weight=draw(st.floats(min_value=0.1, max_value=2.0, **_param)),
                phase0=draw(st.floats(min_value=-3.2, max_value=3.2, **_param)),
            )
        )
    t = draw(st.floats(min_value=0.0, max_value=3.0, **_param))
    return slits, t


XS = np.linspace(-8.0, 8.0, 9)


@settings(max_examples=60, deadline=None)
@given(slit_configs())
def test_assembly_matches_pairwise_field(config):
    slits, t = config
    evals = [eval_packet(P, s, XS, t) for s in slits]
    twin = assemble(build_channels(evals))
    closed = pairwise_field(evals)
    scale_p = max(float(np.max(closed.p_tot)), 1e-300)
    vmax = max(float(np.max(np.abs(e.conv_velocity))) + float(np.max(np.abs(e.diff_velocity))) for e in evals)
    assert np.max(np.abs(twin.p_tot - closed.p_tot)) <= 1e-12 * scale_p
    assert np.max(np.abs(twin.j_tot - closed.j_tot)) <= 1e-12 * scale_p * (1.0 + vmax)


@settings(max_examples=60, deadline=None)
@given(slit_configs())
def test_projection_weights_complete_to_born_density(config):
    slits, t = config
    evals = [eval_packet(P, s, XS, t) for s in slits]
    cset = build_channels(evals)
    summed = sum(project(cset, i) for i in range(len(cset.channels)))
    total = sum(psi(P, s, XS, t) for s in slits)
    born = np.abs(total) ** 2
    assert np.max(np.abs(summed - born)) <= 1e-12 * max(float(np.max(born)), 1e-300)


@settings(max_examples=40, deadline=None)
@given(slit_configs(), st.floats(min_value=-1.0, max_value=1.0, **_param))
def test_assembly_invariant_under_diffusive_resplit(config, delta):
    """Only the difference u_R - u_L is physical; shifting both by the
    same amount must leave the assembled field unchanged."""
    slits, t = config
    evals = [eval_packet(P, s, XS, t) for s in slits]
    cset = build_channels(evals)
    shifted = []
    for ch in cset.channels:
        if ch.kind is ChannelKind.CONVECTIVE:
            shifted.append(ch)
        else:
            shifted.append(
                dataclasses.replace(ch, physical_velocity=ch.physical_velocity + delta)
            )
    moved = dataclasses.replace(cset, channels=tuple(shifted))
    base = assemble(cset)
    re_split = assemble(moved)
    scale_p = max(float(np.max(base.p_tot)), 1e-300)
    assert np.array_equal(base.p_tot, re_split.p_tot)
    assert np.max(np.abs(base.j_tot - re_split.j_tot)) <= 1e-12 * scale_p * (1.0 + abs(delta))
