"""Tests for the single-slit Gaussian packet kernel.

The velocity moments are cross-checked against central finite
differences of the complex profile, so the analytic expressions and the
complex form can only pass together.
"""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from path_excitation.errors import NegativeTime
from path_excitation.packet import (
    PhysParams,
    SlitSpec,
    eval_packet,
    psi,
    sigma_t,
)

P = PhysParams()
UNIT = SlitSpec(center=0.0)


def test_sigma_identity_at_release():
    assert sigma_t(P, UNIT, 0.0) == 1.0


def test_sigma_spread_closed_form():
    assert sigma_t(P, UNIT, 2.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_sigma_rejects_negative_time():
    with pytest.raises(NegativeTime):
        sigma_t(P, UNIT, -1.0)
    with pytest.raises(NegativeTime):
        sigma_t(P, UNIT, np.nan)
    with pytest.raises(ValueError, match="t = inf is not finite"):
        sigma_t(P, UNIT, np.inf)


def test_sigma_strictly_increasing():
    ts = np.linspace(0.0, 5.0, 40)
    vals = [sigma_t(P, UNIT, t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_diffusive_velocity_hand_value():
    # u = (hbar/m) * x / (2 sigma0^2) at t = 0
    ev = eval_packet(P, UNIT, 1.0, 0.0)
    assert float(ev.diff_velocity) == pytest.approx(0.5, abs=1e-15)
    assert float(ev.conv_velocity) == 0.0


@pytest.mark.parametrize(
    "slit, t",
    [
        (SlitSpec(center=2.0, sigma0=0.7, drift=0.4, phase0=0.3), 1.2),
        (SlitSpec(center=-1.0, sigma0=1.5, drift=-0.8), 0.0),
        (SlitSpec(center=0.0), 3.0),
    ],
)
def test_diffusive_velocity_vanishes_at_center(slit, t):
    x_center = slit.center + slit.drift * t
    ev = eval_packet(P, slit, x_center, t)
    assert abs(float(ev.diff_velocity)) < 1e-14


def _fd_velocities(params, slit, x, t, h=1e-5):
    """v and u from central finite differences of the complex profile."""
    dpsi = (psi(params, slit, x + h, t) - psi(params, slit, x - h, t)) / (2.0 * h)
    ratio = dpsi / psi(params, slit, x, t)
    v = (params.hbar / params.mass) * ratio.imag
    u = -(params.hbar / params.mass) * ratio.real
    return v, u


def test_velocities_match_finite_differences_at_probe_point():
    ev = eval_packet(P, UNIT, 0.7, 1.3)
    v_fd, u_fd = _fd_velocities(P, UNIT, 0.7, 1.3)
    assert_allclose(float(ev.conv_velocity), v_fd, rtol=1e-6)
    assert_allclose(float(ev.diff_velocity), u_fd, rtol=1e-6)
    r_fd = abs(psi(P, UNIT, 0.7, 1.3))
    assert_allclose(float(ev.amplitude), r_fd, rtol=1e-12)


@pytest.mark.parametrize(
    "slit, t",
    [
        (SlitSpec(center=0.0), 1.3),
        (SlitSpec(center=1.5, sigma0=0.6, drift=0.7, weight=0.8, phase0=1.1), 0.9),
        (SlitSpec(center=-3.0, sigma0=2.0, drift=-0.25), 2.5),
    ],
)
def test_velocities_match_finite_differences_across_envelope(slit, t):
    sig = sigma_t(P, slit, t)
    center = slit.center + slit.drift * t
    xs = center + np.linspace(-6.0, 6.0, 41) * sig
    ev = eval_packet(P, slit, xs, t)
    v_fd, u_fd = _fd_velocities(P, slit, xs, t)
    # rtol on values of mixed magnitude: compare against the scale of
    # the velocity field rather than pointwise (u crosses zero).
    scale = np.max(np.abs(v_fd)) + np.max(np.abs(u_fd))
    assert np.max(np.abs(ev.conv_velocity - v_fd)) < 1e-6 * scale
    assert np.max(np.abs(ev.diff_velocity - u_fd)) < 1e-6 * scale


def test_complex_profile_matches_envelope_and_carrier():
    slit = SlitSpec(center=0.5, sigma0=1.2, drift=0.3, weight=0.9, phase0=0.7)
    xs = np.linspace(-5.0, 6.0, 301)
    ev = eval_packet(P, slit, xs, 1.7)
    w = psi(P, slit, xs, 1.7)
    assert np.max(np.abs(np.abs(w) - ev.amplitude)) < 1e-12
    unit = w / np.abs(w)
    assert np.max(np.abs(unit.real - ev.cos)) < 1e-12
    assert np.max(np.abs(unit.imag - ev.sin)) < 1e-12


def test_profile_peak_is_real_positive_at_release():
    slit = SlitSpec(center=1.0, sigma0=0.8, weight=0.6)
    val = complex(psi(P, slit, 1.0, 0.0))
    expected = 0.6 * (2.0 * np.pi * 0.8**2) ** -0.25
    assert val.imag == 0.0
    assert val.real == pytest.approx(expected, rel=1e-14)


def test_normalization_quadrature():
    slit = SlitSpec(center=-0.4, sigma0=1.3, drift=0.2, weight=0.75)
    for t in (0.0, 2.0):
        sig = sigma_t(P, slit, t)
        center = slit.center + slit.drift * t
        xs = np.linspace(center - 10 * sig, center + 10 * sig, 4001)
        w = psi(P, slit, xs, t)
        norm = trapezoid(np.abs(w) ** 2, xs)
        assert norm == pytest.approx(slit.weight**2, abs=1e-9)


def test_dispersion_variance_matches_sigma():
    slit = SlitSpec(center=0.9, sigma0=0.9, drift=-0.3)
    for t in (0.0, 1.0, 2.0):
        sig = sigma_t(P, slit, t)
        center = slit.center + slit.drift * t
        xs = np.linspace(center - 12 * sig, center + 12 * sig, 8001)
        dens = eval_packet(P, slit, xs, t).amplitude ** 2
        total = trapezoid(dens, xs)
        mean = trapezoid(xs * dens, xs) / total
        var = trapezoid((xs - mean) ** 2 * dens, xs) / total
        assert_allclose(var, sig**2, rtol=1e-6)


def test_density_weighted_diffusive_velocity_averages_to_zero():
    slit = SlitSpec(center=2.0, sigma0=1.1, drift=0.5)
    t = 1.4
    sig = sigma_t(P, slit, t)
    center = slit.center + slit.drift * t
    xs = np.linspace(center - 10 * sig, center + 10 * sig, 6001)
    ev = eval_packet(P, slit, xs, t)
    dens = ev.amplitude**2
    signed = trapezoid(dens * ev.diff_velocity, xs)
    folded = trapezoid(dens * np.abs(ev.diff_velocity), xs)
    assert abs(signed) <= 1e-9 * folded


def test_ballistic_velocity_trivial_values():
    slit = SlitSpec(center=0.0, drift=0.6)
    assert float(eval_packet(P, slit, 3.7, 0.0).conv_velocity) == pytest.approx(0.6)
    # the drifting center is advected at the drift velocity for all t
    for t in (0.5, 2.0, 7.0):
        assert float(eval_packet(P, slit, 0.6 * t, t).conv_velocity) == pytest.approx(0.6)
    with pytest.raises(NegativeTime):
        eval_packet(P, slit, 0.0, -0.1)


def test_ballistic_velocity_equals_convective_field():
    """conv_velocity is drift + xi * (D^2 t / sigma0^2) / sigma(t)^2."""
    slit = SlitSpec(center=-1.2, sigma0=0.8, drift=0.35)
    xs = np.linspace(-6.0, 5.0, 101)
    t = 1.9
    d = P.diffusion
    s0sq = slit.sigma0**2
    ssq = s0sq + (d * t) ** 2 / s0sq
    closed = slit.drift + (xs - slit.center - slit.drift * t) * d * d * t / (s0sq * ssq)
    ev = eval_packet(P, slit, xs, t)
    assert_allclose(closed, ev.conv_velocity, rtol=0, atol=1e-15)


def test_ballistic_streamline_closed_form():
    """Seeding x0 and following sigma growth solves xdot = conv_velocity."""
    slit = SlitSpec(center=0.4, sigma0=1.0, drift=0.2)
    x0 = 1.7
    h = 1e-6
    for t in (0.3, 1.1, 2.4):
        path = lambda s: slit.center + slit.drift * s + (x0 - slit.center) * sigma_t(P, slit, s) / slit.sigma0
        rate = (path(t + h) - path(t - h)) / (2.0 * h)
        assert float(eval_packet(P, slit, path(t), t).conv_velocity) == pytest.approx(rate, abs=1e-8)


def test_parameter_validation():
    with pytest.raises(ValueError, match="sigma0 > 0"):
        SlitSpec(center=0.0, sigma0=-1.0)
    with pytest.raises(ValueError, match="weight >= 0"):
        SlitSpec(center=0.0, weight=-0.2)
    with pytest.raises(ValueError, match="hbar > 0"):
        PhysParams(hbar=0.0)
    with pytest.raises(ValueError, match="mass > 0"):
        PhysParams(mass=-2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["center", "sigma0", "drift", "weight", "phase0", "hbar", "mass"])
def test_non_finite_fields_rejected(name, bad):
    # A NaN that fails a sign rule keeps that rule's text.
    spec = PhysParams if name in ("hbar", "mass") else partial(SlitSpec, center=0.0)
    signed = {"sigma0": "sigma0 > 0", "weight": "weight >= 0", "hbar": "hbar > 0", "mass": "mass > 0"}
    expected = f"{name} must be finite"
    if name in signed and not bad > 0.0:
        expected = signed[name]
    with pytest.raises(ValueError, match=expected):
        spec(**{name: bad})


def test_diffusion_scale_tracks_constants():
    assert PhysParams(hbar=2.0, mass=4.0).diffusion == 0.25


def test_eval_rejects_negative_time():
    with pytest.raises(NegativeTime):
        eval_packet(P, UNIT, 0.0, -1e-9)
    with pytest.raises(NegativeTime):
        eval_packet(P, SlitSpec(-3.0), 0.0, np.nan)
    with pytest.raises(ValueError, match="t = inf is not finite"):
        eval_packet(P, SlitSpec(-3.0), [0.0], np.inf)


def test_psi_rejects_negative_or_nan_time():
    for t in (-1e-9, np.nan):
        with pytest.raises(NegativeTime):
            psi(P, UNIT, 0.0, t)
    with pytest.raises(ValueError, match="t = inf is not finite"):
        psi(P, UNIT, 0.0, np.inf)


def test_far_slit_carrier_is_finite():
    # the amplitude underflows to 0 and theta overflows; the carrier stays a unit vector
    with np.errstate(over="ignore"):
        ev = eval_packet(P, SlitSpec(1e200), [0.0, 1.0], 2.0)
    assert np.array_equal(ev.amplitude, np.zeros(2))
    assert np.array_equal(ev.cos, [1.0, 1.0])
    assert np.array_equal(ev.sin, [0.0, 0.0])


def test_nan_amplitude_carrier_is_the_unit_carrier():
    # a NaN amplitude is not positive either, so its theta is zeroed too
    ev = eval_packet(P, SlitSpec(0.0), [np.nan, 0.5], 1.0)
    assert ev.cos[0] == 1.0 and ev.sin[0] == 0.0
