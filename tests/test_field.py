"""Closed-form pairwise field tests: grids, masks, and the n-slit sums."""

from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from path_excitation import field
from path_excitation.channels import assemble, build_channels
from path_excitation.errors import MismatchedPoint, NegativeTime
from path_excitation.field import (
    _BLOCK,
    _guidance,
    _pairwise,
    _workspace,
    DEFAULT_NODE_FLOOR,
    GridSpec,
    SlitMask,
    field_grid,
    intensity,
    open_evals,
    pairwise_field,
    peak_bound,
)
from path_excitation.oracle import bohm_velocity, equivalence_report
from path_excitation.packet import PhysParams, SlitSpec, eval_packet, sigma_t
from path_excitation.trajectories import integrate

from test_channels import make_eval

P = PhysParams()
SYMMETRIC = [SlitSpec(center=-3.0), SlitSpec(center=3.0)]


class TestGridSpec:
    def test_points_span_and_spacing(self):
        g = GridSpec(-2.0, 2.0, 5, 1.0)
        assert_allclose(g.points(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="x_min < x_max"):
            GridSpec(1.0, 1.0, 10, 0.0)
        for x_min, x_max in ((-np.inf, 1.0), (-1.0, np.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="x_min and x_max must be finite"):
                GridSpec(x_min, x_max, 3, 1.0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="n_points >= 2"):
            GridSpec(0.0, 1.0, 1, 0.0)
        for n_points in (2.5, 3.0, True):
            with pytest.raises(ValueError, match="n_points must be an integer"):
                GridSpec(0.0, 1.0, n_points, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(NegativeTime):
            GridSpec(0.0, 1.0, 10, -0.5)
        with pytest.raises(ValueError, match="t = inf is not finite"):
            GridSpec(-1.0, 1.0, 3, np.inf)


class TestSlitMask:
    def test_all_open(self):
        assert SlitMask.all_open(3).indices() == (0, 1, 2)

    def test_indices_sorted(self):
        assert SlitMask([2, 0]).indices() == (0, 2)

    def test_out_of_range_detected(self):
        with pytest.raises(ValueError, match="out of range"):
            SlitMask([3]).select(SYMMETRIC)
        with pytest.raises(ValueError, match="^mask index 5 out of range for 2 slits$"):
            SlitMask([3, 5]).select(SYMMETRIC)

    def test_select_is_ascending(self):
        slits = [SlitSpec(center=float(c)) for c in range(4)]
        assert SlitMask([3, 0, 2]).select(slits) == [slits[0], slits[2], slits[3]]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SlitMask([-1])

    @pytest.mark.parametrize(
        "index", [1.7, 0.5, -0.5, True, False, np.True_, float("inf"), float("nan"), None]
    )
    def test_fractional_index_rejected(self, index):
        with pytest.raises(ValueError, match="whole numbers"):
            SlitMask([index])

    def test_whole_float_index_accepted(self):
        assert SlitMask([1.0, 0]).indices() == (0, 1)

    def test_empty_mask_is_legal(self):
        m = SlitMask([])
        assert m.select(SYMMETRIC) == []
        assert m.indices() == ()


def test_intensity_single_envelope():
    ev = make_eval(0.8, 1.3, x=0.0)
    assert float(intensity([ev])) == pytest.approx(0.64, rel=1e-14)


def test_intensity_two_slit_closed_form():
    r1, r2, phi = 0.9, 1.4, 0.7
    evals = [make_eval(r1, phi), make_eval(r2, 0.0)]
    expected = r1**2 + r2**2 + 2 * r1 * r2 * np.cos(phi)
    assert float(intensity(evals)) == pytest.approx(expected, rel=1e-14)


def test_intensity_three_slit_closed_form():
    r = (0.8, 1.1, 0.6)
    phi, chi = 0.9, -0.4
    evals = [
        make_eval(r[0], phi + chi),
        make_eval(r[1], chi),
        make_eval(r[2], 0.0),
    ]
    expected = (
        r[0] ** 2
        + r[1] ** 2
        + r[2] ** 2
        + 2 * r[0] * r[1] * np.cos(phi)
        + 2 * r[0] * r[2] * np.cos(phi + chi)
        + 2 * r[1] * r[2] * np.cos(chi)
    )
    assert float(intensity(evals)) == pytest.approx(expected, rel=1e-13)


def test_intensity_rejects_mismatched_points():
    with pytest.raises(MismatchedPoint):
        intensity([make_eval(1.0, 0.0, x=0.0), make_eval(1.0, 0.0, x=2.0)])


def test_pairwise_matches_channel_assembly_three_slit():
    slits = [
        SlitSpec(center=-2.0, sigma0=0.8, drift=0.3, weight=0.7, phase0=0.4),
        SlitSpec(center=0.5, sigma0=1.2, drift=-0.2, weight=1.3, phase0=-0.1),
        SlitSpec(center=2.5, sigma0=1.0, drift=0.1, weight=1.0, phase0=0.9),
    ]
    xs = np.linspace(-9.0, 9.0, 501)
    evals = [eval_packet(P, s, xs, 1.7) for s in slits]
    closed = pairwise_field(evals)
    twin = assemble(build_channels(evals))
    scale = float(np.max(closed.p_tot))
    assert np.max(np.abs(closed.p_tot - twin.p_tot)) < 1e-13 * scale
    assert np.max(np.abs(closed.j_tot - twin.j_tot)) < 1e-13 * scale


def test_pairwise_single_slit_velocity_exact():
    ev = eval_packet(P, SlitSpec(center=1.0, drift=-0.4), np.linspace(-4, 6, 80), 0.9)
    fs = pairwise_field([ev])
    assert np.array_equal(fs.v_tot, ev.conv_velocity)
    assert np.array_equal(fs.p_tot, ev.amplitude**2)


def test_classical_reduction_drops_sin_terms():
    """Forcing u to zero leaves P alone and reduces J to the
    convective pairwise sum."""
    rng = np.random.default_rng(3)
    r = rng.uniform(0.3, 1.2, 3)
    th = rng.uniform(-2.0, 2.0, 3)
    v = rng.uniform(-1.5, 1.5, 3)
    u = rng.uniform(-1.0, 1.0, 3)
    full = [make_eval(r[i], th[i], v=v[i], u=u[i]) for i in range(3)]
    classical = [make_eval(r[i], th[i], v=v[i], u=0.0) for i in range(3)]
    fs_full = pairwise_field(full)
    fs_classical = pairwise_field(classical)
    assert np.array_equal(fs_full.p_tot, fs_classical.p_tot)
    expected_j = sum(r[i] ** 2 * v[i] for i in range(3))
    for i in range(3):
        for j in range(i + 1, 3):
            expected_j += r[i] * r[j] * (v[i] + v[j]) * np.cos(th[i] - th[j])
    assert float(fs_classical.j_tot) == pytest.approx(expected_j, abs=1e-13)


def test_grid_two_slit_symmetry_and_central_fringe():
    grid = GridSpec(-15.0, 15.0, 2001, 2.0)
    fs = field_grid(P, SYMMETRIC, SlitMask.all_open(2), grid)
    xs = grid.points()
    p, v, nodal = fs.p_tot, fs.v_tot, fs.nodal
    assert p.shape == v.shape == nodal.shape == xs.shape
    assert np.all(np.diff(xs) > 0)
    peak = float(np.max(p))
    # mirror symmetry of intensity, antisymmetry of velocity
    assert np.max(np.abs(p - p[::-1])) < 1e-12 * peak
    ok = ~nodal & ~nodal[::-1]
    assert np.max(np.abs(v[ok] + v[::-1][ok])) < 1e-10


def test_grid_central_fringe_dominates_when_packets_overlap():
    """In phase at x = 0 by symmetry, so once the envelopes overlap
    appreciably the constructive central fringe beats the single-packet
    humps.  At small spread the humps win instead, so both geometries
    are scanned."""
    mask = SlitMask.all_open(2)
    grid = GridSpec(-20.0, 20.0, 2001, 6.0)
    p = field_grid(P, SYMMETRIC, mask, grid).p_tot
    assert abs(grid.points()[int(np.argmax(p))]) < 1e-12

    narrow = [SlitSpec(center=-1.0), SlitSpec(center=1.0)]
    grid = GridSpec(-12.0, 12.0, 2001, 2.0)
    p = field_grid(P, narrow, mask, grid).p_tot
    assert abs(grid.points()[int(np.argmax(p))]) < 1e-12


def test_grid_single_slit_variance():
    slit = SlitSpec(center=0.5)
    grid = GridSpec(0.5 - 14.0, 0.5 + 14.0, 4001, 2.0)
    xs = grid.points()
    p = field_grid(P, [slit], SlitMask([0]), grid).p_tot
    total = trapezoid(p, xs)
    mean = trapezoid(xs * p, xs) / total
    var = trapezoid((xs - mean) ** 2 * p, xs) / total
    assert_allclose(var, sigma_t(P, slit, 2.0) ** 2, rtol=1e-6)


def test_grid_empty_mask_is_dark():
    """An empty mask, and open slits of zero weight, give an exactly dark
    grid; so does an explicit nodal reference that is not positive."""
    grid = GridSpec(-5.0, 5.0, 11, 1.0)
    dark = [SlitSpec(center=-1.0, weight=0.0), SlitSpec(center=1.0, weight=0.0)]
    samples = [
        field_grid(P, slits, SlitMask(open_idx), grid)
        for slits, open_idx in ((SYMMETRIC, []), (dark, [0, 1]))
    ]
    for slits in (dark, dark[:1]):
        evals = open_evals(P, slits, SlitMask.all_open(len(slits)), grid.points(), grid.t)
        samples += [pairwise_field(evals, peak=0.0), assemble(build_channels(evals), peak=0.0)]
    for fs in samples:
        assert np.array_equal(fs.p_tot, np.zeros(11)) and np.array_equal(fs.j_tot, np.zeros(11))
        assert np.array_equal(fs.v_tot, np.full(11, np.nan), equal_nan=True)
        assert np.array_equal(fs.nodal, np.ones(11, dtype=bool))
    # the reference alone decides: lit points are nodal under a zero peak too
    lit = open_evals(P, SYMMETRIC, SlitMask.all_open(2), grid.points(), grid.t)
    for fs in (pairwise_field(lit, peak=0.0), assemble(build_channels(lit), peak=0.0)):
        assert np.all(fs.p_tot > 0.0) and np.all(fs.nodal) and np.all(np.isnan(fs.v_tot))
    # neither has a point to sum at without an evaluation
    for fn in (pairwise_field, intensity):
        with pytest.raises(ValueError, match="at least one"):
            fn([])


@pytest.mark.parametrize(
    "slits, open_idx",
    [
        (SYMMETRIC, [0, 1]),
        ([SlitSpec(center=0.5, drift=0.2)], [0]),
        ([SlitSpec(center=-2.0), SlitSpec(center=2.0, weight=0.0)], [0, 1]),
    ],
    ids=["two-slit", "one-slit", "zero-weight"],
)
def test_grid_is_pairwise_field_at_grid_peak_bit_for_bit(slits, open_idx):
    """field_grid equals pairwise_field with the grid maximum as peak."""
    grid = GridSpec(-15.0, 15.0, 2001, 2.0)
    mask = SlitMask(open_idx)
    fs = field_grid(P, slits, mask, grid)
    evals = open_evals(P, slits, mask, grid.points(), grid.t)
    ref = pairwise_field(evals, peak=float(np.max(intensity(evals))))
    for name in ("p_tot", "j_tot", "v_tot", "nodal"):
        assert np.array_equal(getattr(fs, name), getattr(ref, name), equal_nan=True), name
    assert np.any(fs.nodal) and not np.all(fs.nodal)


def test_far_slits_leave_the_field_bit_for_bit():
    """Slits whose packets underflow to 0 on the grid add nothing, not NaN."""
    grid = GridSpec(-15.0, 15.0, 201, 2.0)
    far = [SlitSpec(center=-1e200), SlitSpec(center=0.0), SlitSpec(center=1e200)]
    with np.errstate(over="ignore"):
        fs = field_grid(P, far, SlitMask.all_open(3), grid)
    alone = field_grid(P, [SlitSpec(center=0.0)], SlitMask([0]), grid)
    assert np.array_equal(fs.p_tot, alone.p_tot)
    assert np.array_equal(fs.j_tot, alone.j_tot)


# Three slits of unequal width and weight, with drift and phase offsets.
SKEWED = [
    SlitSpec(center=-4.0, sigma0=0.7, drift=0.4, weight=0.6, phase0=0.3),
    SlitSpec(center=0.5, sigma0=1.3, drift=-0.25, weight=1.4, phase0=-1.1),
    SlitSpec(center=5.0, sigma0=0.9, drift=0.1, weight=0.8, phase0=2.0),
]
# Grid sizes around one block and one ragged multi-block grid.
BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17]
# Heavy packets far right: P_tot overflows only in the third block of a
# 3 * _BLOCK + 17 point grid on [-15, 15], to NaN where two heavy
# packets meet in antiphase and to inf for one heavy packet alone.
LATE_NAN = [
    SlitSpec(center=-5.0),
    SlitSpec(center=25.0, weight=1e160),
    SlitSpec(center=25.0, weight=1e160, phase0=np.pi),
]
LATE_INF = [SlitSpec(center=-5.0), SlitSpec(center=25.0, weight=1e160)]


def whole_grid_field(params, slits, mask, grid, node_floor=DEFAULT_NODE_FLOOR):
    """field_grid's rule on one whole-grid evaluation: the reference for blocks."""
    xs = grid.points()
    evals = open_evals(params, slits, mask, xs, grid.t)
    ws = _workspace(xs.shape, 0)
    p, j = _pairwise(evals, ws)
    return _guidance(p, j, node_floor, float(np.max(p)), [ev.conv_velocity for ev in evals], ws)


def assert_same_field(fs, ref):
    for name in ("p_tot", "j_tot", "v_tot", "nodal"):
        assert np.array_equal(getattr(fs, name), getattr(ref, name), equal_nan=True), name


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize(
    "slits, open_idx", [(SKEWED, [0, 1, 2]), (SKEWED, [1]), (SKEWED, [])],
    ids=["skewed", "one-slit", "empty"],
)
def test_blocked_grid_field_is_whole_grid_bit_for_bit(slits, open_idx, n):
    grid = GridSpec(-15.0, 15.0, n, 2.0)
    mask = SlitMask(open_idx)
    assert_same_field(field_grid(P, slits, mask, grid), whole_grid_field(P, slits, mask, grid))


@pytest.mark.parametrize("slits", [LATE_NAN, LATE_INF], ids=["nan", "inf"])
def test_overflow_in_a_late_block_sets_the_whole_grid_reference(slits):
    """A NaN or inf P_tot met only in the last blocks still sets the nodal
    reference, as one whole-grid maximum does: NaN makes every point
    nodal, inf every finite point."""
    grid = GridSpec(-15.0, 15.0, 3 * _BLOCK + 17, 2.0)
    mask = SlitMask.all_open(len(slits))
    with np.errstate(all="ignore"):
        fs = field_grid(P, slits, mask, grid)
        ref = whole_grid_field(P, slits, mask, grid)
    assert np.all(np.isfinite(ref.p_tot[: 2 * _BLOCK]))
    assert not np.all(np.isfinite(ref.p_tot))
    assert_same_field(fs, ref)
    assert np.all(fs.nodal) if slits is LATE_NAN else np.all(fs.nodal == np.isfinite(fs.p_tot))


def test_peak_bound_dominates_grid():
    grid = GridSpec(-15.0, 15.0, 2001, 2.0)
    bound = peak_bound(P, SYMMETRIC, SlitMask.all_open(2), grid.t)
    peak = float(np.max(field_grid(P, SYMMETRIC, SlitMask.all_open(2), grid).p_tot))
    assert peak <= bound
    # the bound is attained for a single centered packet
    single = peak_bound(P, [SlitSpec(center=0.0)], SlitMask([0]), 2.0)
    ev = eval_packet(P, SlitSpec(center=0.0), 0.0, 2.0)
    assert float(ev.amplitude**2) == pytest.approx(single, rel=1e-14)


def test_open_evals_respects_mask_order():
    slits = [SlitSpec(center=c) for c in (-3.0, 0.0, 3.0)]
    evals = open_evals(P, slits, SlitMask([2, 0]), np.array([0.0]), 1.0)
    assert len(evals) == 2
    # mask indices are applied in sorted order
    ev_first = eval_packet(P, slits[0], np.array([0.0]), 1.0)
    assert np.array_equal(evals[0].amplitude, ev_first.amplitude)


@pytest.mark.parametrize("floor", [-1.0, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize(
    "entry", ["pairwise_field", "field_grid", "assemble", "integrate", "bohm_velocity"]
)
def test_node_floor_rule_at_entry_points(entry, floor):
    # a negative or NaN floor flags no point nodal, which switches the
    # nodal rule off; every entry point applies field._check_node_floor
    both = SlitMask.all_open(2)
    evals = open_evals(P, SYMMETRIC, both, np.array([0.0, 1.0]), 1.0)
    calls = {
        "pairwise_field": lambda: pairwise_field(evals, floor),
        "field_grid": lambda: field_grid(P, SYMMETRIC, both, GridSpec(-5.0, 5.0, 11, 1.0), floor),
        "assemble": lambda: assemble(build_channels(evals), floor),
        "integrate": lambda: integrate(P, SYMMETRIC, both, 0.5, 0.01, 0.03, 0.01, floor),
        "bohm_velocity": lambda: bohm_velocity(P, SYMMETRIC, both, np.array([0.5]), 1.0, floor),
    }
    with pytest.raises(ValueError, match="^node_floor >= 0 violated$"):
        calls[entry]()


@pytest.mark.parametrize("entry", [field_grid, equivalence_report], ids=lambda f: f.__name__)
def test_grid_entry_points_check_the_floor_before_evaluating(entry):
    # the grid routes take a nodal reference over the whole grid first;
    # a bad floor must be rejected before that pass, not after it
    with mock.patch.object(field, "eval_packet", wraps=eval_packet) as spy:
        with pytest.raises(ValueError, match="^node_floor >= 0 violated$"):
            entry(P, SYMMETRIC, SlitMask.all_open(2), GridSpec(-5.0, 5.0, 11, 1.0), -1.0)
    assert spy.call_count == 0
