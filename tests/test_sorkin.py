"""Inclusion-exclusion interference hierarchy tests.

Order 2 must be alive (the fringe term), every order at three and above
must cancel to rounding because the intensity is a strictly pairwise
sum over beams.
"""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from path_excitation import field
from path_excitation.channels import build_channels, project
from path_excitation.field import GridSpec, SlitMask, intensity, open_evals
from path_excitation.packet import PhysParams, SlitSpec, eval_packet
from path_excitation.sorkin import (
    SORKIN_FLOOR,
    SORKIN_TOL,
    SumRuleReport,
    interference_term,
    subset_intensity,
    sumrule_report,
    sumrule_verdict,
)

from test_field import _BLOCK, BLOCK_SIZES, LATE_INF, LATE_NAN, SKEWED

P = PhysParams()
THREE = [SlitSpec(center=-6.0), SlitSpec(center=0.0), SlitSpec(center=6.0)]
FOUR = [SlitSpec(center=-9.0), SlitSpec(center=-3.0), SlitSpec(center=3.0), SlitSpec(center=9.0)]
GRID3 = GridSpec(-18.0, 18.0, 1201, 2.0)
GRID4 = GridSpec(-21.0, 21.0, 1401, 2.0)
XS = np.linspace(-10.0, 10.0, 401)


def test_empty_subset_is_dark():
    assert np.all(subset_intensity(P, THREE, (), XS, 2.0) == 0.0)
    # the inclusion-exclusion term has no order 0
    with pytest.raises(ValueError, match="at least one slit"):
        interference_term(P, THREE, (), XS, 2.0)


def test_singleton_subset_is_squared_envelope():
    got = subset_intensity(P, THREE, (1,), XS, 2.0)
    ev = eval_packet(P, THREE[1], XS, 2.0)
    assert np.max(np.abs(got - ev.amplitude**2)) < 1e-15


def test_pair_subset_matches_two_beam_intensity():
    got = subset_intensity(P, THREE, (0, 2), XS, 2.0)
    direct = intensity(open_evals(P, THREE, SlitMask([0, 2]), XS, 2.0))
    assert np.array_equal(got, direct)


def test_order_one_term_recovers_single_intensity():
    term = interference_term(P, THREE, (0,), XS, 2.0)
    assert np.array_equal(term, subset_intensity(P, THREE, (0,), XS, 2.0))


def test_repeated_index_names_its_slit_once():
    """A subset is a set, as a mask is: (0, 0) is S = {0}, so I_S = P_0."""
    term = interference_term(P, THREE, (0, 0), XS, 2.0)
    assert np.array_equal(term, subset_intensity(P, THREE, (0,), XS, 2.0))


def test_term_evaluates_each_slit_once():
    slits = [SlitSpec(center=c) for c in (-10.0, -6.0, -2.0, 2.0, 6.0, 10.0)]
    with mock.patch.object(field, "eval_packet", wraps=eval_packet) as spy:
        interference_term(P, slits, range(6), XS, 2.0)
    assert [c.args[1] for c in spy.call_args_list] == slits


def test_order_two_term_equals_fringe_closed_form():
    term = interference_term(P, THREE, (0, 1), XS, 2.0)
    e0 = eval_packet(P, THREE[0], XS, 2.0)
    e1 = eval_packet(P, THREE[1], XS, 2.0)
    cos_rel = e0.cos * e1.cos + e0.sin * e1.sin
    closed = 2.0 * e0.amplitude * e1.amplitude * cos_rel
    scale = float(np.max(subset_intensity(P, THREE, (0, 1), XS, 2.0)))
    assert np.max(np.abs(term - closed)) <= 1e-12 * scale


def test_order_two_constructive_point():
    # identical centers make the pair exactly in phase everywhere
    twins = [SlitSpec(center=0.0, weight=0.8), SlitSpec(center=0.0, weight=1.1)]
    term = interference_term(P, twins, (0, 1), XS, 1.0)
    e0 = eval_packet(P, twins[0], XS, 1.0)
    e1 = eval_packet(P, twins[1], XS, 1.0)
    assert np.max(np.abs(term - 2.0 * e0.amplitude * e1.amplitude)) < 1e-14


def test_order_three_term_cancels():
    term = interference_term(P, THREE, (0, 1, 2), XS, 2.0)
    scale = float(np.max(subset_intensity(P, THREE, (0, 1, 2), XS, 2.0)))
    assert np.max(np.abs(term)) <= 1e-12 * scale


def test_report_three_slit_hierarchy():
    reports = sumrule_report(P, THREE, GRID3)
    by_order = {r.order: r for r in reports}
    assert sorted(by_order) == [2, 3]
    assert by_order[2].normalized_max > 0.1
    assert by_order[3].normalized_max <= 1e-12
    for r in reports:
        assert r.scale > 0.0
        assert r.values.shape == (GRID3.n_points,)
        assert r.max_abs == pytest.approx(float(np.max(r.values)))


def test_report_four_slit_hierarchy():
    reports = sumrule_report(P, FOUR, GRID4)
    by_order = {r.order: r for r in reports}
    assert sorted(by_order) == [2, 3, 4]
    assert by_order[2].normalized_max > 0.1
    assert by_order[3].normalized_max <= 1e-12
    assert by_order[4].normalized_max <= 1e-12


SIX_SKEWED = [
    SlitSpec(center=c, sigma0=s, drift=d, weight=w, phase0=ph)
    for c, s, d, w, ph in [
        (-10.0, 1.0, 0.3, 1.0, 0.0),
        (-6.0, 0.8, -0.7, 0.55, 1.1),
        (-2.0, 1.3, 0.0, 1.7, -2.3),
        (2.0, 0.9, 1.2, 0.8, 0.4),
        (6.0, 1.1, -0.2, 1.25, 2.9),
        (10.0, 1.2, 0.5, 0.35, -0.6),
    ]
]
GRID6 = GridSpec(-40.0, 40.0, 2001, 3.0)


@pytest.mark.parametrize(
    ("slits", "grid"), [(FOUR, GRID4), (SIX_SKEWED, GRID6)], ids=["four", "six-skewed"]
)
def test_report_is_subset_inclusion_exclusion_bit_for_bit(slits, grid):
    """One evaluation per slit gives exactly the per-subset reruns."""
    reports = sumrule_report(P, slits, grid)
    assert [r.order for r in reports] == list(range(2, len(slits) + 1))
    ref = whole_grid_reports(slits, grid)
    for r, (_, values, max_abs, scale) in zip(reports, ref, strict=True):
        assert np.array_equal(r.values, values, equal_nan=True)
        assert r.scale == scale
        assert r.max_abs == max_abs
        assert r.normalized_max == r.max_abs / scale


def whole_grid_reports(slits, grid):
    """(order, values, max_abs, scale) of every order from whole-grid subset runs."""
    n = len(slits)
    xs = grid.points()
    runs = {
        sub: subset_intensity(P, slits, sub, xs, grid.t)
        for size in range(1, n + 1)
        for sub in combinations(range(n), size)
    }
    scale = max(float(np.max(p)) for p in runs.values())
    reports = []
    for k in range(2, n + 1):
        values = np.zeros(xs.shape)
        for s in combinations(range(n), k):
            term = np.zeros(xs.shape)
            for size in range(1, k + 1):
                sign = -1.0 if (k - size) % 2 else 1.0
                for sub in combinations(s, size):
                    term = term + sign * runs[sub]
            values = np.maximum(values, np.abs(term))
        reports.append((k, values, float(np.max(values)), scale))
    return reports


def same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


# At t = 0.01 the first slit's weight times its peak envelope overflows:
# its P is inf near its center and NaN (inf * 0) where the envelope
# underflows, so the first subset's maximum is NaN.
FIRST_NAN = [SlitSpec(center=0.0, sigma0=0.1, weight=1e308), SlitSpec(center=3.0)]


@pytest.mark.parametrize(
    ("slits", "n", "t"),
    [(SKEWED, n, 2.0) for n in BLOCK_SIZES]
    + [(LATE_NAN, 3 * _BLOCK + 17, 2.0), (LATE_INF, 3 * _BLOCK + 17, 2.0)]
    + [(FIRST_NAN, 3 * _BLOCK + 17, 0.01)],
    ids=[f"skewed-{n}" for n in BLOCK_SIZES] + ["late-nan", "late-inf", "first-nan"],
)
def test_blocked_report_is_whole_grid_bit_for_bit(slits, n, t):
    """Block by block, values, maxima and scale equal whole-grid subset
    runs, also when a subset's P is NaN or inf in some blocks only."""
    grid = GridSpec(-15.0, 15.0, n, t)
    with np.errstate(all="ignore"):
        reports = sumrule_report(P, slits, grid)
        ref = whole_grid_reports(slits, grid)
    for r, (order, values, max_abs, scale) in zip(reports, ref, strict=True):
        assert r.order == order
        assert np.array_equal(r.values, values, equal_nan=True)
        assert same(r.max_abs, max_abs) and same(r.scale, scale)
        assert same(r.normalized_max, max_abs / scale if scale > 0.0 else 0.0)


def test_report_rejects_bad_order():
    """The orders run from 2 to the slit count, so one slit has none."""
    assert [r.order for r in sumrule_report(P, THREE[:2], GRID3)] == [2]
    with pytest.raises(ValueError, match="^sorkin requires at least two slits$") as exc:
        sumrule_report(P, THREE[:1], GRID3)
    assert type(exc.value) is ValueError


def test_context_split_differs_from_closed_slit_sum():
    """The two live-context projections recompose the pair intensity
    exactly, while the closed-slit single-beam intensities miss it by
    the full fringe term somewhere on the grid."""
    pair = [SlitSpec(center=-3.0), SlitSpec(center=3.0)]
    xs = GridSpec(-15.0, 15.0, 2001, 2.0).points()
    p_both = subset_intensity(P, pair, (0, 1), xs, 2.0)
    p_a = subset_intensity(P, pair, (0,), xs, 2.0)
    p_b = subset_intensity(P, pair, (1,), xs, 2.0)
    scale = float(np.max(p_both))
    assert np.max(np.abs(p_both - p_a - p_b)) > 0.1 * scale

    cset = build_channels(open_evals(P, pair, SlitMask([0, 1]), xs, 2.0))
    conv_sum = project(cset, 0) + project(cset, 3)
    assert np.max(np.abs(p_both - conv_sum)) <= 1e-12 * scale


# ------------------------------------------------------------------ verdict


def order_reports(*normalized):
    """SumRuleReports of orders 2, 3, ... with the given normalized maxima, on scale 1."""
    return [
        SumRuleReport(order=k, values=np.array([m]), max_abs=m, scale=1.0, normalized_max=m)
        for k, m in enumerate(normalized, start=2)
    ]


def test_sorkin_tolerances_are_pinned():
    assert (SORKIN_TOL, SORKIN_FLOOR) == (1e-12, 1e-6)


def test_verdict_passes_a_live_two_slit_fringe():
    assert sumrule_verdict(sumrule_report(P, THREE[:2], GRID3)) == (True, True)


@pytest.mark.parametrize(
    ("normalized", "verdict"),
    [
        ((1e-6, 0.0), (False, False)),  # at the floor: no violation
        ((np.nextafter(1e-6, 1.0), 1e-12), (True, True)),  # higher order at its bound
        ((0.3, np.nextafter(1e-12, 1.0)), (True, False)),
        ((0.3, 0.0, np.nan), (True, False)),
        ((np.nan, 0.0), (False, False)),
    ],
    ids=["floor", "bound", "over-bound", "nan-high", "nan-order-2"],
)
def test_verdict_rule(normalized, verdict):
    assert sumrule_verdict(order_reports(*normalized)) == verdict
