"""Sampling, streamline integration, and ensemble determinism tests."""

import tracemalloc

import numpy as np
import pytest

from path_excitation import packet, trajectories
from path_excitation.errors import DegenerateDensity
from path_excitation.field import SlitMask, _workspace
from path_excitation.packet import PhysParams, SlitSpec, sigma_t
from path_excitation.trajectories import (
    Termination,
    ensemble,
    integrate,
    quantile_initial,
    sample_initial,
    streamlines,
)

P = PhysParams()
SYMMETRIC = [SlitSpec(center=-3.0), SlitSpec(center=3.0)]
BOTH = SlitMask.all_open(2)
SINGLE = [SlitSpec(center=0.0)]
ONE = SlitMask([0])

# a node pinned at x = 0 for every t: equal envelopes by symmetry and a
# half-turn static phase offset between the beams
NODED = [SlitSpec(center=-3.0), SlitSpec(center=3.0, phase0=np.pi)]


class TestSampling:
    def test_fixed_seed_reproduces_samples(self):
        a = sample_initial(P, SYMMETRIC, BOTH, 1e-3, 500, seed=42)
        b = sample_initial(P, SYMMETRIC, BOTH, 1e-3, 500, seed=42)
        assert np.array_equal(a, b)

    def test_different_seed_moves_samples(self):
        a = sample_initial(P, SYMMETRIC, BOTH, 1e-3, 500, seed=42)
        b = sample_initial(P, SYMMETRIC, BOTH, 1e-3, 500, seed=43)
        assert not np.array_equal(a, b)

    def test_single_slit_sample_mean(self):
        n = 4000
        xs = sample_initial(P, SINGLE, ONE, 1e-3, n, seed=7)
        assert abs(xs.mean() - 0.0) <= 3.0 / np.sqrt(n)

    def test_symmetric_config_sample_skewness(self):
        n = 20000
        xs = sample_initial(P, SYMMETRIC, BOTH, 1e-3, n, seed=19)
        d = xs - xs.mean()
        skew = np.mean(d**3) / np.mean(d**2) ** 1.5
        assert abs(skew) <= 3.0 * np.sqrt(6.0 / n)

    def test_dark_configuration_rejected(self):
        dark = [SlitSpec(center=0.0, weight=0.0)]
        with pytest.raises(DegenerateDensity):
            sample_initial(P, dark, ONE, 0.5, 10, seed=0)
        with pytest.raises(DegenerateDensity):
            sample_initial(P, SYMMETRIC, SlitMask([]), 0.5, 10, seed=0)

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_initial(P, SYMMETRIC, BOTH, 0.5, 0, seed=0)
        with pytest.raises(ValueError, match="n >= 1"):
            quantile_initial(P, SYMMETRIC, BOTH, 0.5, 0)

    def test_non_integer_count_rejected(self):
        for n in (2.5, 3.0, True, None):
            with pytest.raises(ValueError, match="n must be an integer"):
                sample_initial(P, SYMMETRIC, BOTH, 0.5, n, seed=0)
            with pytest.raises(ValueError, match="n must be an integer"):
                quantile_initial(P, SYMMETRIC, BOTH, 0.5, n)
        a = sample_initial(P, SYMMETRIC, BOTH, 0.5, np.int64(7), seed=0)
        assert np.array_equal(a, sample_initial(P, SYMMETRIC, BOTH, 0.5, 7, seed=0))
        b = quantile_initial(P, SYMMETRIC, BOTH, 0.5, np.int64(7))
        assert np.array_equal(b, quantile_initial(P, SYMMETRIC, BOTH, 0.5, 7))

    @pytest.mark.parametrize(
        ("params", "slits"),
        [
            (PhysParams(hbar=1e150), SYMMETRIC),
            (P, [SlitSpec(center=0.0, sigma0=1e154)]),
            (P, [SlitSpec(center=0.0, sigma0=1e-160)]),
        ],
        ids=["huge_hbar", "huge_sigma0", "tiny_sigma0"],
    )
    def test_non_finite_intensity_is_degenerate(self, params, slits):
        # the config parser's domain check rejects these slits, but a
        # library caller bypasses it, so the sampler keeps its own guard
        with pytest.raises(ValueError, match="is not finite at t = 0.001"):
            packet._check_domain(params, slits[0], (1e-3,))
        mask = SlitMask.all_open(len(slits))
        with np.errstate(all="ignore"):
            with pytest.raises(DegenerateDensity, match="total integrated intensity nan is not finite"):
                sample_initial(params, slits, mask, 1e-3, 50, seed=0)

    def test_quantile_starts_are_sorted_and_deterministic(self):
        a = quantile_initial(P, SYMMETRIC, BOTH, 1e-3, 31)
        b = quantile_initial(P, SYMMETRIC, BOTH, 1e-3, 31)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)
        # median of the symmetric density sits on the axis
        mid = quantile_initial(P, SYMMETRIC, BOTH, 1e-3, 1)
        assert abs(float(mid[0])) < 1e-6


# (t1 - t0, dt, final positions of 4 quantile starts) at t0 = 1e12, where
# doubles are 2**-13 apart.  The first window's 100,000 targets round to
# 8,193 times; the second's last step is 3e-5 short of t1 and rounds onto
# it.  A zero-length step moves no position, so the final positions are
# those of a schedule that keeps every rounded target.  One slit's
# velocity takes no exp, cos or sin, so they hold on every SIMD level.
ZERO_LENGTH_STEPS = {
    "tiny dt": (1.0, 1e-5, [
        "-0x1.0bd63f83668d2p+39", "-0x1.28c1951905effp+37",
        "0x1.28c1951905eefp+37", "0x1.0bd63f83668c4p+39",
    ]),
    "short last step": (10.0001220703125, (10.0001220703125 - 3e-5) / 10, [
        "-0x1.0bd63f83700e2p+39", "-0x1.28c1951910af1p+37",
        "0x1.28c1951910ae1p+37", "0x1.0bd63f83700d4p+39",
    ]),
}


class TestIntegrate:
    def test_ballistic_spreading_endpoint(self):
        tr = integrate(P, SINGLE, ONE, 1.0, 0.0, 2.0, dt=0.002)
        assert tr.terminated is Termination.COMPLETED
        t_end, x_end = tr.samples[-1]
        assert t_end == 2.0
        assert abs(x_end - np.sqrt(2.0)) < 1e-6

    def test_center_streamline_follows_drift(self):
        slit = SlitSpec(center=1.0, drift=0.4)
        tr = integrate(P, [slit], ONE, 1.0, 0.0, 2.0, dt=0.01)
        for t, x in tr.samples:
            assert abs(x - (1.0 + 0.4 * t)) < 1e-9

    def test_times_strictly_increasing_and_span(self):
        tr = integrate(P, SYMMETRIC, BOTH, 0.7, 0.5, 1.5, dt=0.013)
        ts = [t for t, _ in tr.samples]
        assert ts[0] == 0.5
        assert ts[-1] == 1.5
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("case", ZERO_LENGTH_STEPS)
    def test_targets_that_round_together_are_kept_once(self, case):
        t0 = 1e12
        span, dt, final = ZERO_LENGTH_STEPS[case]
        targets = trajectories._time_steps(t0, t0 + span, dt)
        assert targets[0] == t0 and targets[-1] == t0 + span
        assert (np.diff(targets) > 0).all()
        x0 = quantile_initial(P, SINGLE, ONE, t0, 4)
        times, paths, abort_steps = streamlines(P, SINGLE, ONE, x0, t0, t0 + span, dt)
        assert np.array_equal(times, targets) and list(abort_steps) == [-1] * 4
        assert [x.hex() for x in paths[-1]] == final

    def test_fourth_order_convergence(self):
        ends = {}
        for dt in (0.1, 0.05, 0.025):
            tr = integrate(P, SYMMETRIC, BOTH, 1.3, 0.5, 2.0, dt=dt)
            ends[dt] = tr.samples[-1][1]
        ratio = (ends[0.1] - ends[0.05]) / (ends[0.05] - ends[0.025])
        assert 8.0 <= ratio <= 32.0

    def test_streamline_through_node_aborts(self):
        tr = integrate(P, NODED, BOTH, 0.0, 0.5, 2.0, dt=0.01)
        assert tr.terminated is Termination.NODAL_ABORT
        assert len(tr.samples) == 1
        assert tr.samples[0] == (0.5, 0.0)

    def test_window_shorter_than_one_step_still_takes_it(self):
        # dt far above t1 - t0: the schedule is still t0 -> t1, so the
        # start is kept and a start on a node aborts
        tr = integrate(P, SINGLE, ONE, 0.3, 0.0, 1e-12, dt=1.0)
        assert tr.terminated is Termination.COMPLETED
        assert tr.samples[0] == (0.0, 0.3)
        assert [t for t, _ in tr.samples] == [0.0, 1e-12]
        t1 = 0.5 + 1e-12
        times, paths, abort_steps = streamlines(P, NODED, BOTH, [0.0, 0.5], 0.5, t1, dt=1.0)
        assert list(times) == [0.5, t1]
        assert list(abort_steps) == [0, -1]
        assert np.all(paths[:, 0] == 0.0)

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            integrate(P, SINGLE, ONE, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(P, SINGLE, ONE, 0.0, 0.5, 1.0, dt=-0.1)

    @pytest.mark.parametrize(("t1", "dt"), [(np.inf, None), (np.inf, 0.1), (0.5, np.inf)])
    def test_rejects_infinite_window_or_step(self, t1, dt):
        with pytest.raises(ValueError, match="is not finite"):
            integrate(P, SYMMETRIC, BOTH, 0.0, 0.001, t1, dt)
        with pytest.raises(ValueError, match="is not finite"):
            streamlines(P, SYMMETRIC, BOTH, [0.0], 0.001, t1, dt)
        with pytest.raises(ValueError, match="is not finite"):
            ensemble(P, SYMMETRIC, BOTH, 0.001, t1, 10, dt=dt)

    def test_step_count_cap_rejects_tiny_dt_before_integrating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a capped dt reached the integrator")

        monkeypatch.setattr(trajectories, "_bundle", never)
        with pytest.raises(ValueError, match="dt"):
            integrate(P, SINGLE, ONE, 0.0, 0.0, 2.0, dt=1e-9)
        with pytest.raises(ValueError, match="dt"):
            streamlines(P, SINGLE, ONE, [0.0], 0.0, 2.0, dt=1e-9)
        with pytest.raises(ValueError, match="dt"):
            ensemble(P, SINGLE, ONE, 0.0, 2.0, 10, dt=1e-9)
        # the cap itself is allowed
        assert trajectories._resolve_dt(0.0, 2.0, 2.0 / trajectories._MAX_STEPS) > 0.0

    @pytest.mark.parametrize("dt", [None, 0.01])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_starts(self, monkeypatch, bad, dt):
        # A NaN start once completed with NaN samples, and its NaN step
        # error pinned a whole controlled bundle at the floor step.
        with pytest.raises(ValueError, match="x0s must be finite"):
            integrate(P, SYMMETRIC, BOTH, bad, 0.001, 2.0, dt)
        with pytest.raises(ValueError, match="x0s must be finite"):
            streamlines(P, SYMMETRIC, BOTH, bad, 0.001, 2.0, dt)

        def never(*args, **kwargs):
            raise AssertionError("a non-finite start reached the integrator")

        monkeypatch.setattr(trajectories, "_bundle", never)
        with pytest.raises(ValueError, match="x0s must be finite"):
            streamlines(P, SYMMETRIC, BOTH, [-1.0, bad, 1.0], 0.001, 2.0, dt)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: streamlines(P, SYMMETRIC, BOTH, [[0.0, 1.0]], 0.001, 2.0),
            lambda: streamlines(P, SYMMETRIC, BOTH, np.zeros((2, 2)), 0.001, 2.0, 0.01),
            lambda: integrate(P, SYMMETRIC, BOTH, [0.5, 1.0], 0.001, 2.0),
        ],
        ids=["row", "square", "integrate"],
    )
    def test_rejects_starts_of_more_than_one_dimension(self, monkeypatch, call):
        # Such starts once mixed shapes: a (1, 2) start gave (40, 2)
        # paths but (1, 2) abort steps, and (2, 2) failed in the recording.
        def never(*args, **kwargs):
            raise AssertionError("a start of more than one dimension reached the integrator")

        monkeypatch.setattr(trajectories, "_bundle", never)
        with pytest.raises(ValueError, match="x0s must be a scalar or a 1-d array"):
            call()

    def test_bad_bins_rejected_before_integrating(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a bad bins reached the integrator")

        monkeypatch.setattr(trajectories, "_bundle", never)
        with pytest.raises(ValueError, match="bins >= 1 violated"):
            ensemble(P, SINGLE, ONE, 0.0, 2.0, 10, bins=0)
        for bins in (2.5, True):
            with pytest.raises(ValueError, match="bins must be an integer"):
                ensemble(P, SINGLE, ONE, 0.0, 2.0, 10, bins=bins)


def test_streamlines_bundle_shapes_and_no_crossing():
    x0s = quantile_initial(P, SYMMETRIC, BOTH, 1e-3, 25)
    times, paths, abort_steps = streamlines(P, SYMMETRIC, BOTH, x0s, 1e-3, 2.0, dt=0.02)
    assert paths.shape == (times.size, 25)
    assert np.array_equal(paths[0], x0s)
    assert np.all(abort_steps == -1)
    # order preserved at every stored step
    assert np.all(np.diff(paths, axis=1) > -1e-9)


def test_streamlines_record_frozen_positions_after_abort():
    times, paths, abort_steps = streamlines(
        P, NODED, BOTH, np.array([-0.5, 0.0, 0.5]), 0.5, 1.0, dt=0.05
    )
    assert abort_steps[1] == 0
    assert np.all(paths[:, 1] == 0.0)
    assert abort_steps[0] == -1 and abort_steps[2] == -1


@pytest.mark.parametrize("dt", [None, 0.05], ids=["controlled", "fixed"])
@pytest.mark.parametrize("n_slits", [1, 2, pytest.param(0, id="empty-mask")])
def test_dark_field_aborts_at_the_start(n_slits, dt):
    """Open slits of zero weight leave no density to guide, and neither
    does an empty mask over lit slits: every point is nodal, so a start
    aborts at sample 0 in both step modes."""
    dark = [SlitSpec(center=-1.0, weight=0.0), SlitSpec(center=1.0, weight=0.0)][:n_slits]
    slits, mask = (dark, SlitMask.all_open(n_slits)) if n_slits else (SYMMETRIC, SlitMask([]))
    tr = integrate(P, slits, mask, 0.3, 0.5, 1.5, dt)
    assert tr.terminated is Termination.NODAL_ABORT
    assert tr.samples == [(0.5, 0.3)]
    times, paths, abort_steps = streamlines(P, slits, mask, [-0.4, 0.3], 0.5, 1.5, dt)
    assert times[0] == 0.5
    assert list(abort_steps) == [0, 0]
    assert np.array_equal(paths, np.broadcast_to([-0.4, 0.3], paths.shape))


@pytest.mark.parametrize("dt", [None, 0.5])
def test_streamlines_scalar_start_gives_one_column(dt):
    """A scalar start returns exactly what a one-element list does, so
    abort_steps has the one entry that indexes its one paths column."""
    times, paths, abort_steps = scalar = streamlines(P, SINGLE, ONE, 1.0, 0.0, 1.0, dt)
    assert paths.shape == (times.size, 1)
    assert abort_steps.shape == (1,)
    listed = streamlines(P, SINGLE, ONE, [1.0], 0.0, 1.0, dt)
    for a, b in zip(scalar, listed):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestEnsemble:
    def test_counts_balance_and_determinism(self):
        kw = dict(dt=0.02, bins=40, seed=11)
        a = ensemble(P, SYMMETRIC, BOTH, 1e-3, 2.0, 2000, **kw)
        b = ensemble(P, SYMMETRIC, BOTH, 1e-3, 2.0, 2000, **kw)
        assert a.counts.sum() + a.n_aborted == a.n_trajectories == 2000
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.bin_edges, b.bin_edges)
        assert a.n_crossing_violations == b.n_crossing_violations == 0
        assert a.seed == 11

    def test_single_slit_endpoint_variance_tracks_dispersion(self):
        res = ensemble(P, SINGLE, ONE, 1e-3, 2.0, 1000, dt=0.01, bins=80, seed=3)
        assert res.n_aborted == 0
        mids = 0.5 * (res.bin_edges[:-1] + res.bin_edges[1:])
        w = res.counts / res.counts.sum()
        mean = np.sum(mids * w)
        var = np.sum((mids - mean) ** 2 * w)
        target = sigma_t(P, SINGLE[0], 2.0) ** 2
        assert abs(var - target) <= 0.15 * target

    def test_far_lone_survivor_is_counted(self):
        # numpy widens a one-value range by +-0.5, which rounds away at the
        # survivor's magnitude (about 3e50), so there is no room for 6 bins
        params = PhysParams(hbar=7.652941851576945e50)
        res = ensemble(params, [SlitSpec(center=2.09128160260725)], ONE, 1e-3, 2.0, 1, dt=0.5, bins=6)
        assert res.n_aborted == 0 and res.counts.sum() == 1
        assert res.bin_edges.size == 7 and np.all(np.diff(res.bin_edges) > 0)
        with pytest.raises(ValueError, match="Too many bins"):  # one value there
            np.histogram(res.bin_edges[3:4], bins=6)

    @pytest.mark.parametrize("dt", [1.0, None], ids=["rk4", "dopri"])
    def test_proposals_that_are_not_finite_abort(self, dt):
        # The guidance velocity overflows with no nodal flag, so every
        # proposed position is NaN: each line aborts at its start rather
        # than completing at NaN.
        params, slits = PhysParams(hbar=1e100, mass=1e-8), [SlitSpec(center=0.0, sigma0=1e100)]
        with np.errstate(all="ignore"):
            res = ensemble(params, slits, ONE, 1.0, 2.0, 8, dt=dt)
            x0 = quantile_initial(params, slits, ONE, 1.0, 8)
            _, paths, abort_steps = streamlines(params, slits, ONE, x0, 1.0, 2.0, dt)
        assert res.n_aborted == 8
        assert np.isfinite(paths).all() and list(abort_steps) == [0] * 8

    def test_lone_survivor_keeps_numpy_range(self):
        res = ensemble(P, SINGLE, ONE, 1e-3, 1.0, 1, dt=0.05, bins=4)
        x = res.bin_edges[0] + 0.5
        assert res.counts.sum() == 1
        assert np.array_equal(res.bin_edges, np.histogram([x], bins=4)[1])

    def test_no_survivors_histogram_on_the_unit_interval(self):
        # a floor of twice the in-phase bound flags every start nodal
        res = ensemble(P, SYMMETRIC, BOTH, 1e-3, 1.0, 50, bins=7, node_floor=2.0)
        assert res.n_aborted == 50
        assert res.counts.dtype == np.int64 and np.array_equal(res.counts, np.zeros(7))
        assert res.bin_edges.tobytes() == np.linspace(0.0, 1.0, 8).tobytes()

    def test_seed_changes_histogram(self):
        a = ensemble(P, SINGLE, ONE, 1e-3, 1.0, 400, dt=0.05, bins=30, seed=0)
        b = ensemble(P, SINGLE, ONE, 1e-3, 1.0, 400, dt=0.05, bins=30, seed=1)
        assert not np.array_equal(a.counts, b.counts)


# The controlled path's defaults: the CLI trajectory window and the
# fixed step it replaces.
T0, T1 = 1e-3, 2.0
FLOOR_DT = (T1 - T0) / 2000

# Packets launched at each other: their overlap sweeps fringes through
# the bundle, which the error controller has to catch.
COLLIDING = [SlitSpec(center=-3.0, drift=1.0), SlitSpec(center=3.0, drift=-1.0)]


@pytest.fixture(scope="module")
def controlled_default():
    return ensemble(P, SYMMETRIC, BOTH, T0, T1, 2000, seed=0)


class TestControlledStepping:
    def test_ensemble_matches_fixed_floor_step(self, controlled_default):
        fixed = ensemble(P, SYMMETRIC, BOTH, T0, T1, 2000, dt=FLOOR_DT, seed=0)
        assert fixed.n_steps == 2000 and fixed.n_rejected == 0
        assert np.array_equal(controlled_default.counts, fixed.counts)
        assert np.allclose(controlled_default.bin_edges, fixed.bin_edges, rtol=0.0, atol=1e-9)
        assert controlled_default.n_aborted == fixed.n_aborted == 0
        assert controlled_default.n_crossing_violations == 0

    def test_repeat_runs_are_bit_identical(self, controlled_default):
        again = ensemble(P, SYMMETRIC, BOTH, T0, T1, 2000, seed=0)
        assert np.array_equal(controlled_default.counts, again.counts)
        assert np.array_equal(controlled_default.bin_edges, again.bin_edges)
        assert (controlled_default.n_steps, controlled_default.n_rejected) == (
            again.n_steps,
            again.n_rejected,
        )

    def test_default_config_takes_at_most_100_steps(self):
        res = ensemble(P, SYMMETRIC, BOTH, T0, T1, 10000, seed=0)
        assert 0 < res.n_steps <= 100
        assert res.n_aborted == 0 and res.n_crossing_violations == 0

    def test_single_packet_streamline_follows_closed_form(self):
        x0, t0 = 1.3, 0.2
        tr = integrate(P, SINGLE, ONE, x0, t0, 2.0)
        assert tr.terminated is Termination.COMPLETED
        assert 2 < len(tr.samples) < 2000
        assert tr.samples[0] == (t0, x0) and tr.samples[-1][0] == 2.0
        ts = [t for t, _ in tr.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        s0 = sigma_t(P, SINGLE[0], t0)
        for t, x in tr.samples:
            assert abs(x - x0 * sigma_t(P, SINGLE[0], t) / s0) <= 1e-9

    def test_start_on_node_aborts_and_neighbours_complete(self):
        tr = integrate(P, NODED, BOTH, 0.0, 0.5, 2.0)
        assert tr.terminated is Termination.NODAL_ABORT
        assert tr.samples == [(0.5, 0.0)]
        times, paths, abort_steps = streamlines(P, NODED, BOTH, [-0.5, 0.0, 0.5], 0.5, 2.0)
        assert list(abort_steps) == [-1, 0, -1]
        assert np.all(paths[:, 1] == 0.0)
        assert times[-1] == 2.0
        assert paths[-1, 0] < 0.0 < paths[-1, 2]

    def test_colliding_packets_force_rejections(self):
        res = ensemble(P, COLLIDING, BOTH, T0, 4.0, 50, seed=0)
        assert res.n_rejected > 0
        assert res.n_aborted == 0 and res.n_crossing_violations == 0
        assert res.n_steps < 2000

    def test_stage_in_a_node_rejects_instead_of_aborting(self, monkeypatch):
        # A fake node region below the exact single-packet path after
        # t = 1: the path never enters it, but the stages of a large
        # step undershoot the convex path by more than 1e-5.
        plain = trajectories._bundle(P, SINGLE, ONE, [1.0], 0.0, 2.0, None, 1e-12)
        velocity = trajectories._velocity

        def walled(params, slits, mask, x, t, node_floor, ws):
            v, nodal = velocity(params, slits, mask, x, t, node_floor, ws)
            exact = sigma_t(P, SINGLE[0], t) / sigma_t(P, SINGLE[0], 0.0)
            return v, nodal | ((t > 1.0) & (x < exact - 1e-5))

        monkeypatch.setattr(trajectories, "_velocity", walled)
        fixed = integrate(P, SINGLE, ONE, 1.0, 0.0, 2.0, dt=0.1)
        assert fixed.terminated is Termination.NODAL_ABORT
        res = trajectories._bundle(P, SINGLE, ONE, [1.0], 0.0, 2.0, None, 1e-12)
        assert res.abort_step[0] < 0
        assert res.n_rejected > plain.n_rejected
        assert abs(res.x_final[0] - np.sqrt(2.0)) <= 1e-9

    @pytest.mark.parametrize("dt", [0.05, None], ids=["rk4", "dopri"])
    def test_stage_evaluations_have_a_closed_form(self, monkeypatch, dt):
        # One setup evaluation, then 4 stages per RK4 step and 6 per
        # proposed Dormand-Prince step, accepted or rejected.
        calls = 0
        velocity = trajectories._velocity

        def counted(*args):
            nonlocal calls
            calls += 1
            return velocity(*args)

        monkeypatch.setattr(trajectories, "_velocity", counted)
        res = ensemble(P, SYMMETRIC, BOTH, T0, T1, 50, dt=dt, seed=0)
        per_step = 4 if dt is not None else 6
        assert calls == 1 + per_step * (res.n_steps + res.n_rejected)
        assert res.n_steps > 0 and (res.n_rejected > 0) == (dt is None)

    @pytest.mark.parametrize(("t0", "t1"), [(0.0, 2.0), (1.0, 1.0 + 1e-12)], ids=["fill", "grow"])
    def test_floor_step_recording_matches_unrecorded_run(self, monkeypatch, t0, t1):
        # With no error tolerance every step is a floor step: 2001 of them,
        # 2002 rows, which the recording reaches by doubling.  Where the
        # floor step is about 2 ulps of t, t + h rounds short and the steps
        # outnumber them.  A smooth stand-in field keeps them cheap.
        def wavy(params, slits, mask, x, t, node_floor, ws):
            return np.sin(x + 3.0 * t), np.zeros(x.shape, dtype=bool)

        monkeypatch.setattr(trajectories, "_velocity", wavy)
        monkeypatch.setattr(trajectories, "_STEP_TOL", 0.0)
        x0 = np.array([-1.0, 0.5, 2.0])
        rec = trajectories._bundle(P, SINGLE, ONE, x0, t0, t1, None, 1e-12, record=True)
        # an unrecorded run's positions after every accepted step
        seen = [x0]
        crossings = trajectories._crossings
        monkeypatch.setattr(
            trajectories, "_crossings", lambda x: seen.append(x.copy()) or crossings(x)
        )
        plain = trajectories._bundle(P, SINGLE, ONE, x0, t0, t1, None, 1e-12)
        rows = plain.times.size
        assert rows == 2002 if t0 == 0.0 else rows > 2002
        assert rec.paths.shape == (rows, 3)
        assert np.array_equal(rec.paths, np.stack(seen))
        assert np.array_equal(rec.x_final, plain.x_final)
        assert np.array_equal(rec.times, plain.times)


def test_recording_holds_the_rows_it_records(monkeypatch):
    # A controlled recording starts small and doubles, so its memory
    # follows the rows it records, not the 2002 rows of a floor-step
    # run.  A smooth stand-in field keeps it cheap.
    def wavy(params, slits, mask, x, t, node_floor, ws):
        return np.sin(x + 3.0 * t), np.zeros(x.shape, dtype=bool)

    monkeypatch.setattr(trajectories, "_velocity", wavy)
    x0 = np.linspace(-3.0, 3.0, 1000)
    tracemalloc.start()
    try:
        times, paths, _ = streamlines(P, SINGLE, ONE, x0, 0.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.size < 100 and paths.shape == (times.size, x0.size)
    # while it doubles, old and new rows peak at 3 per recorded row; the
    # first 64 rows and the workspace fit in 100 rows' worth
    assert peak <= 8 * x0.size * (3 * times.size + 100), peak


@pytest.mark.parametrize("dt", [None, 0.02], ids=["dopri", "rk4"])
def test_no_nodal_velocity_is_committed(monkeypatch, dt):
    # Colliding packets under a coarse floor: 16 of 500 lines abort, 2
    # on a node at the start and 14 mid-run, over 777 controlled or 200
    # RK4 steps.  _velocity leaves the nodal velocities NaN; mapping them
    # to 0 must move no time, position or abort.
    floor = 0.01
    x0 = quantile_initial(P, COLLIDING, BOTH, T0, 500)
    velocity = trajectories._velocity
    v, nodal = velocity(P, COLLIDING, BOTH, x0, T0, floor, _workspace(x0.shape, 2))
    assert np.count_nonzero(nodal) == 2
    assert np.isnan(v[nodal]).all() and np.isfinite(v[~nodal]).all()
    nan_run = streamlines(P, COLLIDING, BOTH, x0, T0, 4.0, dt, floor)

    def zeroed(*args):
        v, nodal = velocity(*args)
        return np.where(nodal, 0.0, v), nodal

    monkeypatch.setattr(trajectories, "_velocity", zeroed)
    zero_run = streamlines(P, COLLIDING, BOTH, x0, T0, 4.0, dt, floor)
    times, paths, abort_steps = nan_run
    assert times.size - 1 == (777 if dt is None else 200)
    assert np.count_nonzero(abort_steps >= 0) == 16 and np.count_nonzero(abort_steps > 0) == 14
    for a, b in zip(nan_run, zero_run):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
