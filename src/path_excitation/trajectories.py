"""Streamline integration and Born-rule equivariance harness.

Trajectories follow the emergent guidance field, dx/dt = v_tot(x, t).
One loop steps whole bundles of trajectories that share one step
sequence; single-trajectory calls wrap a bundle of one.

With dt=None (the default) the loop proposes Dormand-Prince 5(4) steps
with first-same-as-last reuse of the final stage (Hairer, Norsett &
Wanner, Solving ODEs I, II.4-5).  One step size serves the whole bundle:
a step is accepted when the largest |x5 - x4| over live trajectories is
at most _STEP_TOL, and the standard controller picks the next size.  A
stage landing below the nodal floor rejects the step and halves it, down
to the floor step (t1 - t0)/2000; at that size every step is accepted.
An explicit dt proposes classic fourth-order Runge-Kutta steps on a
fixed schedule instead, the case with no error estimate and no
rejection, and the step count is capped at _MAX_STEPS.  In both modes a
trajectory whose accepted step met a nodal stage or proposed a position
that is not finite, or that starts on a node, aborts, frozen at its last
accepted position, rather than stepping across a node.

Each bundle owns one workspace, sized to it and to the open slits:
every stage writes its packet evaluations, pairwise sums and stage
positions into it, so stepping allocates nothing per stage.  Stage i of
a step leaves its guidance velocity and nodal flags in stage workspace
i, one per Dormand-Prince stage.  The public field functions run the
same kernels, each call in a workspace of its own, so the bits are
theirs.

Ensembles sample initial positions from the normalized t0 intensity by
inverse-CDF lookup on a tabulated grid, integrate the position-sorted
ensemble as one bundle, and histogram the endpoints.  Adjacent sorted
pairs feed the no-crossing count at every accepted step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DegenerateDensity
from .field import (
    DEFAULT_NODE_FLOOR,
    SlitMask,
    _field,
    _open_evals,
    _pairwise,
    _workspace,
    open_evals,
    peak_bound,
)
from .packet import _WINDOW_WIDTHS, PhysParams, SlitSpec, _check_count, sigma_t

__all__ = [
    "Termination",
    "Trajectory",
    "EnsembleResult",
    "sample_initial",
    "quantile_initial",
    "integrate",
    "streamlines",
    "ensemble",
]

CROSSING_TOL = 1e-9
_SAMPLER_POINTS = 8192
_FLOOR_STEPS = 2000  # the floor step of the controlled path is (t1 - t0)/2000
_MAX_STEPS = 100_000  # an explicit dt may take at most this many steps
_STEP_TOL = 1e-10  # accepted |x5 - x4|, absolute, worst live trajectory
_RECORD_ROWS = 64  # rows a controlled recording starts with; it doubles when full

# Dormand-Prince 5(4): nodes, stage matrix rows for stages 2..7, and the
# error weights b5 - b4.  Row 7 is b5, so stage 7 sits at the new point.
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_DP_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


class Termination(Enum):
    COMPLETED = "completed"
    NODAL_ABORT = "nodal_abort"


@dataclass(frozen=True)
class Trajectory:
    """One streamline as ordered (t, x) samples."""

    samples: list[tuple[float, float]]
    terminated: Termination


@dataclass(frozen=True)
class EnsembleResult:
    """Endpoint histogram of an integrated ensemble.

    counts covers completed trajectories only and sums to
    n_trajectories - n_aborted, where n_aborted counts the trajectories
    that started on a node or whose step met a stage that was nodal or
    not finite.  n_crossing_violations counts adjacent
    sorted pairs that swapped order by more than the crossing tolerance
    at any accepted step; the flow is order-preserving, so anything
    above zero indicates too coarse a step.  n_steps counts accepted
    steps and n_rejected rejected ones (always 0 for an explicit dt).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_trajectories: int
    n_aborted: int
    seed: int
    n_crossing_violations: int
    n_steps: int
    n_rejected: int


def _time_steps(t0: float, t1: float, dt: float) -> np.ndarray:
    """Step targets t0 < ... < t1 at spacing dt, landing exactly on t1.

    A window shorter than one step still gets the one step t0 -> t1.
    Where dt is below the spacing of the doubles near t0, targets that
    round to one value are kept once, so no step has length zero.
    """
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-12))
    rem = span - n_full * dt
    times = t0 + dt * np.arange(n_full + 1)
    if rem > 1e-9 * dt or n_full == 0:
        times = np.append(times, t1)
    times[-1] = t1
    return np.unique(times)


def _resolve_dt(t0, t1, dt) -> float | None:
    """Check the window t1 > t0 >= 0 with t1 finite, then an explicit dt.

    dt=None passes through and selects error-controlled stepping, so a
    config parser can check the window before it reads dt.  An explicit
    dt must be positive, finite and take at most _MAX_STEPS steps, so no
    record buffer is sized from an unbounded step count.  A violated
    invariant raises ValueError.
    """
    if not (t1 > t0 >= 0.0):
        raise ValueError("t1 > t0 >= 0 violated")
    if t1 == np.inf:
        raise ValueError("t1 is not finite")
    if dt is None:
        return None
    dt = float(dt)
    if not dt > 0.0:
        raise ValueError("dt > 0 violated")
    if dt == np.inf:
        raise ValueError("dt is not finite")
    if (t1 - t0) / dt > _MAX_STEPS:
        raise ValueError(f"dt = {dt!r} needs more than {_MAX_STEPS} steps over t1 - t0 = {t1 - t0!r}")
    return dt


def _velocity(params, slits, mask, x, t, node_floor, ws):
    """Guidance velocity and nodal flags at array positions x, time t.

    The nodal reference is the analytic in-phase peak bound at time t.
    Nodal entries come back NaN, as _guidance leaves them; _bundle
    freezes every trajectory whose step met a nodal stage and reads
    live trajectories only, so it never commits one.  An empty mask
    has peak bound 0, so every entry is nodal.  Every array is written
    into ws, a field._Workspace sized to x and the open slits, and
    (v, nodal) are ws.v and ws.nodal.
    """
    evals = _open_evals(params, slits, mask, x, t, ws)
    fs = _field(evals, node_floor, peak_bound(params, slits, mask, t), ws)
    return fs.v_tot, fs.nodal


@dataclass
class _BundleResult:
    times: np.ndarray
    x_final: np.ndarray
    abort_step: np.ndarray
    n_violations: int
    paths: np.ndarray | None
    n_rejected: int


def _crossings(x: np.ndarray) -> int:
    return int(np.count_nonzero(np.diff(x) < -CROSSING_TOL))


def _combine(coeffs, ks, acc, tmp) -> np.ndarray:
    """sum(c * k for c, k in zip(coeffs, ks) if c), written into acc through tmp.

    The sum runs in sum()'s order from sum()'s start 0, so a -0.0
    total comes out +0.0 as it does from sum().
    """
    acc.fill(0.0)
    for c, k in zip(coeffs, ks):
        if c:
            np.multiply(c, k, out=tmp)
            acc += tmp
    return acc


def _bundle(params, slits, mask, x0, t0, t1, dt, node_floor, record=False) -> _BundleResult:
    """Step a bundle from t0 to t1: RK4 for an explicit dt, Dormand-Prince for None.

    The modes differ only in how they propose a step; the setup, the
    accepted-step rule and the recording are shared.  With record, paths
    holds one (len(times), x.size) row per accepted sample.

    The bundle owns one workspace: every stage evaluates the field into
    the shared buffers of field._Workspace, stage i of a step leaves its
    (v, nodal) in pool[i], and the step sums are written in place, so a
    stage allocates no array.  The sums run in the order of the
    expressions in their comments, operation for operation.
    """
    x = np.array(x0, dtype=float)
    shared = _workspace(x.size, len(mask.select(slits)))
    # One stage workspace per DP stage; RK4 uses the first four.  An accepted
    # DP step rotates k7's to the front, as the next step's k1.
    pool = [shared] + [
        replace(shared, v=np.empty(x.size), nodal=np.empty(x.size, dtype=bool)) for _ in _DP_C
    ]
    x_new = np.empty(x.size)
    acc, tmp = shared.scratch[:2]  # the step sums run between stages, when scratch is free
    hit, live = np.empty(x.size, dtype=bool), np.empty(x.size, dtype=bool)

    def velocity(x, t, i):
        return _velocity(params, slits, mask, x, t, node_floor, pool[i])

    def stage(scale, k):  # x + scale * k
        np.multiply(scale, k, out=tmp)
        return np.add(x, tmp, out=x_new)

    targets = None if dt is None else _time_steps(t0, t1, dt)
    times = [t0 if targets is None else targets[0]]  # the schedule spells -0.0 as 0.0
    k1, nodal = velocity(x, times[0], 0)
    # A start on a node cannot be helped by a smaller step.
    alive = ~nodal
    abort_step = np.where(nodal, 0, -1)
    paths = None
    if record:  # filled in place: a list plus np.stack would double the peak
        paths = np.empty((_RECORD_ROWS if targets is None else targets.size, x.size))
        paths[0] = x
    n_viol = n_rejected = 0
    h_floor = (t1 - t0) / _FLOOR_STEPS
    t, h = times[0], h_floor
    while t < t1:
        if targets is not None:
            k1, nodal = velocity(x, t, 0)
            t_new = targets[len(times)]
            h = t_new - t
            k2, n2 = velocity(stage(0.5 * h, k1), t + 0.5 * h, 1)
            k3, n3 = velocity(stage(0.5 * h, k2), t + 0.5 * h, 2)
            k4, n4 = velocity(stage(h, k3), t + h, 3)
            # x + (h / 6) (k1 + 2 k2 + 2 k3 + k4)
            np.multiply(2.0, k2, out=tmp)
            np.add(k1, tmp, out=acc)
            np.multiply(2.0, k3, out=tmp)
            acc += tmp
            acc += k4
            stage(h / 6.0, acc)
            np.logical_or(nodal, n2, out=hit)
            hit |= n3
            hit |= n4
            hit |= ~np.isfinite(x_new)
            hit &= alive
        else:
            h = max(h, h_floor)
            t_new = t + h
            if t_new >= t1:
                h, t_new = t1 - t, t1
            ks = [k1]
            hit.fill(False)
            for i, (c, row) in enumerate(zip(_DP_C, _DP_A), start=1):
                # x + h * sum(a * k for a, k in zip(row, ks) if a); stage 7 is x5
                x_stage = stage(h, _combine(row, ks, acc, tmp))
                k, n = velocity(x_stage, t + c * h if c < 1.0 else t_new, i)
                ks.append(k)
                hit |= n
            # x_new is x5: every stage but k7 reaches it, and k7 is the next k1
            hit |= ~np.isfinite(x_new)
            hit &= alive
            dx = np.multiply(h, _combine(_DP_E, ks, acc, tmp), out=acc)
            np.logical_not(hit, out=live)
            live &= alive
            err = float(np.max(np.abs(dx, out=dx), where=live, initial=0.0))
            grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (_STEP_TOL / err) ** 0.2))
            if h > h_floor and (hit.any() or err > _STEP_TOL):
                n_rejected += 1
                h = 0.5 * h if hit.any() else h * grow
                continue
            k1 = k  # first same as last: its nodal flags are in hit
            pool.insert(0, pool.pop())
            h *= grow
        abort_step[hit] = len(times) - 1  # the last accepted sample
        alive &= np.logical_not(hit, out=live)
        np.copyto(x, x_new, where=alive)
        t = t_new
        times.append(t)
        n_viol += _crossings(x)
        if record:
            if len(times) > len(paths):  # full: double it; old and new rows peak at 3x the old
                grown = np.empty((2 * len(paths), x.size))
                grown[:len(paths)] = paths
                paths = grown
            paths[len(times) - 1] = x

    return _BundleResult(
        times=np.array(times),
        x_final=x,
        abort_step=abort_step,
        n_violations=n_viol,
        paths=paths[:len(times)] if record else None,
        n_rejected=n_rejected,
    )


def _quantiles(params, slits, mask, t0, u):
    """Positions at quantiles u of the normalized t0 intensity.

    Inverse-CDF lookup, linear between the points of the fixed sampler
    grid.  The grid spans _WINDOW_WIDTHS maximal widths beyond the
    outermost packet centers, the window packet._check_domain probes;
    trapezoids integrate the density.  A total intensity that is not
    finite, or numerically zero, raises DegenerateDensity.
    """
    open_slits = mask.select(slits)
    if not open_slits:
        raise DegenerateDensity("empty mask carries no intensity to sample")
    centers = [s.center + s.drift * t0 for s in open_slits]
    width = max(sigma_t(params, s, t0) for s in open_slits)
    lo = min(centers) - _WINDOW_WIDTHS * width
    hi = max(centers) + _WINDOW_WIDTHS * width
    xs = np.linspace(lo, hi, _SAMPLER_POINTS)
    p = _pairwise(open_evals(params, slits, mask, xs, t0), _workspace(xs.shape, 0))[0]
    dx = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * dx)])
    total = cdf[-1]
    if not np.isfinite(total):
        raise DegenerateDensity(f"total integrated intensity {total:g} is not finite")
    if total < 1e-300:
        raise DegenerateDensity(f"total integrated intensity {total:g} is numerically zero")
    return np.interp(u, cdf / total, xs)


def sample_initial(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    t0: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Draw n positions from the normalized intensity at t0.

    Inverse-CDF lookup with linear interpolation against uniform draws
    from a seeded generator.  Output order is draw order, so sample i
    depends only on (seed, i).
    """
    _check_count(n, "n")
    return _quantiles(params, slits, mask, t0, np.random.default_rng(seed).random(n))


def quantile_initial(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    t0: float,
    n: int,
) -> np.ndarray:
    """Deterministic mid-quantile start positions at t0.

    Position k sits at the (k + 1/2)/n quantile of the intensity, so a
    small n spreads representative streamlines across the ensemble
    without any randomness.
    """
    _check_count(n, "n")
    return _quantiles(params, slits, mask, t0, (np.arange(n) + 0.5) / n)


def integrate(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    x0: float,
    t0: float,
    t1: float,
    dt: float | None = None,
    node_floor: float = DEFAULT_NODE_FLOOR,
) -> Trajectory:
    """Integrate one streamline from (x0, t0) to t1.

    dt=None steps under error control; an explicit dt steps with fixed
    RK4.  On a stage that is nodal or not finite the trajectory
    terminates with NodalAbort and the samples stop at the last accepted
    step.
    """
    times, paths, abort_steps = streamlines(params, slits, mask, [x0], t0, t1, dt, node_floor)
    last = int(abort_steps[0]) if abort_steps[0] >= 0 else times.size - 1
    samples = [(float(times[k]), float(paths[k, 0])) for k in range(last + 1)]
    end = Termination.NODAL_ABORT if abort_steps[0] >= 0 else Termination.COMPLETED
    return Trajectory(samples=samples, terminated=end)


def streamlines(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    x0s,
    t0: float,
    t1: float,
    dt: float | None = None,
    node_floor: float = DEFAULT_NODE_FLOOR,
):
    """Integrate a bundle of start positions with full path recording.

    x0s is a scalar or a 1-d array; more dimensions raise ValueError.
    Returns (times, paths, abort_steps): paths has shape (times.size,
    x0s.size) in both step modes and abort_steps shape (x0s.size,), a
    scalar start counting as one, and paths[k, i] is position i at
    times[k], one row per accepted step; abort_steps[i] is the index of
    the last accepted sample of an aborted line, or -1 for a completed
    one.  Positions after the abort index repeat the frozen value.  A
    start that is not finite raises ValueError: a NaN start's step error
    is NaN, which no tolerance rejects.
    """
    dt = _resolve_dt(t0, t1, dt)
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    if x0s.ndim > 1:
        raise ValueError("x0s must be a scalar or a 1-d array")
    if not np.isfinite(x0s).all():
        raise ValueError("x0s must be finite")
    res = _bundle(params, slits, mask, x0s, t0, t1, dt, node_floor, record=True)
    return res.times, res.paths, res.abort_step


def ensemble(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    t0: float,
    t1: float,
    n: int,
    dt: float | None = None,
    bins: int = 100,
    seed: int = 0,
    node_floor: float = DEFAULT_NODE_FLOOR,
) -> EnsembleResult:
    """Sample, integrate, and histogram an n-trajectory ensemble.

    Positions are sorted and integrated as one bundle, so a controlled
    step is chosen from the worst error over the whole ensemble and
    adjacent pairs feed the no-crossing count.  Aborted trajectories
    are excluded from the histogram but reported.
    """
    dt = _resolve_dt(t0, t1, dt)
    _check_count(bins, "bins")
    x0 = np.sort(sample_initial(params, slits, mask, t0, n, seed))
    res = _bundle(params, slits, mask, x0, t0, t1, dt, node_floor)
    survivors = res.x_final[res.abort_step < 0]
    try:  # no survivors histogram as zero counts on linspace(0, 1, bins + 1)
        counts, edges = np.histogram(survivors, bins=bins)
    except ValueError:  # too many bins where numpy's range has no room for them
        pad = bins * np.spacing(np.abs(survivors).max())  # bins >= 2 ulps wide
        lo, hi = survivors.min() - pad, survivors.max() + pad
        counts, edges = np.histogram(survivors, bins=bins, range=(lo, hi))
    return EnsembleResult(
        bin_edges=edges,
        counts=counts,
        n_trajectories=n,
        n_aborted=int(np.count_nonzero(res.abort_step >= 0)),
        seed=seed,
        n_crossing_violations=res.n_violations,
        n_steps=res.times.size - 1,
        n_rejected=res.n_rejected,
    )
