"""Streamline integration and Born-rule equivariance harness.

Trajectories follow the emergent guidance field, dx/dt = v_tot(x, t),
under classic fixed-step fourth-order Runge-Kutta.  The integrator is
vectorized over whole bundles of trajectories sharing one time grid;
single-trajectory calls wrap a bundle of one.  A stage evaluation that
lands below the nodal floor aborts that trajectory (frozen at its last
accepted position) rather than stepping across a node.

Ensembles sample initial positions from the normalized t0 intensity by
inverse-CDF lookup on a tabulated grid, integrate every trajectory, and
histogram the endpoints.  Bundles are split into contiguous chunks of
the position-sorted ensemble and run on a thread pool; chunk boundaries
exchange edge paths so the no-crossing count covers adjacent pairs
across chunks.  All arithmetic is elementwise, so results are
bit-identical for any worker count.  PATH_EXCITATION_THREADS caps the
pool size; a value that is not an integer raises ValidationError.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import DEFAULT_NODE_FLOOR
from .errors import DegenerateDensity, ValidationError
from .field import SlitMask, intensity, open_evals, pairwise_field, peak_bound
from .packet import PhysParams, SlitSpec, sigma_t

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
_MIN_CHUNK = 4096


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
    n_trajectories - n_aborted.  n_crossing_violations counts adjacent
    sorted pairs that swapped order by more than the crossing tolerance
    at any stored step; the flow is order-preserving, so anything above
    zero indicates too coarse a step.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    n_trajectories: int
    n_aborted: int
    seed: int
    n_crossing_violations: int


def _time_steps(t0: float, t1: float, dt: float) -> np.ndarray:
    """Step targets t0 < ... < t1 at spacing dt, landing exactly on t1."""
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-12))
    rem = span - n_full * dt
    times = t0 + dt * np.arange(n_full + 1)
    if rem > 1e-9 * dt:
        times = np.append(times, t1)
    times[-1] = t1
    return times


def _resolve_dt(t0, t1, dt, number=float, error=ValueError) -> float:
    """Check the window t1 > t0 >= 0, then resolve dt (default (t1 - t0)/2000).

    number converts an explicit dt and error is raised for a violated
    invariant, so a config parser can keep its own error types while
    the window is still checked before dt is even read.
    """
    if not (t1 > t0 >= 0.0):
        raise error("t1 > t0 >= 0 violated")
    dt = (t1 - t0) / 2000.0 if dt is None else number(dt)
    if not dt > 0.0:
        raise error("dt > 0 violated")
    return dt


def _velocity(params, slits, mask, x, t, node_floor):
    """Guidance velocity and nodal flags at array positions x, time t.

    The nodal reference is the analytic in-phase peak bound at time t;
    nodal entries come back with velocity 0 so positions stay finite,
    and the flag tells the caller to abort those elements.
    """
    evals = open_evals(params, slits, mask, x, t)
    ref = peak_bound(params, slits, mask, t)
    fs = pairwise_field(evals, node_floor=node_floor, peak=ref)
    v = np.where(fs.nodal, 0.0, fs.v_tot)
    return v, fs.nodal


@dataclass
class _BundleResult:
    times: np.ndarray
    x_final: np.ndarray
    aborted: np.ndarray
    abort_step: np.ndarray
    n_violations: int
    paths: np.ndarray | None
    edge_first: np.ndarray
    edge_last: np.ndarray


def _rk4_bundle(
    params,
    slits,
    mask,
    x0,
    t0,
    t1,
    dt,
    node_floor,
    record: bool = False,
    crossing_tol: float | None = None,
) -> _BundleResult:
    times = _time_steps(t0, t1, dt)
    x = np.asarray(x0, dtype=float).copy()
    alive = np.ones(x.shape, dtype=bool)
    abort_step = np.full(x.shape, -1, dtype=int)
    n_viol = 0
    paths = np.empty((times.size, x.size)) if record else None
    if record:
        paths[0] = x
    edges = np.empty((times.size, 2))
    edges[0] = x[0], x[-1]

    for k in range(times.size - 1):
        t = times[k]
        h = times[k + 1] - t
        v1, n1 = _velocity(params, slits, mask, x, t, node_floor)
        v2, n2 = _velocity(params, slits, mask, x + 0.5 * h * v1, t + 0.5 * h, node_floor)
        v3, n3 = _velocity(params, slits, mask, x + 0.5 * h * v2, t + 0.5 * h, node_floor)
        v4, n4 = _velocity(params, slits, mask, x + h * v3, t + h, node_floor)
        hit_node = n1 | n2 | n3 | n4
        newly = alive & hit_node
        abort_step[newly] = k  # x[k] stays the last accepted position
        alive = alive & ~hit_node
        step = (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        x = np.where(alive, x + step, x)
        if crossing_tol is not None and x.size > 1:
            n_viol += int(np.count_nonzero(np.diff(x) < -crossing_tol))
        if record:
            paths[k + 1] = x
        edges[k + 1] = x[0], x[-1]

    aborted = ~alive
    return _BundleResult(
        times=times,
        x_final=x,
        aborted=aborted,
        abort_step=abort_step,
        n_violations=n_viol,
        paths=paths,
        edge_first=edges[:, 0],
        edge_last=edges[:, 1],
    )


def _tabulated_cdf(params, slits, mask, t0):
    """Normalized CDF of the t0 intensity on the fixed sampler grid.

    The grid spans 10 maximal widths beyond the outermost packet
    centers; trapezoids integrate the density.
    """
    mask.check_against(len(slits))
    idx = mask.indices()
    if not idx:
        raise DegenerateDensity("empty mask carries no intensity to sample")
    centers = [slits[i].center + slits[i].drift * t0 for i in idx]
    width = max(sigma_t(params, slits[i], t0) for i in idx)
    lo = min(centers) - 10.0 * width
    hi = max(centers) + 10.0 * width
    xs = np.linspace(lo, hi, _SAMPLER_POINTS)
    p = intensity(open_evals(params, slits, mask, xs, t0))
    dx = xs[1] - xs[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * dx)])
    total = cdf[-1]
    if total < 1e-300:
        raise DegenerateDensity(f"total integrated intensity {total:g} is numerically zero")
    return xs, cdf / total


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
    if n < 1:
        raise ValueError("n >= 1 violated")
    xs, cdf = _tabulated_cdf(params, slits, mask, t0)
    u = np.random.default_rng(seed).random(n)
    return np.interp(u, cdf, xs)


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
    if n < 1:
        raise ValueError("n >= 1 violated")
    xs, cdf = _tabulated_cdf(params, slits, mask, t0)
    u = (np.arange(n) + 0.5) / n
    return np.interp(u, cdf, xs)


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

    dt defaults to (t1 - t0) / 2000.  On a nodal stage the trajectory
    terminates with NodalAbort and the samples stop at the last
    accepted step.
    """
    dt = _resolve_dt(t0, t1, dt)
    res = _rk4_bundle(
        params, slits, mask, np.array([x0]), t0, t1, dt, node_floor, record=True
    )
    path = res.paths[:, 0]
    if res.aborted[0]:
        last = int(res.abort_step[0])
        samples = [(float(res.times[k]), float(path[k])) for k in range(last + 1)]
        return Trajectory(samples=samples, terminated=Termination.NODAL_ABORT)
    samples = [(float(res.times[k]), float(path[k])) for k in range(res.times.size)]
    return Trajectory(samples=samples, terminated=Termination.COMPLETED)


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

    Returns (times, paths, abort_steps): paths[k, i] is position i at
    times[k]; abort_steps[i] is the index of the last accepted sample
    of an aborted line, or -1 for a completed one.  Positions after the
    abort index repeat the frozen value.
    """
    dt = _resolve_dt(t0, t1, dt)
    res = _rk4_bundle(
        params, slits, mask, np.asarray(x0s, dtype=float), t0, t1, dt, node_floor,
        record=True,
    )
    return res.times, res.paths, res.abort_step


def _worker_count(n_items: int) -> int:
    env = os.environ.get("PATH_EXCITATION_THREADS")
    try:
        cap = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise ValidationError(
            f"PATH_EXCITATION_THREADS: expected an integer, got {env!r}"
        ) from None
    by_size = max(1, n_items // _MIN_CHUNK)
    return max(1, min(cap, by_size))


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

    Positions are sorted before integration; adjacent pairs, including
    pairs straddling chunk boundaries, feed the no-crossing count.
    Aborted trajectories are excluded from the histogram but reported.
    """
    dt = _resolve_dt(t0, t1, dt)
    x0 = np.sort(sample_initial(params, slits, mask, t0, n, seed))

    workers = _worker_count(n)
    chunks = np.array_split(x0, workers)

    def run(chunk: np.ndarray) -> _BundleResult:
        return _rk4_bundle(
            params, slits, mask, chunk, t0, t1, dt, node_floor,
            record=False, crossing_tol=CROSSING_TOL,
        )

    if workers == 1:
        results = [run(x0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))

    n_viol = sum(r.n_violations for r in results)
    for a, b in zip(results[:-1], results[1:]):
        n_viol += int(np.count_nonzero(b.edge_first - a.edge_last < -CROSSING_TOL))

    endpoints = np.concatenate([r.x_final for r in results])
    aborted = np.concatenate([r.aborted for r in results])
    n_aborted = int(np.count_nonzero(aborted))
    survivors = endpoints[~aborted]
    if survivors.size:
        counts, edges = np.histogram(survivors, bins=bins)
    else:
        counts = np.zeros(bins, dtype=int)
        edges = np.linspace(0.0, 1.0, bins + 1)
    return EnsembleResult(
        bin_edges=edges,
        counts=counts,
        n_trajectories=n,
        n_aborted=n_aborted,
        seed=seed,
        n_crossing_violations=n_viol,
    )
