"""Closed-form pairwise assembly of the n-slit emergent field.

This is the fast production path.  Expanding the channel projections of
`channels` analytically collapses them into pairwise sums over slits,

    P_tot = sum_i R_i^2  +  sum_{i<j} 2 R_i R_j cos(phi_ij)
    J_tot = sum_i R_i^2 v_i
            + sum_{i<j} R_i R_j [ (v_i + v_j) cos(phi_ij)
                                  + (u_j - u_i) sin(phi_ij) ]

with phi_ij = theta_i - theta_j the signed relative phase.  The order
of the u difference against that phase sign is fixed by probability
continuity: the other pairing fails dP/dt + dJ/dx = 0 and the
complex-amplitude cross-check.  The cosines and sines come from
pairwise products of the unit phase carriers,

    cos(phi_ij) = c_i c_j + s_i s_j,    sin(phi_ij) = s_i c_j - c_i s_j,

so no unwrapped phase value is ever consumed.  The channel machinery in
`channels` stays available as a verification twin; the two paths agree
to rounding and the test suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import MismatchedPoint
from .packet import (
    PacketEval,
    PhysParams,
    SlitSpec,
    _check_count,
    _check_time,
    _floats,
    _packet,
    _unwrap,
    eval_packet,
    sigma_t,
)

__all__ = [
    "GridSpec",
    "SlitMask",
    "FieldSample",
    "open_evals",
    "intensity",
    "pairwise_field",
    "field_grid",
    "peak_bound",
]

DEFAULT_NODE_FLOOR = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Uniform evaluation grid at a single time."""

    x_min: float
    x_max: float
    n_points: int
    t: float

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("x_min < x_max violated")
        if not np.isfinite(self.x_max - self.x_min):  # an infinite bound spans inf
            raise ValueError("x_min and x_max must be finite, and so must x_max - x_min")
        _check_count(self.n_points, "n_points", 2)
        _check_time(self.t)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


@dataclass(frozen=True)
class SlitMask:
    """Subset of slit indices that are open.

    The empty mask is a defined degenerate case: zero intensity
    everywhere, every point nodal.  Indices are whole numbers (a bool
    is not one); a repeated index opens its slit once.
    """

    open: frozenset[int]

    def __init__(self, open) -> None:
        open = list(open)
        try:  # int() raises on None, inf and nan
            whole = all(
                not isinstance(i, (bool, np.bool_)) and int(i) == i and i >= 0 for i in open
            )
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError("mask indices must be non-negative whole numbers")
        object.__setattr__(self, "open", frozenset(map(int, open)))

    @classmethod
    def all_open(cls, n_slits: int) -> "SlitMask":
        return cls(range(n_slits))

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.open))

    def select(self, slits: list[SlitSpec]) -> list[SlitSpec]:
        """The open slits in ascending order; ValueError names the largest index out of range."""
        indices = self.indices()
        if indices and indices[-1] >= len(slits):
            raise ValueError(f"mask index {indices[-1]} out of range for {len(slits)} slits")
        return [slits[i] for i in indices]


@dataclass(frozen=True)
class FieldSample:
    """Assembled totals at one point (or elementwise over a grid).

    nodal and v_tot are as _guidance decides them: v_tot is NaN at
    nodal points and the guidance velocity elsewhere.
    """

    p_tot: np.ndarray
    j_tot: np.ndarray
    v_tot: np.ndarray
    nodal: np.ndarray


def _common_point(evals: list[PacketEval]) -> tuple[np.ndarray, float]:
    """(x, t) shared by evals; ValueError if empty, MismatchedPoint if not shared."""
    if not evals:
        raise ValueError("at least one packet evaluation is required")
    x0, t0 = evals[0].x, evals[0].t
    for j, ev in enumerate(evals[1:], start=1):
        if not (np.array_equal(ev.x, x0) and ev.t == t0):
            raise MismatchedPoint(f"evaluation {j} is not at the common (x, t)")
    return x0, t0


def _check_node_floor(node_floor: float) -> None:
    """The one node-floor rule: node_floor >= 0, since a negative or NaN floor flags no node."""
    if not node_floor >= 0.0:
        raise ValueError("node_floor >= 0 violated")


def _guidance(p, j, node_floor, peak, conv, ws=None) -> FieldSample:
    """The one nodal and guidance rule: FieldSample from totals p, j.

    A point is nodal when p < node_floor * peak, and every point is when
    the reference peak is not positive (NaN included): v = j / p needs
    density.  Nodal points get v = NaN.  conv holds the open slits'
    convective velocities; one slit carries no interference, so its own
    is returned verbatim at live points, otherwise v = j / p.  v and the
    nodal flags are written into ws.v and ws.nodal, or into fresh arrays
    without a workspace.
    """
    _check_node_floor(node_floor)
    fresh = ws is None
    if fresh:
        v, nodal = np.empty(np.shape(p)), np.empty(np.shape(p), dtype=bool)
    else:
        v, nodal = ws.v, ws.nodal
    if peak > 0.0:
        np.less(p, node_floor * peak, out=nodal)
    else:
        nodal.fill(True)
    some = nodal.any()
    if len(conv) == 1:
        np.copyto(v, conv[0])
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(j, p, out=v, where=~nodal if some else True)
    if some:
        np.copyto(v, np.nan, where=nodal)
    if fresh:
        v, nodal = _unwrap(v), _unwrap(nodal)
    return FieldSample(p_tot=p, j_tot=j, v_tot=v, nodal=nodal)


def open_evals(
    params: PhysParams, slits: list[SlitSpec], mask: SlitMask, x, t: float
) -> list[PacketEval]:
    """Evaluate the open slits at (x, t), in ascending slit order."""
    return [eval_packet(params, s, x, t) for s in mask.select(slits)]


_SCRATCH = 5  # the scratch arrays _pairwise, and before it _packet, write through


@dataclass(frozen=True)
class _Workspace:
    """Buffers that one evaluation of the field at n points writes into.

    packets[i] takes open slit i's five PacketEval arrays, scratch the
    temporaries of packet._packet and of _pairwise, p and j the totals,
    and v and nodal _guidance's output.  Stages that share packets,
    scratch, p and j but not v and nodal can keep each other's output.
    """

    packets: list[list[np.ndarray]]
    scratch: list[np.ndarray]
    p: np.ndarray
    j: np.ndarray
    v: np.ndarray
    nodal: np.ndarray


def _workspace(n: int, n_open: int) -> _Workspace:
    """An uninitialised _Workspace for n points and n_open open slits."""
    return _Workspace(
        packets=[_floats(n, 5) for _ in range(n_open)],
        scratch=_floats(n, _SCRATCH),
        p=np.empty(n),
        j=np.empty(n),
        v=np.empty(n),
        nodal=np.empty(n, dtype=bool),
    )


def _open_evals(params, slits, mask, x, t, ws) -> list[PacketEval]:
    """open_evals at a float array x and a checked t, written into ws.packets."""
    open_slits = mask.select(slits)
    return [_packet(params, s, x, t, out, ws.scratch) for s, out in zip(open_slits, ws.packets)]


def _pair_products(evals: list[PacketEval], scratch):
    """Per-pair products of the pairwise closed form, written into scratch.

    Yields, for i < k in combinations order (the closed form's summation
    order), (i, k, cross, cphi, sphi) with cross = R_i R_k and cphi,
    sphi the cosine and sine of phi_ik from the carriers' cos and sin.
    cross, cphi and sphi are scratch[:3], overwritten by the next pair,
    and scratch[3] is overwritten too.  The evaluations must share one
    (x, t), as open_evals builds them; nothing checks it.
    """
    cross, cphi, sphi, tmp = scratch[:4]
    for i, k in combinations(range(len(evals)), 2):
        a, b = evals[i], evals[k]
        np.multiply(a.cos, b.cos, out=cphi)
        np.multiply(a.sin, b.sin, out=tmp)
        cphi += tmp
        np.multiply(a.sin, b.cos, out=sphi)
        np.multiply(a.cos, b.sin, out=tmp)
        sphi -= tmp
        np.multiply(a.amplitude, b.amplitude, out=cross)
        yield i, k, cross, cphi, sphi


def _pairwise(evals: list[PacketEval], x, ws=None):
    """Pairwise-closed-form (P_tot, J_tot) of evals at x; fixed summation order.

    Both start from zeros shaped like x, so no evals sum to zeros.  The
    terms of P_tot are spelled as _subset_table spells them, which keeps
    its subset intensities bit-identical to this sum.  The totals are
    written into ws.p and ws.j, through ws.scratch, or into fresh arrays
    without a workspace.
    """
    fresh = ws is None
    if fresh:
        p, j, *scratch = _floats(np.shape(x), 2 + _SCRATCH)
    else:
        p, j, scratch = ws.p, ws.j, ws.scratch
    t1, t2 = scratch[3:5]
    p.fill(0.0)
    j.fill(0.0)
    for ev in evals:
        np.multiply(ev.amplitude, ev.amplitude, out=t1)  # R_i^2, shared by P and J
        p += t1
        t1 *= ev.conv_velocity
        j += t1
    for i, k, cross, cphi, sphi in _pair_products(evals, scratch):
        a, b = evals[i], evals[k]
        # P += 2 R_i R_k cos(phi_ik)
        np.multiply(2.0, cross, out=t1)
        t1 *= cphi
        p += t1
        # J += R_i R_k ((v_i + v_k) cos(phi_ik) + (u_k - u_i) sin(phi_ik))
        np.add(a.conv_velocity, b.conv_velocity, out=t1)
        t1 *= cphi
        np.subtract(b.diff_velocity, a.diff_velocity, out=t2)
        t2 *= sphi
        t1 += t2
        t1 *= cross
        j += t1
    return (_unwrap(p), _unwrap(j)) if fresh else (p, j)


def _subset_table(evals: list[PacketEval], x) -> dict[tuple[int, ...], np.ndarray]:
    """P_T at x for every non-empty subset T of evals, keyed by T's ascending positions.

    Entries run by subset size, then in combinations order.  Each square
    and each pair's fringe term is formed once, spelled as in _pairwise,
    and P_T sums the terms of T in _pairwise's order (squares, then pairs
    in combinations order) from zeros shaped like x, so each entry is
    bit-identical to _pairwise of T's evaluations.
    """
    squares = [np.multiply(ev.amplitude, ev.amplitude) for ev in evals]
    pairs = _pair_products(evals, _floats(np.shape(x), 4))
    fringes = {(i, k): 2.0 * cross * cphi for i, k, cross, cphi, _ in pairs}
    table = {}
    for size in range(1, len(evals) + 1):
        for sub in combinations(range(len(evals)), size):
            p = np.zeros(np.shape(x))
            for i in sub:
                np.add(p, squares[i], out=p)
            for pair in combinations(sub, 2):
                np.add(p, fringes[pair], out=p)
            table[sub] = p
    return table


def _field(evals: list[PacketEval], x, node_floor, peak, ws=None) -> FieldSample:
    """The one route from evaluations at x to a FieldSample: _pairwise totals under _guidance.

    With a workspace every array is written into it; without, they are fresh.
    """
    p, j = _pairwise(evals, x, ws)
    return _guidance(p, j, node_floor, peak, [ev.conv_velocity for ev in evals], ws)


def intensity(evals: list[PacketEval]) -> np.ndarray:
    """Total detection intensity P_tot; evals are checked as in pairwise_field."""
    return _pairwise(evals, _common_point(evals)[0])[0]


def pairwise_field(
    evals: list[PacketEval],
    node_floor: float = DEFAULT_NODE_FLOOR,
    peak: float = 1.0,
) -> FieldSample:
    """FieldSample from the pairwise closed form.

    Matches channels.assemble(build_channels(evals)) to rounding; the
    nodal reference peak is supplied by the caller (1.0 makes the floor
    absolute) and _guidance applies the rule.  The evals, at least one,
    must share one (x, t); _common_point checks it.
    """
    return _field(evals, _common_point(evals)[0], node_floor, peak)


def peak_bound(params: PhysParams, slits: list[SlitSpec], mask: SlitMask, t: float) -> float:
    """Analytic upper bound on P_tot at time t: all packets in phase.

    (sum_i a_i)^2 with a_i the peak envelope of open slit i.  Serves as
    the nodal reference when no grid maximum is available, e.g. during
    trajectory integration at arbitrary points.
    """
    total = 0.0
    for s in mask.select(slits):
        total += s.weight * (2.0 * np.pi * sigma_t(params, s, t) ** 2) ** -0.25
    return total * total


_BLOCK = 4096  # grid points evaluated together on the streamed grid path


def _grid_blocks(params, slits, mask, grid, node_floor):
    """The grid field block by block: (x, evals, sample) per block of grid.points().

    Consecutive blocks of _BLOCK points cover the grid in order.  evals
    are the open slits' evaluations at x and sample is their _field,
    with the grid maximum of P_tot as the nodal reference (not positive,
    and every point nodal, without density or with a NaN anywhere).
    Every operation is elementwise, so the blocks are bit-identical to
    one whole-grid evaluation.  The reference is taken by a first pass
    over every block before this returns; the returned generator
    evaluates each block again, so memory stays at the blocks.
    """
    _check_node_floor(node_floor)  # before the reference pass evaluates the whole grid
    xs = grid.points()
    blocks = [xs[start:start + _BLOCK] for start in range(0, xs.size, _BLOCK)]

    maxima = [np.max(_pairwise(open_evals(params, slits, mask, x, grid.t), x)[0]) for x in blocks]
    peak = float(np.max(maxima))  # np.max keeps a NaN wherever it occurs

    evals = (open_evals(params, slits, mask, x, grid.t) for x in blocks)
    return ((x, ev, _field(ev, x, node_floor, peak)) for x, ev in zip(blocks, evals))


def field_grid(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    grid: GridSpec,
    node_floor: float = DEFAULT_NODE_FLOOR,
) -> FieldSample:
    """Evaluate the field on the grid as one array-valued FieldSample.

    Entry k belongs to grid.points()[k].  The nodal reference is the
    maximum P_tot over this grid, so under _guidance's rule a grid with
    no positive density (an empty mask, or open slits of zero weight)
    is nodal at every point.
    """
    blocks = _grid_blocks(params, slits, mask, grid, node_floor)
    parts = [(fs.p_tot, fs.j_tot, fs.v_tot, fs.nodal) for _, _, fs in blocks]
    return FieldSample(*(np.concatenate(column) for column in zip(*parts)))
