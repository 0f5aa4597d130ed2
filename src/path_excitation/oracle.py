"""Independent quantum-mechanical reference for the emergent field.

Everything here works with complex amplitudes only: the superposed
profile Psi = sum_j psi_j, the probability density P = |Psi|^2, the
probability current J = (hbar/m) Im(Psi* dPsi/dx) built from analytic
per-packet derivatives, and the gradient-flow velocity J/P.  None of it
touches the channel or pairwise machinery, so agreement between the two
sides is a genuine cross-check rather than a restatement.

A Crank-Nicolson propagator for the free Schroedinger equation validates
the closed-form packets themselves.  The spatial operator uses the
compact fourth-order (Numerov) correction: with L the standard second
difference and M = I + L/12, one step solves

    (M - g L) psi_new = (M + g L) psi_old,     g = i hbar dt / (4 m dx^2).

Boundaries are hard walls (psi = 0 just outside the grid).  M and L then
share the sine modes sin(k pi n/(N+1)), k = 1..N, with eigenvalues
lam_k = -4 sin^2(k pi/2(N+1)) and mu_k = 1 + lam_k/12, so one step
multiplies mode k by

    r_k = (mu_k + g lam_k)/(mu_k - g lam_k) = exp(i theta_k),
    theta_k = 2 atan2(beta lam_k, mu_k),   beta = hbar dt / (4 m dx^2).

fd_propagate evaluates n steps exactly in this basis: one DST-I of the
initial profile, a factor r_k^n per mode and one DST-I back, with
|r_k| = 1 by construction.  A leak detector checks the two edge
amplitudes after every step, as mode sums sum_k e_k r_k^s, instead of
absorbing layers.  Both edges weigh mode k by the same magnitude |e_k|,
so the modes left out of a sum change it by at most the sum tau of
their |e_k|.  The detector therefore keeps only the modes it needs,
dropping the smallest while their tail stays within a fixed fraction
of the threshold, and runs the full sum over every mode only on a
block of steps where the kept modes alone come within tau (plus a
roundoff margin) of it.  Every other block provably stays below the
threshold, so the first leaking step is the one the full check names.
Each sum starts from the initial weights advanced straight to its
first step s0 by r_k^s0 = exp(i s0 theta_k), as the final transform
forms r_k^n, so no block depends on another, and the kept modes are
summed a span of blocks at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryLeak, NodalPoint
from .field import DEFAULT_NODE_FLOOR, GridSpec, SlitMask, _check_node_floor, _grid_blocks, peak_bound
from .packet import PhysParams, SlitSpec, _check_count, _check_time, psi

__all__ = [
    "Superposition",
    "EquivalenceReport",
    "superpose",
    "qm_current",
    "bohm_velocity",
    "fd_propagate",
    "equivalence_report",
]

# Steps per leak-check block.  The K kept modes are summed over spans of
# whole blocks, one (span x K) @ (K x 2) product against their
# r_k^1..r_k^span, with as many blocks per span as keep that table
# within the 2N values of the edge weights (at least one).  A block the
# kept sums cannot clear is summed over all N modes, against a table
# of r_k^1..r_k^chunk (32 rows at N = 4096 is 2 MiB) built the first
# time that happens.
_LEAK_CHUNK = 32
# Largest sum of |e_k| the dropped modes may carry, as a fraction of the
# runtime edge threshold.  The kept-mode check clears a block only below
# the threshold minus that tail, so a larger fraction drops more modes
# but sends more blocks near the threshold to the full check.
_LEAK_TAIL = 0.5
# Runtime edge threshold, relative to the initial peak.
_LEAK_TOL = 1e-6
# EquivalenceReport.passed's bound on each deviation: |dP| and |dJ|
# relative to the oracle peaks, and max_rel_dev_v as it stands.
VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class Superposition:
    """Per-slit complex amplitudes and their sum at one (x, t)."""

    psis: tuple
    total: np.ndarray


@dataclass(frozen=True)
class EquivalenceReport:
    """Grid-wide deviation summary between emergent field and oracle.

    Absolute deviations are raw maxima; peak_p and peak_j carry the
    oracle peaks they should be compared against.  max_rel_dev_v is
    the largest |v_field - v_oracle| over the points the field flags
    non-nodal, divided by the largest |v| either route reaches on those
    points (0 when every such v is exactly 0).  Points where both routes
    give NaN (0/0 on both sides) are left out.  A common velocity scale
    keeps the metric well-conditioned where v crosses zero, which a
    pointwise ratio is not.  The fields, in order, are the measured keys
    of the CLI's verify.json.
    """

    max_abs_dev_p: float
    peak_p: float
    max_abs_dev_j: float
    peak_j: float
    max_rel_dev_v: float
    n_nodal: int

    @property
    def passed(self) -> bool:
        """The verify verdict: every deviation within VERIFY_TOL of its scale; a NaN fails."""
        return (
            self.max_abs_dev_p <= VERIFY_TOL * self.peak_p
            and self.max_abs_dev_j <= VERIFY_TOL * self.peak_j
            and self.max_rel_dev_v <= VERIFY_TOL
        )


def superpose(
    params: PhysParams, slits: list[SlitSpec], mask: SlitMask, x, t: float
) -> Superposition:
    """Superposed amplitude over the open slits, summed in slit order from 0."""
    psis = tuple(psi(params, s, x, t) for s in mask.select(slits))
    return Superposition(psis=psis, total=sum(psis, np.zeros(np.shape(x), dtype=complex)))


def qm_current(params: PhysParams, slits: list[SlitSpec], mask: SlitMask, x, t: float):
    """Density and current (P, J) of the superposed profile.

    J = (hbar/m) Im(Psi* dPsi/dx) with Psi and its packets from superpose
    and each packet's closed-form dpsi/dx = psi * (-xi/(2 s_t) + i m drift/hbar).
    """
    sup = superpose(params, slits, mask, x, t)
    _check_time(t)  # superpose evaluates no packet, so checks no t, for an empty mask
    x = np.asarray(x, dtype=float)
    dtotal = np.zeros(x.shape, dtype=complex)
    for slit, ps in zip(mask.select(slits), sup.psis):
        st = slit.sigma0**2 + 1j * params.diffusion * t
        xi = x - slit.center - slit.drift * t
        factor = -xi / (2.0 * st) + 1j * params.mass * slit.drift / params.hbar
        # psi times factor in this order: numpy may swap the operands of an
        # inline product, and a complex product is not bitwise commutative.
        dtotal = dtotal + np.multiply(ps, factor)
    p = sup.total.real**2 + sup.total.imag**2
    j = (params.hbar / params.mass) * (np.conj(sup.total) * dtotal).imag
    return p, j


def bohm_velocity(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    x,
    t: float,
    node_floor: float = DEFAULT_NODE_FLOOR,
):
    """Gradient-flow velocity J/P of the oracle.

    The nodal reference is the analytic in-phase peak bound at time t,
    so the check needs no surrounding grid.  Any evaluation point with
    P below node_floor times that reference raises NodalPoint, as does
    any point when the reference is not positive (no density at all).
    That is field._guidance's rule, spelled apart to keep the routes
    independent; the input rule _check_node_floor is shared.
    """
    _check_node_floor(node_floor)
    p, j = qm_current(params, slits, mask, x, t)
    peak = peak_bound(params, slits, mask, t)
    if not peak > 0.0:
        raise NodalPoint(f"nodal reference {peak:g} is not positive at t = {t}")
    floor = node_floor * peak
    if np.any(p < floor):
        raise NodalPoint(f"density below nodal floor {floor:g} at t = {t}")
    return j / p


def _dst1(v: np.ndarray) -> np.ndarray:
    """Type-I discrete sine transform, y_k = 2 sum_n v_n sin(pi (k+1)(n+1)/(N+1)).

    Evaluated as the FFT of the odd extension (0, v, 0, -reversed v) of
    length 2(N+1).  Applied twice it multiplies by 2(N+1).
    """
    n = v.size
    ext = np.zeros(2 * (n + 1), dtype=complex)
    ext[1 : n + 1] = v
    ext[n + 2 :] = -v[::-1]
    return 1j * np.fft.fft(ext)[1 : n + 1]


def _leak_modes(weight: np.ndarray, limit: float) -> tuple[np.ndarray, float]:
    """Modes the leak check keeps, and the summed weight of the rest.

    weight holds each mode's edge magnitude |e_k|.  The smallest are
    dropped while their sum stays within _LEAK_TAIL * limit; returns the
    indices of the others and that sum.
    """
    order = np.argsort(weight)
    tail = np.cumsum(weight[order])
    n_drop = int(np.searchsorted(tail, _LEAK_TAIL * limit, side="right"))
    return order[n_drop:], float(tail[n_drop - 1]) if n_drop else 0.0


def _step_powers(theta: np.ndarray, rows: int) -> np.ndarray:
    """r_k^s = exp(i s theta_k) for s = 1..rows, one row per step, in theta's precision."""
    table = np.zeros((rows, theta.size), dtype=np.result_type(theta, np.csingle))
    np.multiply.outer(np.arange(1, rows + 1), theta, out=table.imag)
    return np.exp(table, out=table)


def _edge_sums(edge: np.ndarray, theta: np.ndarray, start, powers: np.ndarray) -> np.ndarray:
    """sum_k edge[k, :] r_k^(start + s) for s = 1..len(powers), one row per step.

    The weights are advanced straight to step start by exp(i start theta_k).
    """
    return powers @ (edge * np.exp(1j * start * theta)[:, None])


def _kept_sums(kept: np.ndarray, theta: np.ndarray, n_steps: int, budget: int):
    """Yield (start, _edge_sums over steps start + 1..) span by span for steps 1..n_steps.

    A span is as many whole _LEAK_CHUNK blocks as keep its power table
    within budget values, and at least one.
    """
    span = _LEAK_CHUNK * max(1, budget // (_LEAK_CHUNK * max(1, theta.size)))
    powers = _step_powers(theta, span)
    for start in range(0, n_steps, span):
        yield start, _edge_sums(kept, theta, start, powers[: n_steps - start])


def _leak_margin(weight: np.ndarray, n_steps: int) -> float:
    """Bound on the roundoff of an edge sum over up to weight.size modes after up to n_steps steps.

    s theta_k is rounded with an error of at most pi n_steps u (|theta_k|
    <= pi, s <= n_steps, u the unit roundoff), the exponentials and
    products add a few u per term and the summation at most N u, each
    relative to sum_k |e_k|; 4 (N + n_steps) u covers all of it.
    """
    return 4.0 * (weight.size + n_steps) * np.finfo(float).eps * float(np.sum(weight))


def _leak_check(coef, angle, theta, n_steps: int, edge_limit: float) -> None:
    """Raise BoundaryLeak at the first step 1..n_steps whose edge amplitude exceeds edge_limit."""
    n = coef.size
    # After step s, grid point j = 1..N holds
    # sum_k coef_k r_k^s sin(k pi j/(N+1)) / (N+1); at j = N the sine is
    # (-1)^(k+1) sin(k pi/(N+1)).  So the edges are sum_k edge[k, :] r_k^s.
    left = coef * np.sin(angle) / (n + 1)
    edge = np.column_stack([left, np.where(np.arange(n) % 2, -left, left)])

    # |sum over all modes| <= |sum over the kept ones| + tail, each computed within the margin
    weight = np.abs(edge[:, 0])
    keep, tail = _leak_modes(weight, edge_limit)
    cut = edge_limit - tail - _leak_margin(weight, n_steps)
    powers = None
    for start, sums in _kept_sums(edge[keep], theta[keep], n_steps, edge.size):
        amp = np.abs(sums).max(axis=1)
        # "not <=": a NaN sum or cut sends its block to the full check as well
        unclear = ~(np.maximum.reduceat(amp, range(0, amp.size, _LEAK_CHUNK)) <= cut)
        for block in start + _LEAK_CHUNK * np.flatnonzero(unclear):
            if powers is None:
                powers = _step_powers(theta, _LEAK_CHUNK)
            amp = np.abs(_edge_sums(edge, theta, block, powers[: n_steps - block])).max(axis=1)
            over = np.flatnonzero(amp > edge_limit)
            if over.size:
                raise BoundaryLeak(f"edge amplitude exceeded at step {block + over[0] + 1}/{n_steps}")


def fd_propagate(
    params: PhysParams,
    x: np.ndarray,
    psi0: np.ndarray,
    t_end: float,
    n_steps: int,
) -> np.ndarray:
    """Propagate psi0 on a uniform grid to t_end by compact Crank-Nicolson.

    The result is n_steps Crank-Nicolson steps of size dt = t_end/n_steps,
    evaluated exactly in the sine modes: psi0's DST-I coefficients are
    multiplied by r_k^n_steps and transformed back.  No step is taken
    one at a time, so the cost grows with n_steps only through the leak
    check, and there mostly over the few modes that can reach the
    threshold.

    Preconditions: x, psi0 and t_end must be finite, x uniform (each
    point within 8 eps * max|x| of x[0] + k dx), n_steps an int or
    NumPy integer (not a bool) of at least 1, the initial edge
    amplitudes must be below 1e-10 of the initial peak (the box walls
    would otherwise matter from the start) and dt must not exceed
    dx^2 m / hbar.  After every step s = 1..n_steps the two edge
    amplitudes, each a mode sum against r_k^s, are compared with
    _LEAK_TOL times the initial peak; the first step above it raises
    BoundaryLeak naming s.  The tighter entry bound cannot be held
    mid-run since a spreading packet's tails grow, so the runtime
    threshold is looser.

    The check runs in blocks of _LEAK_CHUNK steps and keeps no state
    between them: every sum starts from the initial edge weights
    advanced straight to its first step.  The modes _leak_modes keeps
    are summed over spans of whole blocks, and a block is cleared when
    those sums stay below the threshold minus the dropped modes' tail
    and the roundoff margin of _leak_margin; otherwise it is decided by
    the sums over all modes, formed with the same operations as a check
    of every block would use.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(psi0, dtype=complex).copy()
    if x.ndim != 1 or x.size < 3 or x.shape != out.shape:
        raise ValueError("x and psi0 must be matching 1-d arrays of size >= 3")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(out)) and np.isfinite(t_end)):
        raise ValueError("x, psi0 and t_end must be finite")
    _check_count(n_steps, "n_steps")
    dx = (x[-1] - x[0]) / (x.size - 1)
    # np.linspace places its points within 2 eps * max|x| of x[0] + k dx
    off_grid = np.abs(x - (x[0] + dx * np.arange(x.size))).max()
    if off_grid > 8.0 * np.finfo(float).eps * np.abs(x).max():
        raise ValueError("x must be a uniform grid")
    dt = float(t_end) / n_steps
    if dt > dx * dx * params.mass / params.hbar * (1.0 + 1e-12):
        raise ValueError("dt <= dx^2 m / hbar violated; raise n_steps")

    peak0 = float(np.max(np.abs(out)))
    if peak0 == 0.0:
        return out
    if max(abs(out[0]), abs(out[-1])) >= 1e-10 * peak0:
        raise BoundaryLeak("initial profile reaches the grid edge; widen the grid")

    n = x.size
    angle = np.arange(1, n + 1) * (np.pi / (n + 1))
    lam = -4.0 * np.sin(0.5 * angle) ** 2
    beta = params.hbar * dt / (4.0 * params.mass * dx * dx)
    theta = 2.0 * np.arctan2(beta * lam, 1.0 + lam / 12.0)
    coef = _dst1(out)

    _leak_check(coef, angle, theta, n_steps, _LEAK_TOL * peak0)
    return _dst1(coef * np.exp(1j * n_steps * theta)) / (2 * (n + 1))


def equivalence_report(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    grid: GridSpec,
    node_floor: float = DEFAULT_NODE_FLOOR,
) -> EquivalenceReport:
    """Compare field_grid's field against the oracle over a grid.

    The nodal flags are field_grid's (reference: the grid maximum of
    P_tot).  Velocity deviations are scaled by the largest live velocity
    of either route (see EquivalenceReport), evaluated only where the
    field flags the point non-nodal.  The grid is compared block by
    block and each maximum reduced over the blocks.
    """
    maxima = []  # per block: |dP|, |dJ|, |dv|, the velocity scale, P, |J|
    n_nodal = 0
    for x, _, sample in _grid_blocks(params, slits, mask, grid, node_floor):
        p_o, j_o = qm_current(params, slits, mask, x, grid.t)
        v_o = np.where(sample.nodal, np.nan, j_o / np.where(sample.nodal, 1.0, p_o))
        live = ~sample.nodal & ~(np.isnan(sample.v_tot) & np.isnan(v_o))
        v_max = np.maximum(np.abs(sample.v_tot), np.abs(v_o))
        maxima.append([
            np.max(np.abs(sample.p_tot - p_o)),
            np.max(np.abs(sample.j_tot - j_o)),
            # |dv| >= 0, so a block with no live point adds nothing
            np.max(np.abs(sample.v_tot - v_o)[live], initial=0.0),
            np.max(v_max[live], initial=0.0),
            np.max(p_o),
            np.max(np.abs(j_o)),
        ])
        n_nodal += int(np.count_nonzero(sample.nodal))
    # np.max, not max(): a NaN in any block must survive the reduction
    dev_p, dev_j, dv, scale, peak_p, peak_j = (float(m) for m in np.max(maxima, axis=0))

    return EquivalenceReport(
        max_abs_dev_p=dev_p,
        peak_p=peak_p,
        max_abs_dev_j=dev_j,
        peak_j=peak_j,
        max_rel_dev_v=dv / scale if scale != 0.0 else 0.0,
        n_nodal=n_nodal,
    )
