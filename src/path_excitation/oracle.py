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

M and L share sine-mode eigenvectors and g is purely imaginary, so the
step is exactly unitary in the discrete l2 norm; boundaries are hard
walls with a leak detector rather than absorbing layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .channels import DEFAULT_NODE_FLOOR, _guidance
from .errors import BoundaryLeak, NegativeTime, NodalPoint
from .field import GridSpec, SlitMask, _pairwise, open_evals, peak_bound
from .packet import PhysParams, SlitSpec, psi, psi_dx

__all__ = [
    "Superposition",
    "EquivalenceReport",
    "superpose",
    "qm_current",
    "bohm_velocity",
    "fd_propagate",
    "equivalence_report",
]


@dataclass(frozen=True)
class Superposition:
    """Per-slit complex amplitudes and their sum at one (x, t)."""

    psis: tuple
    total: np.ndarray


@dataclass(frozen=True)
class EquivalenceReport:
    """Grid-wide deviation summary between emergent field and oracle.

    Absolute deviations are raw maxima; peak_p and peak_j carry the
    oracle peaks they should be compared against.  max_rel_dev_v
    excludes nodal-flagged points and treats exact double zeros as zero
    deviation.
    """

    max_abs_dev_p: float
    max_abs_dev_j: float
    max_rel_dev_v: float
    n_nodal: int
    grid: GridSpec
    peak_p: float
    peak_j: float


def superpose(
    params: PhysParams, slits: list[SlitSpec], mask: SlitMask, x, t: float
) -> Superposition:
    """Superposed amplitude over the open slits, summed in slit order."""
    mask.check_against(len(slits))
    psis = tuple(psi(params, slits[i], x, t) for i in mask.indices())
    if not psis:
        return Superposition(psis=(), total=np.zeros(np.asarray(x).shape, dtype=complex))
    total = np.zeros(np.broadcast_shapes(*(p.shape for p in psis)), dtype=complex)
    for p in psis:
        total = total + p
    return Superposition(psis=psis, total=total)


def qm_current(params: PhysParams, slits: list[SlitSpec], mask: SlitMask, x, t: float):
    """Density and current (P, J) of the superposed profile.

    J = (hbar/m) Im(Psi* dPsi/dx) with the derivative assembled from
    the packets' closed-form derivatives, no finite differencing.
    """
    mask.check_against(len(slits))
    if float(t) < 0.0:
        raise NegativeTime(f"t = {t} lies before the release time 0")
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape, dtype=complex)
    dtotal = np.zeros(x.shape, dtype=complex)
    for i in mask.indices():
        total = total + psi(params, slits[i], x, t)
        dtotal = dtotal + psi_dx(params, slits[i], x, t)
    p = total.real**2 + total.imag**2
    j = (params.hbar / params.mass) * (np.conj(total) * dtotal).imag
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
    P below node_floor times that reference raises NodalPoint.
    """
    p, j = qm_current(params, slits, mask, x, t)
    floor = node_floor * peak_bound(params, slits, mask, t)
    if np.any(p < floor):
        raise NodalPoint(f"density below nodal floor {floor:g} at t = {t}")
    return j / p


def fd_propagate(
    params: PhysParams,
    x: np.ndarray,
    psi0: np.ndarray,
    t_end: float,
    n_steps: int,
    leak_tol: float = 1e-6,
) -> np.ndarray:
    """Propagate psi0 on a uniform grid to t_end by compact Crank-Nicolson.

    Preconditions: the initial edge amplitudes must be below 1e-10 of
    the initial peak (the box walls would otherwise matter from the
    start) and dt = t_end/n_steps must not exceed dx^2 m / hbar.  While
    stepping, edge amplitude above leak_tol of the initial peak raises
    BoundaryLeak; the tighter entry bound cannot be held mid-run since
    a spreading packet's tails grow, so the runtime threshold is looser
    and configurable.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(psi0, dtype=complex).copy()
    if x.ndim != 1 or x.size < 3 or x.shape != out.shape:
        raise ValueError("x and psi0 must be matching 1-d arrays of size >= 3")
    if n_steps < 1:
        raise ValueError("n_steps >= 1 violated")
    dx = (x[-1] - x[0]) / (x.size - 1)
    dt = float(t_end) / n_steps
    if dt > dx * dx * params.mass / params.hbar * (1.0 + 1e-12):
        raise ValueError("dt <= dx^2 m / hbar violated; raise n_steps")

    peak0 = float(np.max(np.abs(out)))
    if peak0 == 0.0:
        return out
    if max(abs(out[0]), abs(out[-1])) >= 1e-10 * peak0:
        raise BoundaryLeak("initial profile reaches the grid edge; widen the grid")

    n = x.size
    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    lap = sp.diags([off, main, off], [-1, 0, 1], format="csc")
    ident = sp.identity(n, format="csc")
    m = ident + lap / 12.0
    gamma = 1j * params.hbar * dt / (4.0 * params.mass * dx * dx)
    solver = splu((m - gamma * lap).tocsc())
    rhs_op = (m + gamma * lap).tocsr()

    edge_limit = leak_tol * peak0
    for step in range(n_steps):
        out = solver.solve(rhs_op @ out)
        if max(abs(out[0]), abs(out[-1])) > edge_limit:
            raise BoundaryLeak(f"edge amplitude exceeded at step {step + 1}/{n_steps}")
    return out


def equivalence_report(
    params: PhysParams,
    slits: list[SlitSpec],
    mask: SlitMask,
    grid: GridSpec,
    node_floor: float = DEFAULT_NODE_FLOOR,
) -> EquivalenceReport:
    """Compare the pairwise field against the oracle over a grid.

    Velocity deviations are relative, |dv| / max(|v_field|, |v_oracle|),
    evaluated only where the field flags the point non-nodal; the nodal
    reference is the field's own maximum P_tot.
    """
    xs = grid.points()
    evals = open_evals(params, slits, mask, xs, grid.t)
    p, j = _pairwise(evals)
    single = evals[0].conv_velocity if len(evals) == 1 else None
    sample = _guidance(p, j, node_floor * float(np.max(p)), single)

    p_o, j_o = qm_current(params, slits, mask, xs, grid.t)
    v_o = np.where(sample.nodal, np.nan, j_o / np.where(sample.nodal, 1.0, p_o))

    dev_p = float(np.max(np.abs(sample.p_tot - p_o)))
    dev_j = float(np.max(np.abs(sample.j_tot - j_o)))

    live = ~sample.nodal
    dv = np.abs(sample.v_tot - v_o)
    denom = np.maximum(np.abs(sample.v_tot), np.abs(v_o))
    with np.errstate(invalid="ignore"):
        rel = np.where(denom > 0.0, dv / denom, 0.0)
    dev_v = float(np.max(rel[live])) if np.any(live) else 0.0

    return EquivalenceReport(
        max_abs_dev_p=dev_p,
        max_abs_dev_j=dev_j,
        max_rel_dev_v=dev_v,
        n_nodal=int(np.count_nonzero(sample.nodal)),
        grid=grid,
        peak_p=float(np.max(p_o)),
        peak_j=float(np.max(np.abs(j_o))),
    )
