"""Interference hierarchy over slit subsets by inclusion-exclusion.

For a subset S of slits, the order-|S| interference term is

    I_S = sum over T subseteq S of (-1)^(|S| - |T|) P_T,

where P_T is the detection intensity with only the slits in T open and
nothing renormalized.  Order 1 gives back the one-slit intensities,
order 2 the familiar two-slit fringe term 2 R_i R_j cos(phi_ij), and
every order at three and above cancels identically because the total
intensity is a strictly pairwise sum.  The report normalizes by the
peak intensity over all subset runs so tolerances are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .field import _BLOCK, GridSpec, SlitMask, _pairwise, _subset_table, _workspace, open_evals
from .packet import PhysParams, SlitSpec, _unwrap

__all__ = [
    "SumRuleReport",
    "subset_intensity",
    "interference_term",
    "sumrule_report",
    "sumrule_verdict",
]

SORKIN_TOL = 1e-12  # orders 3 and up must stay within this, normalized
SORKIN_FLOOR = 1e-6  # the order-2 term must exceed this, normalized

# Budget on 3^n x grid points, the array-element terms of the n-slit
# inclusion-exclusion.  It admits 12 slits on 10001 points.
_MAX_TERMS = 6 * 10**9
# Subset intensities held per block: 2^n of them, so the block shrinks
# from _BLOCK above 10 slits to keep this many values.
_TABLE_VALUES = _BLOCK << 10


@dataclass(frozen=True)
class SumRuleReport:
    """Summary of all order-k interference terms on a grid.

    values holds, per grid point, the largest |I_S| over the k-subsets
    S; scale is the peak intensity across every subset run feeding the
    report, and normalized_max = max_abs / scale.
    """

    order: int
    values: np.ndarray
    max_abs: float
    scale: float
    normalized_max: float


def subset_intensity(params: PhysParams, slits: list[SlitSpec], subset, x, t: float):
    """Intensity at x with only the given slit indices open; the empty subset sums to 0."""
    evals = open_evals(params, slits, SlitMask(subset), x, t)
    return _pairwise(evals, _workspace(np.shape(x), 0))[0]


def _inclusion_exclusion(s: tuple[int, ...], table) -> np.ndarray:
    """I_S = sum over non-empty T subseteq S of (-1)^(|S| - |T|) P_T.

    table maps each ascending index tuple T to P_T, as field._subset_table
    builds it.  Terms are summed from zeros by subset size, then in
    combinations order; subtracting P_T is adding -P_T exactly, and the
    sum is formed in place.
    """
    total = np.zeros(np.shape(table[s[:1]]))
    for size in range(1, len(s) + 1):
        combine = np.subtract if (len(s) - size) % 2 else np.add
        for sub in combinations(s, size):
            combine(total, table[sub], out=total)
    return total


def interference_term(params: PhysParams, slits: list[SlitSpec], subset, x, t: float):
    """Signed inclusion-exclusion term I_S at (x, t) over the set S of slit indices in subset.

    Each slit of S is evaluated once; a repeated index names its slit once, as in a mask.
    """
    mask = SlitMask(subset)
    if not mask.open:
        raise ValueError("subset must contain at least one slit index")
    x = np.asarray(x, dtype=float)
    table = _subset_table(open_evals(params, slits, mask, x, t), x)
    return _unwrap(_inclusion_exclusion(tuple(range(len(mask.open))), table))


def sumrule_report(
    params: PhysParams,
    slits: list[SlitSpec],
    grid: GridSpec,
) -> list[SumRuleReport]:
    """Order-k reports for k = 2..n over all k-subsets of the n slits.

    The k = 2 report carries the physical first-order violation: its
    normalized_max exceeding SORKIN_FLOOR confirms a live fringe term,
    and for the default geometries it is order 0.1 or larger.  Orders
    three and above should be zero to rounding (see sumrule_verdict).

    The grid is evaluated in blocks, so only one block's subset
    intensities are held at a time.  Its only ValueErrors are raised
    before anything is evaluated: fewer than two slits, or a slit count
    whose 3^n x grid points exceeds _MAX_TERMS.
    """
    n = len(slits)
    if n < 2:
        raise ValueError("sorkin requires at least two slits")
    if 3**n * grid.n_points > _MAX_TERMS:
        raise ValueError(
            f"slits: {n} slits on {grid.n_points} grid points need 3^{n} x {grid.n_points}"
            f" = {3**n * grid.n_points} inclusion-exclusion terms, over the budget of {_MAX_TERMS}"
        )
    xs = grid.points()
    step = min(_BLOCK, _TABLE_VALUES >> n)  # >= 8: the budget caps n at 19
    peaks = np.full(2**n - 1, -np.inf)  # per subset, max P_T so far
    # One block for all orders: freed whole, so it cannot leave freed
    # grid-sized chunks stranded in the heap as n - 1 arrays can.
    values = dict(zip(range(2, n + 1), np.zeros((n - 1, xs.size))))
    for start in range(0, xs.size, step):
        x = xs[start:start + step]
        # Each slit is evaluated once per block and each P_T formed once.
        table = _subset_table(open_evals(params, slits, SlitMask.all_open(n), x, grid.t), x)
        peaks = np.maximum(peaks, [np.max(p) for p in table.values()])
        for k, v in values.items():
            block = v[start:start + step]
            for s in combinations(range(n), k):
                term = _inclusion_exclusion(s, table)
                np.maximum(block, np.abs(term, out=term), out=block)
    # Python max over the subsets in table order, as over whole-grid runs
    scale = max(float(p) for p in peaks)

    reports = []
    for k, v in values.items():
        max_abs = float(np.max(v))
        reports.append(
            SumRuleReport(
                order=k,
                values=v,
                max_abs=max_abs,
                scale=scale,
                normalized_max=max_abs / scale if scale > 0.0 else 0.0,
            )
        )
    return reports


def sumrule_verdict(reports: list[SumRuleReport]) -> tuple[bool, bool]:
    """(first_order_violation, passed) for sumrule_report's reports.

    The order-2 term is a violation when its normalized_max exceeds
    SORKIN_FLOOR, and the reports pass when it is one and every higher
    order stays within SORKIN_TOL.  A NaN at order 2 is no violation,
    and a NaN at any order fails.
    """
    violation = reports[0].normalized_max > SORKIN_FLOOR
    high_ok = all(r.normalized_max <= SORKIN_TOL for r in reports if r.order >= 3)
    return violation, high_ok and violation
