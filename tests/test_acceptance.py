"""End-to-end acceptance suite.

Seven criteria, one test and one printed PASS/FAIL line each, with the
tolerance and the measured value in the line.  Tolerances are pinned
here and must not be loosened; a failing criterion is information, not
an inconvenience.

Run as `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs; they are also captured in failure reports).
"""

import time

import numpy as np
from scipy.integrate import trapezoid

from path_excitation.channels import assemble, build_channels, project
from path_excitation.field import (
    GridSpec,
    SlitMask,
    intensity,
    open_evals,
    pairwise_field,
)
from path_excitation.oracle import equivalence_report, fd_propagate
from path_excitation.packet import PhysParams, SlitSpec, eval_packet, psi, sigma_t
from path_excitation.sorkin import sumrule_report
from path_excitation.trajectories import Termination, ensemble, integrate

P = PhysParams()
TWO_SLIT = [SlitSpec(center=-3.0), SlitSpec(center=3.0)]
BOTH = SlitMask.all_open(2)
DEFAULT_GRID = GridSpec(-15.0, 15.0, 2001, 2.0)


def _line(num: int, name: str, ok: bool, detail: str) -> str:
    verdict = "PASS" if ok else "FAIL"
    msg = f"CRITERION {num} {name}: {verdict} ({detail})"
    print(msg)
    return msg


def test_criterion_1_guidance_identity():
    """Emergent field equals the amplitude-oracle current and velocity
    on the default two-slit grid, within 1e-10 of the slice peaks."""
    start = time.perf_counter()
    rep = equivalence_report(P, TWO_SLIT, BOTH, DEFAULT_GRID)
    elapsed = time.perf_counter() - start
    dev_p = rep.max_abs_dev_p / rep.peak_p
    dev_j = rep.max_abs_dev_j / rep.peak_j
    ok = dev_p <= 1e-10 and dev_j <= 1e-10 and rep.max_rel_dev_v <= 1e-10 and elapsed < 1.0
    msg = _line(
        1,
        "guidance-identity",
        ok,
        f"dev_p/peak={dev_p:.2e} dev_j/peak={dev_j:.2e} "
        f"rel_v={rep.max_rel_dev_v:.2e} tol=1e-10, {elapsed:.2f}s < 1s",
    )
    assert ok, msg


def test_criterion_2_channel_twin():
    """Channel-projection assembly reproduces the closed-form pairwise
    field within 1e-12 of the per-config peak for 1000 random
    configurations with one to four slits."""
    rng = np.random.default_rng(20260817)
    start = time.perf_counter()
    worst_p = 0.0
    worst_j = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        slits = [
            SlitSpec(
                center=float(rng.uniform(-5.0, 5.0)),
                sigma0=float(rng.uniform(0.3, 2.0)),
                drift=float(rng.uniform(-1.0, 1.0)),
                weight=float(rng.uniform(0.1, 2.0)),
                phase0=float(rng.uniform(-np.pi, np.pi)),
            )
            for _ in range(n)
        ]
        t = float(rng.uniform(0.0, 3.0))
        xs = rng.uniform(-8.0, 8.0, 15)
        evals = [eval_packet(P, s, xs, t) for s in slits]
        closed = pairwise_field(evals)
        twin = assemble(build_channels(evals))
        scale = float(np.max(closed.p_tot))
        if scale == 0.0:
            continue
        vmax = max(
            float(np.max(np.abs(e.conv_velocity))) + float(np.max(np.abs(e.diff_velocity)))
            for e in evals
        )
        worst_p = max(worst_p, float(np.max(np.abs(twin.p_tot - closed.p_tot))) / scale)
        worst_j = max(
            worst_j,
            float(np.max(np.abs(twin.j_tot - closed.j_tot))) / (scale * (1.0 + vmax)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_p <= 1e-12 and worst_j <= 1e-12 and elapsed < 10.0
    msg = _line(
        2,
        "channel-twin",
        ok,
        f"1000 configs n=1..4, worst dP={worst_p:.2e} worst dJ={worst_j:.2e} "
        f"tol=1e-12, {elapsed:.2f}s < 10s",
    )
    assert ok, msg


def test_criterion_3_sorkin_hierarchy():
    """Order three and above cancel to 1e-12 of the peak on three- and
    four-slit configs while the order-2 fringe term stays above 0.1."""
    start = time.perf_counter()
    three = [SlitSpec(center=c) for c in (-6.0, 0.0, 6.0)]
    four = [SlitSpec(center=c) for c in (-9.0, -3.0, 3.0, 9.0)]
    rep3 = {r.order: r for r in sumrule_report(P, three, GridSpec(-18.0, 18.0, 1201, 2.0))}
    rep4 = {r.order: r for r in sumrule_report(P, four, GridSpec(-21.0, 21.0, 1401, 2.0))}
    elapsed = time.perf_counter() - start
    high = max(rep3[3].normalized_max, rep4[3].normalized_max, rep4[4].normalized_max)
    fringe = min(rep3[2].normalized_max, rep4[2].normalized_max)
    ok = high <= 1e-12 and fringe > 0.1 and elapsed < 5.0
    msg = _line(
        3,
        "sorkin-hierarchy",
        ok,
        f"max order>=3 = {high:.2e} (tol 1e-12), min order-2 = {fringe:.3f} (> 0.1), "
        f"{elapsed:.2f}s < 5s",
    )
    assert ok, msg


def test_criterion_4_born_equivariance():
    """Transporting 1e5 samples of the t0 intensity along the emergent
    velocity reproduces the t1 intensity: total variation of the
    100-bin endpoint histogram <= 0.02, with zero crossing
    violations."""
    start = time.perf_counter()
    t1 = 2.0
    res = ensemble(P, TWO_SLIT, BOTH, 1e-3, t1, 100000, dt=None, bins=100, seed=0)
    n_ok = int(res.counts.sum())
    edges = res.bin_edges
    fine = np.linspace(edges[0], edges[-1], edges.size * 40)
    p_fine = intensity(open_evals(P, TWO_SLIT, BOTH, fine, t1))
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (p_fine[1:] + p_fine[:-1]) * np.diff(fine))]
    )
    wide = np.linspace(-30.0, 30.0, 20001)
    total = trapezoid(intensity(open_evals(P, TWO_SLIT, BOTH, wide, t1)), wide)
    q = np.diff(np.interp(edges, fine, cum)) / total
    q_out = 1.0 - float(q.sum())
    tv = 0.5 * float(np.sum(np.abs(res.counts / n_ok - q))) + 0.5 * abs(q_out)
    elapsed = time.perf_counter() - start
    ok = tv <= 0.02 and res.n_crossing_violations == 0 and elapsed < 120.0
    msg = _line(
        4,
        "born-equivariance",
        ok,
        f"TV={tv:.4f} (tol 0.02), crossings={res.n_crossing_violations}, "
        f"aborted={res.n_aborted}/{res.n_trajectories}, {elapsed:.1f}s < 120s",
    )
    assert ok, msg


def test_criterion_5_ballistic_dispersion():
    """A single-packet streamline seeded one width off center lands on
    the spreading law at t=2, and the quadrature variance of the
    intensity follows sigma(t)^2."""
    slit = SlitSpec(center=0.0)
    one = SlitMask([0])
    tr = integrate(P, [slit], one, 1.0, 0.0, 2.0, dt=None)
    endpoint = tr.samples[-1][1]
    target = np.sqrt(2.0)
    end_err = abs(endpoint - target)

    xs = np.linspace(-14.0, 14.0, 4001)
    dens = intensity(open_evals(P, [slit], one, xs, 2.0))
    total = trapezoid(dens, xs)
    mean = trapezoid(xs * dens, xs) / total
    var = trapezoid((xs - mean) ** 2 * dens, xs) / total
    var_err = abs(var - sigma_t(P, slit, 2.0) ** 2) / sigma_t(P, slit, 2.0) ** 2

    ok = (
        tr.terminated is Termination.COMPLETED
        and end_err < 1e-6
        and var_err < 1e-6
    )
    msg = _line(
        5,
        "ballistic-dispersion",
        ok,
        f"endpoint err={end_err:.2e} (tol 1e-6), variance rel err={var_err:.2e} (tol 1e-6)",
    )
    assert ok, msg


def test_criterion_6_packet_validation():
    """The analytic profile agrees with direct numerical propagation of
    its own initial condition, and the analytic velocity moments agree
    with finite differences of the profile."""
    slit = SlitSpec(center=0.0)
    xs = np.linspace(-12.0, 12.0, 4096)
    dx = xs[1] - xs[0]
    t_end = 2.0
    n_steps = int(np.ceil(t_end / (dx * dx * P.mass / P.hbar)))
    start = time.perf_counter()
    evolved = fd_propagate(P, xs, psi(P, slit, xs, 0.0).astype(complex), t_end, n_steps)
    elapsed = time.perf_counter() - start
    prop_err = float(np.max(np.abs(evolved - psi(P, slit, xs, t_end))))

    sig = sigma_t(P, slit, t_end)
    offsets = np.concatenate([np.linspace(-6.0, -0.05, 30), np.linspace(0.05, 6.0, 30)])
    probes = slit.center + offsets * sig
    h = 1e-5
    dpsi = (psi(P, slit, probes + h, t_end) - psi(P, slit, probes - h, t_end)) / (2 * h)
    ratio = dpsi / psi(P, slit, probes, t_end)
    v_fd = (P.hbar / P.mass) * ratio.imag
    u_fd = -(P.hbar / P.mass) * ratio.real
    ev = eval_packet(P, slit, probes, t_end)
    rel_v = float(np.max(np.abs(ev.conv_velocity - v_fd) / np.abs(v_fd)))
    rel_u = float(np.max(np.abs(ev.diff_velocity - u_fd) / np.abs(u_fd)))

    ok = prop_err <= 1e-6 and rel_v <= 1e-6 and rel_u <= 1e-6
    msg = _line(
        6,
        "packet-validation",
        ok,
        f"propagation err={prop_err:.2e} (tol 1e-6, {n_steps} steps, {elapsed:.1f}s), "
        f"fd rel v={rel_v:.2e} u={rel_u:.2e} (tol 1e-6)",
    )
    assert ok, msg


def test_criterion_7_weight_completeness():
    """Summed channel projections reproduce the squared modulus of the
    summed amplitudes within 1e-12 of its peak on every tested grid."""
    cases = [
        ([SlitSpec(center=0.0)], GridSpec(-15.0, 15.0, 1001, 2.0)),
        (TWO_SLIT, DEFAULT_GRID),
        (
            [
                SlitSpec(center=-6.0, weight=0.7, drift=0.3, phase0=0.4),
                SlitSpec(center=0.0, weight=1.3, drift=-0.2, phase0=-0.1),
                SlitSpec(center=6.0, sigma0=1.2, drift=0.1, phase0=0.9),
            ],
            GridSpec(-18.0, 18.0, 1201, 2.0),
        ),
        (
            [SlitSpec(center=c) for c in (-9.0, -3.0, 3.0, 9.0)],
            GridSpec(-21.0, 21.0, 1401, 2.0),
        ),
    ]
    worst = 0.0
    for slits, grid in cases:
        xs = grid.points()
        mask = SlitMask.all_open(len(slits))
        cset = build_channels(open_evals(P, slits, mask, xs, grid.t))
        summed = sum(project(cset, i) for i in range(len(cset.channels)))
        born = np.abs(sum(psi(P, s, xs, grid.t) for s in slits)) ** 2
        worst = max(worst, float(np.max(np.abs(summed - born))) / float(np.max(born)))
    ok = worst <= 1e-12
    msg = _line(
        7,
        "weight-completeness",
        ok,
        f"worst normalized deviation={worst:.2e} (tol 1e-12, n=1..4)",
    )
    assert ok, msg
