"""Reference-side tests: superposed amplitudes, probability current,
guidance velocity, and the Crank-Nicolson propagator.

The propagator is itself an oracle for the analytic packets, so its own
tests lean on properties that hold regardless of the packet model:
unitarity, linearity in the profile, and boundary-leak detection.  The
modal evaluation is checked against a sparse-LU loop that takes the
Crank-Nicolson steps one at a time, and the leak check over the kept
modes against one that sums every mode in every block.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.sparse.linalg import splu

import path_excitation
from path_excitation import field, trajectories
from path_excitation.errors import BoundaryLeak, NegativeTime, NodalPoint
from path_excitation.field import GridSpec, SlitMask, pairwise_field, open_evals
from path_excitation.oracle import (
    _LEAK_CHUNK,
    _LEAK_TOL,
    VERIFY_TOL,
    EquivalenceReport,
    _dst1,
    _leak_modes,
    bohm_velocity,
    equivalence_report,
    fd_propagate,
    qm_current,
    superpose,
)
from path_excitation.packet import PhysParams, SlitSpec, eval_packet, psi

from test_field import _BLOCK, BLOCK_SIZES, LATE_INF, LATE_NAN, SKEWED, whole_grid_field

P = PhysParams()
SYMMETRIC = [SlitSpec(center=-3.0), SlitSpec(center=3.0)]
BOTH = SlitMask.all_open(2)


def test_superpose_total_is_component_sum():
    xs = np.linspace(-8.0, 8.0, 101)
    sup = superpose(P, SYMMETRIC, BOTH, xs, 1.5)
    assert len(sup.psis) == 2
    resum = sup.psis[0] + sup.psis[1]
    assert np.max(np.abs(sup.total - resum)) < 1e-13


def test_superpose_respects_mask():
    xs = np.linspace(-8.0, 8.0, 11)
    sup = superpose(P, SYMMETRIC, SlitMask([1]), xs, 1.5)
    assert len(sup.psis) == 1
    direct = psi(P, SYMMETRIC[1], xs, 1.5)
    assert np.array_equal(sup.total, direct)


def test_current_vanishes_for_real_profile():
    # a resting packet at t = 0 is real up to the trivial prefactor
    xs = np.linspace(-5.0, 5.0, 201)
    _, j = qm_current(P, [SlitSpec(center=0.0)], SlitMask([0]), xs, 0.0)
    assert np.all(j == 0.0)


def test_current_is_pure_drift_at_packet_center():
    slit = SlitSpec(center=1.0, drift=0.7)
    t = 1.3
    x_center = slit.center + slit.drift * t
    p, j = qm_current(P, [slit], SlitMask([0]), np.array([x_center]), t)
    assert float(j[0] / p[0]) == pytest.approx(0.7, abs=1e-12)


def test_current_rejects_negative_time():
    with pytest.raises(NegativeTime):
        qm_current(P, SYMMETRIC, BOTH, np.array([0.0]), -0.2)
    with pytest.raises(NegativeTime):
        qm_current(P, SYMMETRIC, SlitMask([]), np.array([0.0]), -0.2)


def test_born_density_matches_squared_modulus():
    xs = np.linspace(-10.0, 10.0, 301)
    p, _ = qm_current(P, SYMMETRIC, BOTH, xs, 2.0)
    sup = superpose(P, SYMMETRIC, BOTH, xs, 2.0)
    assert_allclose(p, np.abs(sup.total) ** 2, rtol=0, atol=1e-15 * float(np.max(p)))


def test_bohm_velocity_single_slit_is_convective():
    slit = SlitSpec(center=0.4, drift=-0.3)
    xs = np.linspace(-4.0, 5.0, 101)
    v = bohm_velocity(P, [slit], SlitMask([0]), xs, 1.1)
    ev = eval_packet(P, slit, xs, 1.1)
    assert np.max(np.abs(v - ev.conv_velocity)) < 1e-12


def test_bohm_velocity_zero_on_symmetry_axis():
    v = bohm_velocity(P, SYMMETRIC, BOTH, np.array([0.0]), 2.0)
    assert abs(float(v[0])) < 1e-12


def test_bohm_velocity_matches_field_at_random_points():
    rng = np.random.default_rng(11)
    slits = [
        SlitSpec(center=-2.0, sigma0=0.8, drift=0.3, weight=0.7, phase0=0.4),
        SlitSpec(center=1.5, sigma0=1.2, drift=-0.2, weight=1.3, phase0=-0.1),
    ]
    xs = rng.uniform(-6.0, 6.0, 100)
    t = 1.7
    v_oracle = bohm_velocity(P, slits, BOTH, xs, t)
    fs = pairwise_field(open_evals(P, slits, BOTH, xs, t))
    denom = np.maximum(np.abs(v_oracle), np.abs(fs.v_tot))
    rel = np.abs(fs.v_tot - v_oracle) / np.where(denom == 0.0, 1.0, denom)
    assert np.max(rel) < 1e-10


def test_bohm_velocity_raises_at_node():
    # far in the tail the density underflows any sensible floor
    with pytest.raises(NodalPoint):
        bohm_velocity(P, SYMMETRIC, BOTH, np.array([80.0]), 0.5)


@pytest.mark.parametrize(
    "slits, mask",
    [([SlitSpec(center=-3.0, weight=0.0), SlitSpec(center=3.0, weight=0.0)], BOTH),
     (SYMMETRIC, SlitMask([]))],
    ids=["zero-weights", "empty-mask"],
)
def test_bohm_velocity_raises_in_a_dark_field(slits, mask):
    # no density anywhere: the nodal reference is 0, and J/P would be 0/0
    with pytest.raises(NodalPoint, match="not positive"):
        bohm_velocity(P, slits, mask, np.array([-1.0, 0.0, 2.0]), 0.5)


# ------------------------------------------------------------- propagation


def _grid(n=1024, half=12.0):
    return np.linspace(-half, half, n)


def _stepped_reference(params, x, psi0, t_end, n_steps, leak_tol=1e-6):
    """Compact Crank-Nicolson one step at a time: with L the second
    difference and M = I + L/12, each step solves
    (M - g L) psi_new = (M + g L) psi_old, g = i hbar dt / (4 m dx^2),
    and checks the edge amplitudes against leak_tol of the initial peak.
    Preconditions are left to fd_propagate."""
    out = np.asarray(psi0, dtype=complex).copy()
    n = x.size
    dx = (x[-1] - x[0]) / (n - 1)
    dt = float(t_end) / n_steps
    lap = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)], [-1, 0, 1], format="csc")
    m = sp.identity(n, format="csc") + lap / 12.0
    gamma = 1j * params.hbar * dt / (4.0 * params.mass * dx * dx)
    solver = splu((m - gamma * lap).tocsc())
    rhs_op = (m + gamma * lap).tocsr()
    edge_limit = leak_tol * float(np.max(np.abs(out)))
    for step in range(n_steps):
        out = solver.solve(rhs_op @ out)
        if max(abs(out[0]), abs(out[-1])) > edge_limit:
            raise BoundaryLeak(f"edge amplitude exceeded at step {step + 1}/{n_steps}")
    return out


def test_dst1_matches_scipy():
    rng = np.random.default_rng(5)
    v = rng.normal(size=37) + 1j * rng.normal(size=37)
    ref = scipy.fft.dst(v, type=1)
    assert np.max(np.abs(_dst1(v) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_propagate_matches_stepped_reference():
    xs = _grid()
    dx = xs[1] - xs[0]
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    n_steps = int(np.ceil(0.5 / dx**2))
    out = fd_propagate(P, xs, psi0, 0.5, n_steps)
    ref = _stepped_reference(P, xs, psi0, 0.5, n_steps)
    assert np.max(np.abs(out - ref)) <= 1e-11


@pytest.mark.parametrize(
    "drift, step", [(0.0, 1264), (1.0, 877), (-1.5, 749)], ids=["both", "right", "left"]
)
def test_propagate_mid_run_leak_names_the_same_step(drift, step):
    # The packet starts well inside the walls (entry check passes) and
    # its spreading tails reach the edges partway through the run; a
    # drifting packet reaches one edge first.
    xs = np.linspace(-10.5, 10.5, 501)
    dx = xs[1] - xs[0]
    n_steps = int(np.ceil(3.0 / dx**2))
    assert n_steps == 1701
    psi0 = psi(P, SlitSpec(center=0.0, drift=drift), xs, 0.0).astype(complex)
    message = f"edge amplitude exceeded at step {step}/1701"
    with pytest.raises(BoundaryLeak, match=message):
        fd_propagate(P, xs, psi0, 3.0, n_steps)
    with pytest.raises(BoundaryLeak, match=message):
        _stepped_reference(P, xs, psi0, 3.0, n_steps)


def _leak_setup(params, x, psi0, t_end, n_steps):
    """fd_propagate's DST-I coefficients, per-step mode angles theta_k,
    (N, 2) edge weights and runtime edge threshold."""
    n = x.size
    dx = (x[-1] - x[0]) / (n - 1)
    dt = float(t_end) / n_steps
    angle = np.arange(1, n + 1) * (np.pi / (n + 1))
    lam = -4.0 * np.sin(0.5 * angle) ** 2
    beta = params.hbar * dt / (4.0 * params.mass * dx * dx)
    theta = 2.0 * np.arctan2(beta * lam, 1.0 + lam / 12.0)
    coef = _dst1(np.asarray(psi0, dtype=complex))
    edge = np.empty((n, 2), dtype=complex)
    edge[:, 0] = coef * np.sin(angle) / (n + 1)
    edge[:, 1] = edge[:, 0]
    edge[1::2, 1] *= -1.0
    return coef, theta, edge, _LEAK_TOL * float(np.max(np.abs(psi0)))


def _full_leak_reference(params, x, psi0, t_end, n_steps):
    """fd_propagate with every block's edge sums taken over all N modes.
    Preconditions are left to fd_propagate."""
    coef, theta, edge, edge_limit = _leak_setup(params, x, psi0, t_end, n_steps)
    powers = np.zeros((_LEAK_CHUNK, x.size), dtype=complex)
    np.multiply.outer(np.arange(1, _LEAK_CHUNK + 1), theta, out=powers.imag)
    np.exp(powers, out=powers)
    for start in range(0, n_steps, _LEAK_CHUNK):
        rows = min(_LEAK_CHUNK, n_steps - start)
        amp = np.abs(powers[:rows] @ edge).max(axis=1)
        over = np.flatnonzero(amp > edge_limit)
        if over.size:
            raise BoundaryLeak(
                f"edge amplitude exceeded at step {start + over[0] + 1}/{n_steps}"
            )
        edge *= powers[-1][:, None]
    return _dst1(coef * np.exp(1j * n_steps * theta)) / (2 * (x.size + 1))


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except BoundaryLeak as exc:
        return str(exc)


def _random_leak_case(seed):
    """A packet well inside the walls (entry check passes) on a seeded
    grid size and width, with seeded sigma0, drift, centre and run time."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([129, 257, 512, 1024]))
    sigma0 = rng.uniform(0.4, 2.0)
    slit = SlitSpec(center=rng.uniform(-3.0, 3.0), sigma0=sigma0, drift=rng.uniform(-3.0, 3.0))
    half = abs(slit.center) + 10.5 * sigma0 + rng.uniform(0.0, 4.0)
    xs = np.linspace(-half, half, n)
    dx = xs[1] - xs[0]
    t_end = rng.uniform(0.2, 3.0)
    n_steps = int(np.ceil(t_end / dx**2 * rng.uniform(1.0, 2.0)))
    return xs, psi(P, slit, xs, 0.0).astype(complex), t_end, n_steps


@pytest.mark.parametrize("seed", range(16))
def test_kept_mode_leak_check_matches_full_check(seed):
    xs, psi0, t_end, n_steps = _random_leak_case(seed)
    assert _outcome(fd_propagate, P, xs, psi0, t_end, n_steps) == _outcome(
        _full_leak_reference, P, xs, psi0, t_end, n_steps
    )


def test_kept_mode_leak_check_falls_back_without_a_leak():
    # The drift-free run of the mid-run leak test, stopped one step
    # before it leaks at step 1264: the kept modes come within the
    # dropped tail of the threshold, so the full check decides those
    # blocks, and no step is over it.
    xs = np.linspace(-10.5, 10.5, 501)
    n_steps = 1263
    t_end = 3.0 * n_steps / 1701
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    _, theta, edge, limit = _leak_setup(P, xs, psi0, t_end, n_steps)
    keep, tail = _leak_modes(np.abs(edge[:, 0]), limit)
    steps = np.arange(1, n_steps + 1)
    kept_amp = np.abs(np.exp(1j * np.multiply.outer(steps, theta[keep])) @ edge[keep]).max()
    assert kept_amp > limit - tail
    out = fd_propagate(P, xs, psi0, t_end, n_steps)
    assert out.tobytes() == _full_leak_reference(P, xs, psi0, t_end, n_steps).tobytes()


def test_kept_mode_leak_check_on_a_rough_profile():
    # Random phases inside a Gaussian envelope spread the edge weight
    # over most modes, so few are dropped.
    xs = np.linspace(-12.0, 12.0, 512)
    dx = xs[1] - xs[0]
    phase = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, xs.size)
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0) * np.exp(1j * phase)
    n_steps = int(np.ceil(0.5 / dx**2))
    _, _, edge, limit = _leak_setup(P, xs, psi0, 0.5, n_steps)
    keep, _ = _leak_modes(np.abs(edge[:, 0]), limit)
    assert keep.size > xs.size // 2
    assert _outcome(fd_propagate, P, xs, psi0, 0.5, n_steps) == _outcome(
        _full_leak_reference, P, xs, psi0, 0.5, n_steps
    )


def test_criterion_6_leak_check_keeps_few_modes():
    # The smallest modes are dropped, within half the threshold, and
    # the kept modes' sums stay clear of the threshold less that tail at
    # every step, so no block falls back to the full check.
    xs = np.linspace(-12.0, 12.0, 4096)
    dx = xs[1] - xs[0]
    n_steps = int(np.ceil(2.0 / (dx * dx * P.mass / P.hbar)))
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    _, theta, edge, limit = _leak_setup(P, xs, psi0, 2.0, n_steps)
    weight = np.abs(edge[:, 0])
    keep, tail = _leak_modes(weight, limit)
    assert keep.size <= 64
    assert tail <= limit / 2
    dropped = np.setdiff1d(np.arange(xs.size), keep)
    assert np.all(weight[dropped] <= np.min(weight[keep]))
    steps = np.arange(1, n_steps + 1)
    kept_amp = np.abs(np.exp(1j * np.multiply.outer(steps, theta[keep])) @ edge[keep]).max()
    assert kept_amp < (limit - tail) / 2


@pytest.mark.parametrize("bad", ["nan_psi0", "inf_psi0", "nan_x", "nan_t_end", "inf_t_end"])
def test_propagate_rejects_non_finite_inputs(bad):
    xs = _grid(512)
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    t_end = {"nan_t_end": np.nan, "inf_t_end": np.inf}.get(bad, 0.5)
    if bad == "nan_x":
        xs[200] = np.nan
    elif bad.endswith("psi0"):
        psi0[200] = np.nan if bad == "nan_psi0" else np.inf
    dx = xs[-1] - xs[-2]
    with pytest.raises(ValueError, match="finite"):
        fd_propagate(P, xs, psi0, t_end, int(np.ceil(0.5 / dx**2)))


@pytest.mark.parametrize("center", [0.0, 1e6], ids=["centred", "offset"])
def test_propagate_accepts_a_linspace_grid(center):
    # linspace points stray by up to ~2 eps max|x|: 2e-8 of dx at 1e6
    xs = np.linspace(center - 12.0, center + 12.0, 4096)
    slit = SlitSpec(center=center)
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    out = fd_propagate(P, xs, psi(P, slit, xs, 0.0).astype(complex), 0.5, int(np.ceil(0.5 / dx**2)))
    assert np.max(np.abs(out - psi(P, slit, xs, 0.5))) < 1e-6


def test_propagate_rejects_a_stretched_grid():
    # dx is taken from the endpoints: this grid once came back 0.066 off
    u = np.linspace(-20.0, 20.0, 2048)
    xs = 20.0 * np.sign(u) * (np.abs(u) / 20.0) ** 1.3
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    with pytest.raises(ValueError, match="uniform"):
        fd_propagate(P, xs, psi0, 0.5, int(np.ceil(0.5 / dx**2)))


def test_propagate_zero_profile_stays_zero():
    xs = _grid(256)
    out = fd_propagate(P, xs, np.zeros_like(xs, dtype=complex), 0.5, 100)
    assert np.all(out == 0.0)


def test_propagate_preserves_norm():
    xs = _grid()
    dx = xs[1] - xs[0]
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0)
    n_steps = int(np.ceil(0.5 / dx**2))
    out = fd_propagate(P, xs, psi0.astype(complex), 0.5, n_steps)
    norm0 = np.sum(np.abs(psi0) ** 2) * dx
    norm1 = np.sum(np.abs(out) ** 2) * dx
    assert abs(norm1 - norm0) < 1e-10 * norm0


def test_propagate_tracks_analytic_dispersion():
    xs = _grid()
    dx = xs[1] - xs[0]
    t_end = 0.4
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0)
    out = fd_propagate(P, xs, psi0.astype(complex), t_end, int(np.ceil(t_end / dx**2)))
    target = psi(P, SlitSpec(center=0.0), xs, t_end)
    assert np.max(np.abs(out - target)) < 1e-6


def test_propagate_rejects_coarse_time_step():
    xs = _grid(512)
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    with pytest.raises(ValueError, match="dt"):
        fd_propagate(P, xs, psi0, 2.0, 10)
    with pytest.raises(ValueError, match="n_steps >= 1"):
        fd_propagate(P, xs, psi0, 2.0, 0)
    for n_steps in (300.0, 300.5, True, np.True_):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            fd_propagate(P, xs, psi0, 0.5, n_steps)
    assert np.array_equal(fd_propagate(P, xs, psi0, 0.5, np.int64(300)),
                          fd_propagate(P, xs, psi0, 0.5, 300))


def test_propagate_detects_boundary_leak_on_entry():
    xs = np.linspace(-3.0, 3.0, 301)
    psi0 = psi(P, SlitSpec(center=0.0), xs, 0.0).astype(complex)
    dx = xs[1] - xs[0]
    with pytest.raises(BoundaryLeak):
        fd_propagate(P, xs, psi0, 0.1, int(np.ceil(0.1 / dx**2)))


def test_propagate_validates_shapes():
    xs = _grid(64)
    with pytest.raises(ValueError):
        fd_propagate(P, xs, np.zeros(32, dtype=complex), 0.1, 100)


def test_package_import_loads_no_scipy():
    src = str(Path(path_excitation.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import path_excitation, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "False"


def test_package_namespace_is_the_union_of_the_modules_all():
    """Each module's __all__ is the one list of its public names, and the
    package republishes each name as its defining module's own object."""
    modules = ("channels", "errors", "field", "oracle", "packet", "sorkin", "trajectories")
    listed = set()
    for name in modules:
        listed.update(importlib.import_module(f"path_excitation.{name}").__all__)
    public = {
        n for n in dir(path_excitation)
        if not n.startswith("_") and not inspect.ismodule(getattr(path_excitation, n))
    }
    assert public == listed
    for n in sorted(public):
        obj = getattr(path_excitation, n)
        assert obj is getattr(sys.modules[obj.__module__], n), n


def test_no_production_module_imports_channels():
    """channels is the verification twin: only the package root may import it."""
    pkg = Path(path_excitation.__file__).resolve().parent
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name in ("__init__.py", "channels.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "channels" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_packet_imports_only_errors_from_the_package():
    """packet holds the count and time rules that field, trajectories and
    oracle import, so any other package import there would be a cycle."""
    path = Path(path_excitation.__file__).resolve().parent / "packet.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "path_excitation"))} == {".errors"}


def test_parse_config_converts_value_errors_only_through_helpers():
    """parse_config keeps the parse rules; a value error reaches it only
    through cli._checked (a library rule) or cli._check_cap (a cap)."""
    path = Path(path_excitation.__file__).resolve().parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (func,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "parse_config"]
    offenders = []
    for node in ast.walk(func):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValidationError":
                offenders.append(f"raise ValidationError at line {node.lineno}")
        elif type(node).__name__ in ("Try", "TryStar"):
            offenders.append(f"try at line {node.lineno}")
    assert offenders == []


def test_only_the_cli_names_the_config_errors():
    """Library rules raise ValueError; cli._checked alone turns one into
    the CLI's ValidationError, and only the CLI parses into ParseError."""
    pkg = Path(path_excitation.__file__).resolve().parent
    config_errors = {"ParseError", "ValidationError"}
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name in ("cli.py", "errors.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = {
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)
            }
            if names & config_errors:
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert offenders == []


def test_cli_holds_no_tolerance_and_no_tolerance_comparison():
    """The verify and sorkin verdicts live beside their reports, in
    oracle and sorkin; the CLI writes what they return."""
    path = Path(path_excitation.__file__).resolve().parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def tolerance(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name.endswith(("_TOL", "_FLOOR"))

    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            offenders += [f"{ast.unparse(t)} defined at line {node.lineno}" for t in targets if tolerance(t)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(tolerance(sub) for op in operands for sub in ast.walk(op)):
                offenders.append(f"comparison at line {node.lineno}")
    assert offenders == []


def test_field_kernels_take_a_required_workspace():
    """Every field kernel writes into a field._Workspace, so there is one
    evaluation route: a ws that defaults to None would bring back an
    allocating second one.  The points are the workspace's, not an x."""
    for kernel in (field._pairwise, field._guidance, field._field, trajectories._velocity):
        ws = inspect.signature(kernel).parameters["ws"]
        assert ws.default is inspect.Parameter.empty, kernel.__name__
    for kernel in (field._pairwise, field._field):
        assert "x" not in inspect.signature(kernel).parameters, kernel.__name__


# -------------------------------------------------------------- equivalence


def test_continuity_of_density_and_current():
    """dP/dt + dJ/dx = 0, sampled by central differences on the smooth
    interior.  This is the convention-free arbiter that fixes the sign
    of the diffusive cross term, so it stays as a regression guard."""
    h = 1e-3
    xs = np.linspace(-4.0, 4.0, 33)
    t = 1.0
    p_plus, _ = qm_current(P, SYMMETRIC, BOTH, xs, t + h)
    p_minus, _ = qm_current(P, SYMMETRIC, BOTH, xs, t - h)
    _, j_right = qm_current(P, SYMMETRIC, BOTH, xs + h, t)
    _, j_left = qm_current(P, SYMMETRIC, BOTH, xs - h, t)
    resid = (p_plus - p_minus) / (2 * h) + (j_right - j_left) / (2 * h)
    assert np.max(np.abs(resid)) < 1e-4


def test_continuity_of_assembled_field():
    """The same continuity residual, but with P and J taken from the
    pairwise channel field instead of the complex amplitudes."""
    h = 1e-3
    xs = np.linspace(-4.0, 4.0, 33)
    t = 1.0

    def field_at(xv, tv):
        fs = pairwise_field(open_evals(P, SYMMETRIC, BOTH, xv, tv))
        return fs.p_tot, fs.j_tot

    p_plus, _ = field_at(xs, t + h)
    p_minus, _ = field_at(xs, t - h)
    _, j_right = field_at(xs + h, t)
    _, j_left = field_at(xs - h, t)
    resid = (p_plus - p_minus) / (2 * h) + (j_right - j_left) / (2 * h)
    assert np.max(np.abs(resid)) < 1e-4


def test_qm_current_matches_two_evaluation_spelling_bit_for_bit():
    """qm_current evaluates psi once per slit and forms dpsi/dx as psi
    times a named factor.  That equals evaluating psi again for the
    derivative, as psi(...) * (factor), bit for bit; 100001 points is
    large enough for numpy to reuse temporaries in a product."""
    slits = [
        SlitSpec(center=c, sigma0=s, drift=d, weight=w, phase0=ph)
        for c, s, d, w, ph in [
            (-10.0, 0.7, 0.4, 0.6, 0.3),
            (-6.0, 1.3, -0.25, 1.4, -1.1),
            (-2.0, 0.9, 0.1, 0.8, 2.0),
            (2.0, 1.6, -0.6, 1.1, 0.0),
            (6.0, 0.5, 0.35, 0.3, -0.7),
            (10.0, 1.1, -0.15, 2.2, 1.4),
        ]
    ]
    xs = np.linspace(-40.0, 40.0, 100001)
    t = 3.0
    total = np.zeros(xs.shape, dtype=complex)
    dtotal = np.zeros(xs.shape, dtype=complex)
    for slit in slits:
        st = slit.sigma0**2 + 1j * P.diffusion * t
        xi = xs - slit.center - slit.drift * t
        total = total + psi(P, slit, xs, t)
        dtotal = dtotal + psi(P, slit, xs, t) * (-xi / (2.0 * st) + 1j * P.mass * slit.drift / P.hbar)
    p, j = qm_current(P, slits, SlitMask.all_open(6), xs, t)
    assert np.array_equal(p, total.real**2 + total.imag**2)
    assert np.array_equal(j, (P.hbar / P.mass) * (np.conj(total) * dtotal).imag)


def test_equivalence_report_on_default_grid():
    grid = GridSpec(-15.0, 15.0, 2001, 2.0)
    rep = equivalence_report(P, SYMMETRIC, BOTH, grid)
    assert rep.max_abs_dev_p <= 1e-10 * rep.peak_p
    assert rep.max_abs_dev_j <= 1e-10 * rep.peak_j
    assert rep.max_rel_dev_v <= 1e-10
    assert rep.n_nodal < grid.n_points


def test_equivalence_report_asymmetric_config():
    slits = [
        SlitSpec(center=-2.0, sigma0=0.8, drift=0.3, weight=0.7, phase0=0.4),
        SlitSpec(center=1.5, sigma0=1.2, drift=-0.2, weight=1.3, phase0=-0.1),
    ]
    rep = equivalence_report(P, slits, BOTH, GridSpec(-12.0, 12.0, 1501, 1.7))
    assert rep.max_abs_dev_p <= 1e-10 * rep.peak_p
    assert rep.max_abs_dev_j <= 1e-10 * rep.peak_j
    assert rep.max_rel_dev_v <= 1e-10


def whole_grid_report(params, slits, mask, grid):
    """equivalence_report's reductions over one whole-grid evaluation."""
    sample = whole_grid_field(params, slits, mask, grid)
    p_o, j_o = qm_current(params, slits, mask, grid.points(), grid.t)
    v_o = np.where(sample.nodal, np.nan, j_o / np.where(sample.nodal, 1.0, p_o))
    live = ~sample.nodal & ~(np.isnan(sample.v_tot) & np.isnan(v_o))
    dv = np.abs(sample.v_tot - v_o)[live]
    scale = np.max(np.maximum(np.abs(sample.v_tot), np.abs(v_o))[live], initial=0.0)
    return EquivalenceReport(
        max_abs_dev_p=float(np.max(np.abs(sample.p_tot - p_o))),
        max_abs_dev_j=float(np.max(np.abs(sample.j_tot - j_o))),
        max_rel_dev_v=float(np.max(dv) / scale) if scale != 0.0 else 0.0,
        n_nodal=int(np.count_nonzero(sample.nodal)),
        peak_p=float(np.max(p_o)),
        peak_j=float(np.max(np.abs(j_o))),
    )


def assert_same_report(rep, ref):
    for name in ("max_abs_dev_p", "max_abs_dev_j", "max_rel_dev_v", "peak_p", "peak_j"):
        a, b = getattr(rep, name), getattr(ref, name)
        assert a == b or (np.isnan(a) and np.isnan(b)), name
    assert rep.n_nodal == ref.n_nodal


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("open_idx", [[0, 1, 2], [1], []], ids=["skewed", "one-slit", "empty"])
def test_blocked_equivalence_report_is_whole_grid_bit_for_bit(open_idx, n):
    grid = GridSpec(-15.0, 15.0, n, 2.0)
    mask = SlitMask(open_idx)
    assert_same_report(
        equivalence_report(P, SKEWED, mask, grid), whole_grid_report(P, SKEWED, mask, grid)
    )


@pytest.mark.parametrize("slits", [LATE_NAN, LATE_INF], ids=["nan", "inf"])
def test_equivalence_report_with_overflow_in_a_late_block(slits):
    grid = GridSpec(-15.0, 15.0, 3 * _BLOCK + 17, 2.0)
    mask = SlitMask.all_open(len(slits))
    with np.errstate(all="ignore"):
        rep = equivalence_report(P, slits, mask, grid)
        ref = whole_grid_report(P, slits, mask, grid)
    assert_same_report(rep, ref)
    if slits is LATE_NAN:
        assert rep.n_nodal == grid.n_points


# ------------------------------------------------------------------ verdict


def verify_report(**values):
    """An EquivalenceReport with no deviation, peak_p 2 and peak_j 0.5, updated by values."""
    return EquivalenceReport(**{
        "max_abs_dev_p": 0.0, "max_abs_dev_j": 0.0, "max_rel_dev_v": 0.0, "n_nodal": 0,
        "peak_p": 2.0, "peak_j": 0.5, **values,
    })


def test_verify_tolerance_is_pinned():
    assert VERIFY_TOL == 1e-10
    assert verify_report().passed


@pytest.mark.parametrize(
    ("name", "bound"),
    [("max_abs_dev_p", 2.0 * 1e-10), ("max_abs_dev_j", 0.5 * 1e-10), ("max_rel_dev_v", 1e-10)],
)
def test_verify_passes_a_deviation_at_its_bound(name, bound):
    assert verify_report(**{name: bound}).passed
    assert not verify_report(**{name: np.nextafter(bound, 1.0)}).passed


@pytest.mark.parametrize(
    "name", ["max_abs_dev_p", "max_abs_dev_j", "max_rel_dev_v", "peak_p", "peak_j"]
)
def test_verify_fails_a_nan(name):
    assert not verify_report(**{name: float("nan")}).passed
