"""One benchmark process: build a workload's inputs, run it once, check the artifacts.

    python3 perfbench/workload.py WORKLOAD SEED OUT_DIR MODE

MODE is ``setup`` (stop once the inputs are built), ``plain`` (run
untraced) or ``trace`` (run with the package's layers wrapped by
tracer.Tracer).  The process writes OUT_DIR/result.json.  Its
timestamps come from time.monotonic(), the clock run.py reads when it
starts the process, so the two subtract to set-up and wall times.

An operation is one subcommand call or one propagation.  It fails on an
exception, a nonzero exit status or an artifact check that does not
pass; run.py adds a failure when its artifacts differ from those of an
earlier process of the same run.
"""

import time  # noqa: I001  (first, so set-up time includes every other import)
import contextlib
import json
import os
import resource
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import path_excitation  # noqa: E402
from path_excitation import cli, field, oracle, packet, trajectories  # noqa: E402

# Criterion 4's TV threshold of 0.02 is made for 1e5 samples.  The
# ensemble workload transports the CLI default of 1e4, where seeds 0-23
# of the seed state gave TV 0.029-0.039; 0.05 leaves room for any seed.
TV_BOUND = 0.05
CROSSING_TOL = 1e-9  # trajectories.CROSSING_TOL of the seed state
PROPAGATE_TOL = 1e-6  # criterion 6
PROPAGATE_T = 2.0
# Six slits 4 apart on a fine, wide grid: 15 slit pairs evaluated on few
# large arrays, and 2^6 - 1 = 63 subset runs in sorkin.
GRID_CONFIG = {
    "slits": [{"center": c} for c in (-10.0, -6.0, -2.0, 2.0, 6.0, 10.0)],
    "grid": {"xmin": -40.0, "xmax": 40.0, "n": 100001, "t": 3.0},
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "PATH_EXCITATION_THREADS",
)


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ensemble: the CLI default trajectories run, seeded like --seed.


def ensemble_setup(seed: int):
    return replace(cli.parse_config("{}"), seed=seed)


def ensemble_ops(cfg):
    return [("trajectories", lambda out: cli.run_subcommand("trajectories", cfg, str(out)))]


def check_trajectories(cfg, out: Path, kept) -> list[str]:
    problems = []
    hist = _csv(out / "histogram.csv")
    counts = hist[:, 2]
    n_ok = int(counts.sum())
    if n_ok != cfg.n:
        problems.append(f"histogram holds {n_ok} of {cfg.n} trajectories")
    # Criterion 4's total variation against the t1 intensity.
    edges = np.append(hist[:, 0], hist[-1, 1])
    slits = list(cfg.slits)
    fine = np.linspace(edges[0], edges[-1], edges.size * 40)
    p_fine = field.intensity(field.open_evals(cfg.params, slits, cfg.mask, fine, cfg.t1))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p_fine[1:] + p_fine[:-1]) * np.diff(fine))])
    wide = np.linspace(-30.0, 30.0, 20001)
    total = np.trapezoid(field.intensity(field.open_evals(cfg.params, slits, cfg.mask, wide, cfg.t1)), wide)
    q = np.diff(np.interp(edges, fine, cum)) / total
    tv = 0.5 * float(np.sum(np.abs(counts / max(n_ok, 1) - q))) + 0.5 * abs(1.0 - float(q.sum()))
    if not tv <= TV_BOUND:
        problems.append(f"endpoint TV {tv:.4f} > {TV_BOUND}")
    # Recorded streamlines: none aborted, and none crosses its neighbour.
    lines = _csv(out / "trajectories.csv")
    rows = np.bincount(lines[:, 0].astype(int))
    if rows.size != cli.MAX_STREAMLINES or np.any(rows != rows[0]):
        problems.append("streamlines are missing or cut short")
    else:
        paths = lines[:, 2].reshape(rows.size, rows[0])
        if np.any(np.diff(paths, axis=0) < -CROSSING_TOL):
            problems.append("recorded streamlines cross")
    for res in kept.get("trajectories.ensemble", ()):
        if res.n_aborted or res.n_crossing_violations:
            problems.append(
                f"ensemble aborted {res.n_aborted}, crossings {res.n_crossing_violations}"
            )
    return problems


# propagate: criterion 6's Crank-Nicolson run of the free packet.


def propagate_setup(seed: int):
    del seed  # deterministic: the same propagation for every seed
    params = packet.PhysParams()
    slit = packet.SlitSpec(center=0.0)
    xs = np.linspace(-12.0, 12.0, 4096)
    dx = xs[1] - xs[0]
    n_steps = int(np.ceil(PROPAGATE_T / (dx * dx * params.mass / params.hbar)))
    psi0 = packet.psi(params, slit, xs, 0.0).astype(complex)
    return params, slit, xs, psi0, n_steps


def propagate_ops(inputs):
    params, _, xs, psi0, n_steps = inputs

    def run(out: Path) -> int:
        np.save(out / "evolved.npy", oracle.fd_propagate(params, xs, psi0, PROPAGATE_T, n_steps))
        return 0

    return [("propagate", run)]


def check_propagate(inputs, out: Path, kept) -> list[str]:
    params, slit, xs, _, _ = inputs
    evolved = np.load(out / "evolved.npy")
    err = float(np.max(np.abs(evolved - packet.psi(params, slit, xs, PROPAGATE_T))))
    return [] if err <= PROPAGATE_TOL else [f"propagation error {err:.3e} > {PROPAGATE_TOL}"]


# grid: field, verify and sorkin on six slits; no randomness.


def grid_setup(seed: int):
    del seed  # deterministic: the same grid for every seed
    return cli.parse_config(json.dumps(GRID_CONFIG))


def grid_ops(cfg):
    return [
        (name, lambda out, name=name: cli.run_subcommand(name, cfg, str(out)))
        for name in ("field", "verify", "sorkin")
    ]


def check_field(cfg, out: Path, kept) -> list[str]:
    rows = _csv(out / "field.csv")
    if rows.shape != (cfg.grid.n_points, 5 + len(cfg.mask.open)):
        return [f"field.csv holds {rows.shape} values, not one row per grid point"]
    problems = []
    if not np.array_equal(rows[:, 0], cfg.grid.points()):
        problems.append("field.csv x column is not the grid")
    p, v, nodal = rows[:, 1], rows[:, 3], rows[:, 4]
    if not np.all((nodal == 0) | (nodal == 1)):
        problems.append("nodal flags are not 0/1")
    flagged = nodal == 1
    if np.any(flagged != np.isnan(v)):
        problems.append("nodal flags disagree with NaN velocities")
    if np.any(flagged != (p < cfg.node_floor * np.max(p))):
        problems.append("nodal flags disagree with the node floor")
    return problems


def check_verify(cfg, out: Path, kept) -> list[str]:
    rep = _json(out / "verify.json")
    tol = rep["tolerance"]
    problems = []
    if rep["max_abs_dev_p"] > tol * rep["peak_p"] or rep["max_abs_dev_j"] > tol * rep["peak_j"]:
        problems.append("pairwise and oracle routes disagree in P or J")
    return problems


def check_sorkin(cfg, out: Path, kept) -> list[str]:
    rep = _json(out / "sorkin.json")
    if [o["order"] for o in rep["orders"]] != list(range(2, len(cfg.slits) + 1)):
        return ["sorkin.json does not hold orders 2..n"]
    return []


WORKLOADS = {
    "ensemble": (ensemble_setup, ensemble_ops, {"trajectories": check_trajectories}),
    "propagate": (propagate_setup, propagate_ops, {"propagate": check_propagate}),
    "grid": (
        grid_setup,
        grid_ops,
        {"field": check_field, "verify": check_verify, "sorkin": check_sorkin},
    ),
}


# Modules only the benchmark needs are imported after set-up, so that
# setup_s holds the program's own import cost.


def _env() -> dict:
    import importlib.metadata
    import platform

    workers = getattr(trajectories, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),  # scipy itself is not imported
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "trajectories.workers": workers(10000) if workers else None,
    }


def _digests(out: Path) -> dict:
    import hashlib

    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def main(argv) -> int:
    workload, seed, out_dir, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    pkg_dir = Path(path_excitation.__file__).resolve().parent
    if pkg_dir != ROOT / "src" / "path_excitation":
        print(f"path_excitation imported from {pkg_dir}, not this checkout", file=sys.stderr)
        return 2
    setup, make_ops, checks = WORKLOADS[workload]
    tracer = None
    if mode == "trace":
        from tracer import Tracer, layer_metrics  # only traced processes pay for it

        tracer = Tracer(keep=("trajectories.ensemble",))
    ran = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        inputs = setup(seed)
        t_setup = time.monotonic()
        for name, run in make_ops(inputs) if mode != "setup" else ():
            out = out_dir / name
            out.mkdir(parents=True)
            try:
                status, error = run(out), None
            except Exception as exc:  # the operation fails; the run goes on
                status, error = None, f"{type(exc).__name__}: {exc}"
            ran.append((name, out, status, error))
    if mode == "setup":
        _write_result(out_dir, {"t_setup": t_setup})
        return 0

    kept = tracer.returns if tracer is not None else {}
    ops, written = [], 0
    for name, out, status, error in ran:
        problems = []
        if error is None:
            try:
                problems = checks[name](inputs, out, kept)
            except Exception as exc:  # a missing or malformed artifact fails the check
                problems = [f"unreadable artifact: {type(exc).__name__}: {exc}"]
        digests = _digests(out)
        written += sum((out / f).stat().st_size for f in digests)
        ops.append(
            {"name": name, "status": status, "error": error, "problems": problems, "digests": digests}
        )
    t_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_setup": t_setup,
        "t_done": t_done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "ops": ops,
        "env": _env(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, written)
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    _write_result(out_dir, result)
    return 0


def _write_result(out_dir: Path, result: dict) -> None:
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
