"""Print sha256 digests of every CLI artifact over a fixed set of configs.

    PYTHONPATH=src python tools/artifact_digests.py
    PYTHONPATH=<parent>/src python tools/artifact_digests.py

Each (config, subcommand) pair runs in-process through run(), the one
runner the CLI tests share, in a fresh temporary directory, with the
path_excitation package found on PYTHONPATH; the tool writes that
package's directory to stderr, so a comparison shows which tree ran.
For every artifact the output holds one line

    <sha256>  <config>/<subcommand>/<file>

followed by the exit status and, when the run wrote one, the JSON error
line from stderr (other stderr output, such as numpy warnings, is left
out).  Run it with this tree's src and with its parent's and diff the
outputs to confirm that a change leaves every artifact, exit code and
error message byte-identical.  tests/test_artifact_digests.py compares
current_lines() with the recorded tests/artifact_digests.txt.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import path_excitation
from path_excitation.cli import main

ALL = ("field", "verify", "sorkin", "trajectories", "packet")

GRID = {
    "slits": [{"center": c} for c in (-10.0, -6.0, -2.0, 2.0, 6.0, 10.0)],
    "grid": {"xmin": -40.0, "xmax": 40.0, "n": 100001, "t": 3.0},
}
EIGHT = {
    "slits": [{"center": float(c)} for c in range(-14, 15, 4)],
    "grid": {"xmin": -40.0, "xmax": 40.0, "n": 4001, "t": 3.0},
}
# Three skewed slits (unequal sigma0 and weight, drift, phase0) on
# 2 * 4096 + 17 points: the grid path streams blocks of 4096 points,
# so this spans three blocks with a ragged tail.
BLOCKS = {
    "slits": [
        {"center": -4.0, "sigma0": 0.7, "drift": 0.4, "weight": 0.6, "phase0": 0.3},
        {"center": 0.5, "sigma0": 1.3, "drift": -0.25, "weight": 1.4, "phase0": -1.1},
        {"center": 5.0, "sigma0": 0.9, "drift": 0.1, "weight": 0.8, "phase0": 2.0},
    ],
    "grid": {"xmin": -15.0, "xmax": 15.0, "n": 2 * 4096 + 17, "t": 2.0},
}
# Colliding packets under a coarse node floor: 6 of the 200 streamlines
# abort, 4 of them after the first step, on either step mode.
COLLIDING_NODAL = {
    "slits": [{"center": -3.0, "drift": 1.0}, {"center": 3.0, "drift": -1.0}],
    "node_floor": 0.01,
    "trajectories": {"t1": 4.0, "n": 500},
}

# (label, config, subcommands)
CASES = [
    ("default", {}, ALL),
    ("grid", GRID, ("field", "verify", "sorkin")),
    ("eight", EIGHT, ("verify",)),
    ("blocks", BLOCKS, ("field", "verify", "sorkin")),
    # one open slit: its convective velocity is the field's, verbatim
    ("blocks_single", {**BLOCKS, "mask": [1]}, ("field", "verify")),
    (
        "single",
        {"slits": [{"center": 0.5}], "trajectories": {"n": 500}},
        ("field", "verify", "trajectories"),
    ),
    # dark on the grid; trajectories has no density to sample (exit 4)
    # and sorkin runs every slit whatever the mask
    ("empty_mask", {"mask": []}, ("field", "verify", "trajectories", "sorkin")),
    (
        "one_zero_weight",
        {"slits": [{"center": -3.0}, {"center": 3.0, "weight": 0.0}]},
        ("field", "verify"),
    ),
    (
        "all_zero_weight",
        {"slits": [{"center": -3.0, "weight": 0.0}, {"center": 3.0, "weight": 0.0}]},
        ("field", "verify"),
    ),
    # a dark field reached through weights, on a small grid and through
    # trajectories too: every grid point nodal, and no density to sample
    (
        "dark_weights",
        {
            "slits": [{"center": -1.0, "weight": 0.0}, {"center": 1.0, "weight": 0.0}],
            "grid": {"xmin": -5.0, "xmax": 5.0, "n": 11, "t": 1.0},
            "trajectories": {"n": 50},
        },
        ("field", "verify", "trajectories"),
    ),
    # the explicit-dt (fixed RK4) path at the floor step of the default window
    ("fixed_dt", {"trajectories": {"dt": 0.0009995, "n": 500}}, ("trajectories",)),
    ("bad_window_dt", {"trajectories": {"t0": 2, "t1": 1, "dt": "x"}}, ("field",)),
    # mid-run nodal aborts on the controlled and the fixed-step path
    ("colliding_nodal", COLLIDING_NODAL, ("trajectories",)),
    (
        "colliding_nodal_dt",
        {**COLLIDING_NODAL, "trajectories": {**COLLIDING_NODAL["trajectories"], "dt": 0.02}},
        ("trajectories",),
    ),
    # over the step-count cap; run with "field", which never integrates,
    # so a checkout without the cap does not attempt 2e9 steps
    ("cap", {"trajectories": {"dt": 1e-9}}, ("field",)),
    # over the trajectory-count cap of 10**6, also run with "field"
    ("cap_n", {"trajectories": {"n": 10**6 + 1}}, ("field",)),
    # over the grid-point cap of 10**7, run with "packet", which never
    # builds the grid, and over the bin cap of 10**6, run with "field"
    ("cap_grid", {"grid": {"n": 10**7 + 1}}, ("packet",)),
    ("cap_bins", {"trajectories": {"bins": 10**6 + 1}}, ("field",)),
    # over sorkin's work budget, 3^13 x 3764 > 6e9 terms; a checkout
    # without the budget runs it (about 13 s and 250 MB)
    (
        "budget",
        {"slits": [{"center": 4.0 * k} for k in range(13)], "grid": {"n": 3764}},
        ("sorkin",),
    ),
    # far slits whose amplitude underflows to 0 on the grid: they add
    # nothing (their NaN carriers once made every density NaN); pins
    # the nan spelling of nodal velocities in CSV
    (
        "nan_density",
        {
            "slits": [{"center": c} for c in (-1e200, 0.0, 1e200)],
            "grid": {"xmin": -15.0, "xmax": 15.0, "n": 201, "t": 2.0},
        },
        ("field", "verify", "sorkin"),
    ),
    # sorkin runs over every configured slit whatever the mask
    ("masked", {"mask": [0]}, ("sorkin",)),
    # written as the non-standard JSON literal NaN
    ("nonfinite", {"slits": [{"center": float("nan")}]}, ("field",)),
    ("bad_dt", {"trajectories": {"dt": -1}}, ("field",)),
    ("bad_hbar", {"hbar": True}, ("field",)),
    ("bad_sigma", {"slits": [{"center": 0, "sigma0": -1}]}, ("field",)),
    # values the packet formulas cannot form as doubles: exit 2 naming
    # the slit, the output and the time
    ("overflow_sigma", {"slits": [{"center": 0, "sigma0": 1e200}]}, ("field",)),
    ("underflow_sigma", {"slits": [{"center": 0, "sigma0": 1e-200}]}, ("packet",)),
    ("overflow_drift", {"slits": [{"center": 0, "drift": 1e200}]}, ("verify",)),
    ("overflow_hbar", {"hbar": 1e300}, ("verify",)),
    # finite configs whose sampler intensity would be NaN: the domain
    # check rejects them at parse time, exit 2 naming the slit
    ("nan_sampler_hbar", {"hbar": 1e150, "trajectories": {"n": 50}}, ("trajectories",)),
    (
        "nan_sampler_wide",
        {"slits": [{"center": 0, "sigma0": 1e154}], "trajectories": {"n": 50}},
        ("trajectories",),
    ),
    (
        "nan_sampler_narrow",
        {"slits": [{"center": 0, "sigma0": 1e-160}], "trajectories": {"n": 50}},
        ("trajectories",),
    ),
    # sigma_t's tau * tau overflows at t0, while field alone once passed
    (
        "tiny_sigma_t0",
        {"slits": [{"center": -3}, {"center": 3, "sigma0": 1e-80}], "trajectories": {"n": 50}},
        ("field", "trajectories", "packet"),
    ),
    # a lone survivor near 3e50, where numpy's +-0.5 range widening rounds away
    (
        "far_lone_survivor",
        {
            "slits": [{"center": 2.09128160260725}],
            "hbar": 7.652941851576945e50,
            "grid": {"n": 47},
            "trajectories": {"n": 1, "bins": 6},
        },
        ("trajectories",),
    ),
    # a phase that overflows at grid.t
    (
        "phase_overflow_grid_t",
        {
            "slits": [
                {"center": 0.8015171634341023, "sigma0": 9.596781953312769e150,
                 "drift": -1.8299560776148117e20},
                {"center": 2.6553656400556065, "sigma0": 3.013393755405122e100},
            ],
            "grid": {"n": 51, "t": 3.038992853048083e50},
            "trajectories": {"n": 1, "bins": 4},
        },
        ("trajectories",),
    ),
    # failing verdicts, exit 3: a phase of 1e8 leaves the velocities
    # 4.2e-9 apart, over the verify tolerance
    (
        "phase_roundoff",
        {"slits": [{"center": -3.0}, {"center": 3.0, "phase0": 1e8}]},
        ("verify",),
    ),
    # slits too far apart to overlap on the grid: no first-order violation
    (
        "dead_fringe",
        {
            "slits": [{"center": -30.0}, {"center": 30.0}],
            "grid": {"xmin": -35.0, "xmax": 35.0, "n": 301, "t": 0.1},
        },
        ("sorkin",),
    ),
]


def digest_lines(label: str, sub: str, out: Path, code: int, stderr: str) -> list[str]:
    """The output lines of one run: its artifacts in out, its exit status and error line."""
    lines = []
    for f in sorted(out.iterdir()) if out.is_dir() else ():
        digest = hashlib.sha256(f.read_bytes()).hexdigest()
        lines.append(f"{digest}  {label}/{sub}/{f.name}")
    lines.append(f"exit {code}  {label}/{sub}")
    # Only the CLI's JSON error line: warnings name source paths and lines.
    lines += [f"stderr {err}  {label}/{sub}" for err in stderr.splitlines() if err.startswith("{")]
    return lines


def run(sub: str, config, out: Path) -> tuple[int, str]:
    """Run one subcommand in-process: (exit status, stderr text).

    config (a dict, or JSON text as written) goes to out.json beside the
    output directory out; warnings are silenced, stderr is captured.
    """
    cfg_path = out.with_name(out.name + ".json")
    cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([sub, "--config", str(cfg_path), "--out-dir", str(out)])
    return code, err.getvalue()


def current_lines() -> list[str]:
    """The output lines of every case, each run in-process in a fresh directory."""
    lines = []
    for label, config, subs in CASES:
        for sub in subs:
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out"
                lines += digest_lines(label, sub, out, *run(sub, config, out))
    return lines


if __name__ == "__main__":
    print(f"path_excitation from {Path(path_excitation.__file__).parent}", file=sys.stderr)
    print("\n".join(current_lines()))
