"""Command-line front end: strict JSON config in, CSV/JSON artifacts out.

Subcommands: field, trajectories, sorkin, verify, packet.  Every run
echoes the fully resolved configuration (all defaults applied) next to
its outputs, so artifacts are self-describing and reruns are
reproducible.  Floating-point values in CSV files carry 17 significant
digits; repeated runs with the same config and seed produce
byte-identical files.

Exit codes: 0 success, 2 invalid config, 3 tolerance failure from
verify or sorkin, 4 runtime error.  Failures print a one-line JSON
object {"error": ..., "message": ...} to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ParseError, ValidationError
from .field import _BLOCK, DEFAULT_NODE_FLOOR, GridSpec, SlitMask, _check_node_floor, _grid_blocks
from .oracle import VERIFY_TOL, equivalence_report
from .packet import PhysParams, SlitSpec, _check_count, _check_domain, sigma_t
from .sorkin import SORKIN_TOL, sumrule_report, sumrule_verdict
from .trajectories import _resolve_dt, ensemble, quantile_initial, streamlines

__all__ = ["RunConfig", "parse_config", "echo_config", "run_subcommand", "main"]

MAX_STREAMLINES = 200
MAX_STREAMLINE_ROWS = 201
# Peak RSS grows by about 8 B per grid point for field and verify, and
# by 40 B for sorkin on 5 slits, the most its work budget admits here,
# so this many points stay under about 0.4 GB.
_MAX_GRID_POINTS = 10**7
# An ensemble holds about 270 B per trajectory with 2 slits and 520 B
# with 8 (peak RSS slope from 5e4 to 2e5 trajectories), so this many
# stay under about 0.5 GB.
_MAX_TRAJECTORIES = 1_000_000
# A histogram holds about 57 B per bin (peak RSS slope from 1e6 to 3e6
# bins), and more bins than the trajectory cap resolve nothing.
_MAX_BINS = 10**6

_TOP_KEYS = {"hbar", "mass", "slits", "mask", "grid", "trajectories", "node_floor"}
_SLIT_KEYS = tuple(f.name for f in fields(SlitSpec))  # in field order
_GRID_KEYS = {"xmin", "xmax", "n", "t"}
_TRAJ_KEYS = ("t0", "t1", "dt", "n", "bins", "seed")  # RunConfig's names, in echo order


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration.

    Every field is concrete except dt, where None selects error-controlled
    trajectory stepping.
    """

    params: PhysParams
    slits: tuple[SlitSpec, ...]
    mask: SlitMask
    grid: GridSpec
    t0: float
    t1: float
    dt: float | None
    n: int
    bins: int
    seed: int
    node_floor: float


class _Literal(str):
    """A NaN, Infinity or -Infinity literal (not JSON), or an integer too long for int().

    parse_config keeps it as this marker, which no reader accepts as a
    number, so the error names the key that holds it.
    """

    def __repr__(self) -> str:
        return str(self) if len(self) <= 20 else f"{self[:12]}... ({len(self)} characters)"


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _Literal(text)


def _number(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{where}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        value = float("inf")
    if not math.isfinite(value):
        raise ParseError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _integer(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{where}: expected an integer, got {raw!r}")
    return raw


def _checked(where: str, rule, *args, **kwargs):
    """rule(*args, **kwargs), its ValueError raised as ValidationError(where + message)."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{where}{exc}") from None


def _check_cap(value: int, cap: int, where: str) -> None:
    if value > cap:
        raise ValidationError(f"{where} = {value} exceeds the cap of {cap}")


def _object(value, allowed, where: str) -> dict:
    """value as a JSON object holding no key outside allowed."""
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    for key in sorted(set(value).difference(allowed)):
        raise ParseError(f"{where}: unknown key '{key}'")
    return value


def _load(text: str):
    """text as JSON, non-finite literals and over-long integers kept as _Literal."""
    try:
        return json.loads(text, parse_constant=_Literal, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate strict JSON configuration text.

    Structural problems (bad JSON, unknown or mistyped keys, a repeated
    mask index) raise ParseError.  A value outside a cap, or outside the
    library rule that _checked applies, raises ValidationError naming
    the key and the violated invariant.  Omitted keys take documented
    defaults.
    """
    raw = _load(text)
    if not isinstance(raw, dict):
        raise ParseError("top-level value must be an object")
    _object(raw, _TOP_KEYS, "config")

    kwargs = {key: _number(raw[key], key) for key in ("hbar", "mass") if key in raw}
    params = _checked("", PhysParams, **kwargs)

    slits_raw = raw.get("slits", [{"center": -3.0}, {"center": 3.0}])
    if not isinstance(slits_raw, list) or not slits_raw:
        raise ParseError("slits: expected a non-empty list of objects")
    slits = []
    for i, item in enumerate(slits_raw):
        where = f"slits[{i}]"
        _object(item, _SLIT_KEYS, where)
        if "center" not in item:
            raise ParseError(f"{where}: missing key 'center'")
        kwargs = {key: _number(item[key], f"{where}.{key}") for key in _SLIT_KEYS if key in item}
        slits.append(_checked(f"{where}: ", SlitSpec, **kwargs))

    mask_raw = raw.get("mask", list(range(len(slits))))
    if not isinstance(mask_raw, list):
        raise ParseError("mask: expected a list of slit indices")
    indices = [_integer(v, f"mask[{k}]") for k, v in enumerate(mask_raw)]
    if len(set(indices)) != len(indices):
        raise ParseError("mask: duplicate index")
    mask = _checked("", SlitMask, indices)
    _checked("", mask.select, slits)

    grid_raw = _object(raw.get("grid", {}), _GRID_KEYS, "grid")
    x_min = _number(grid_raw.get("xmin", -15.0), "grid.xmin")
    x_max = _number(grid_raw.get("xmax", 15.0), "grid.xmax")
    n_points = _integer(grid_raw.get("n", 2001), "grid.n")
    _check_cap(n_points, _MAX_GRID_POINTS, "grid.n")
    t = _number(grid_raw.get("t", 2.0), "grid.t")
    grid = _checked("grid: ", GridSpec, x_min=x_min, x_max=x_max, n_points=n_points, t=t)

    traj_raw = _object(raw.get("trajectories", {}), _TRAJ_KEYS, "trajectories")
    t0 = _number(traj_raw.get("t0", 1e-3), "trajectories.t0")
    t1 = _number(traj_raw.get("t1", grid.t), "trajectories.t1")
    dt = _checked("", _resolve_dt, t0, t1, None)  # the window, before dt is read
    if traj_raw.get("dt") is not None:  # an explicit null selects controlled stepping
        dt = _checked("", _resolve_dt, t0, t1, _number(traj_raw["dt"], "trajectories.dt"))
    for i, slit in enumerate(slits):  # every slit whatever the mask, as sorkin takes them all
        _checked(f"slits[{i}]: ", _check_domain, params, slit, (t0, t1))
        _checked(f"slits[{i}]: ", _check_domain, params, slit, (grid.t,), (grid.x_min, grid.x_max))
    n = _integer(traj_raw.get("n", 10000), "trajectories.n")
    _checked("", _check_count, n, "trajectories.n")
    _check_cap(n, _MAX_TRAJECTORIES, "trajectories.n")
    bins = _integer(traj_raw.get("bins", 100), "trajectories.bins")
    _checked("", _check_count, bins, "trajectories.bins")
    _check_cap(bins, _MAX_BINS, "trajectories.bins")
    seed = _integer(traj_raw.get("seed", 0), "trajectories.seed")
    _checked("", _check_count, seed, "trajectories.seed", 0)

    node_floor = _number(raw.get("node_floor", DEFAULT_NODE_FLOOR), "node_floor")
    _checked("", _check_node_floor, node_floor)

    return RunConfig(
        params=params,
        slits=tuple(slits),
        mask=mask,
        grid=grid,
        t0=t0,
        t1=t1,
        dt=dt,
        n=n,
        bins=bins,
        seed=seed,
        node_floor=node_floor,
    )


def _grid_json(grid: GridSpec) -> dict:
    return {"xmin": grid.x_min, "xmax": grid.x_max, "n": grid.n_points, "t": grid.t}


def echo_config(cfg: RunConfig) -> str:
    """Canonical JSON for cfg with every default applied explicitly.

    parse_config(echo_config(cfg)) reconstructs an equal RunConfig.
    """
    obj = {
        **asdict(cfg.params),
        "slits": [asdict(s) for s in cfg.slits],
        "mask": list(cfg.mask.indices()),
        "grid": _grid_json(cfg.grid),
        "trajectories": {key: getattr(cfg, key) for key in _TRAJ_KEYS},
        "node_floor": cfg.node_floor,
    }
    return json.dumps(obj, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, header: str, blocks) -> None:
    """Write blocks of equal-length columns as CSV rows under header.

    Each item of blocks is a list of array columns holding the next rows,
    so a caller can stream rows block by block.  Bool and integer columns
    are written "%d", every other column "%.17g" (nan and inf spelled
    nan, inf, -inf).  Rows are formatted in runs of field._BLOCK, one
    `%` per run, and written as they are made.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in columns) + "\n"
            for start in range(0, len(columns[0]), _BLOCK):
                block = np.column_stack([c[start:start + _BLOCK] for c in columns])
                fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _write_histogram(path: str, edges: np.ndarray, counts: np.ndarray) -> None:
    total = int(counts.sum())
    density = np.zeros(counts.shape)
    if total > 0:  # np.histogram and ensemble's fallback range give every bin a positive width
        density = counts / (total * np.diff(edges))
    _write_csv(path, "bin_left,bin_right,count,density", [[edges[:-1], edges[1:], counts, density]])


def _write_streamlines(cfg: RunConfig, path: str) -> None:
    n_lines = min(cfg.n, MAX_STREAMLINES)
    x0s = quantile_initial(cfg.params, list(cfg.slits), cfg.mask, cfg.t0, n_lines)
    times, paths, abort_steps = streamlines(
        cfg.params, list(cfg.slits), cfg.mask, x0s, cfg.t0, cfg.t1, cfg.dt,
        cfg.node_floor,
    )
    keep = np.unique(
        np.linspace(0, times.size - 1, min(times.size, MAX_STREAMLINE_ROWS)).astype(int)
    )
    # Line i keeps its sampled rows up to its abort step, if it aborted.
    last = np.where(abort_steps >= 0, abort_steps, times.size - 1)
    ids, cols = np.nonzero(keep[None, :] <= last[:, None])
    steps = keep[cols]
    _write_csv(path, "traj_id,t,x", [[ids, times[steps], paths[steps, ids]]])


_VALUES = "<values>"  # stands in for an order's values in the encoded layout


def _write_sorkin(path: str, payload: dict) -> None:
    """Write json.dumps(payload, indent=2) + "\n" for a sorkin payload.

    Each payload["orders"][k]["values"] is a non-empty float64 array.
    The indenting encoder is pure Python, so those arrays are written
    field._BLOCK values at a time instead, which keeps a chunk's table
    of distinct spellings that small however long an order is.  A
    chunk's distinct values, keyed by bit pattern so that 0.0 and -0.0
    stay apart, are spelled by one C-encoder call, as the indenting
    encoder spells them (repr, NaN, Infinity), and the chunk is joined
    from those spellings with an item separator that lays the items out
    8 spaces deep as the indenting encoder does, so the bytes are the
    same.  Orders 3 and up are the roundoff of sums that vanish
    identically, so their chunks hold few distinct values.
    """
    orders = payload["orders"]
    layout = {**payload, "orders": [{**o, "values": _VALUES} for o in orders]}
    pieces = json.dumps(layout, indent=2).split(json.dumps(_VALUES))
    pad = "\n" + " " * 8
    sep = "," + pad
    with open(path, "w", newline="\n") as fh:
        fh.write(pieces[0])
        for order, piece in zip(orders, pieces[1:]):
            values = order["values"]
            fh.write("[" + pad)
            for start in range(0, len(values), _BLOCK):
                bits, inverse = np.unique(
                    values[start:start + _BLOCK].view(np.int64), return_inverse=True
                )
                spelled = json.dumps(bits.view(float).tolist())[1:-1].split(", ")
                fh.write((sep if start else "") + sep.join([spelled[i] for i in inverse.tolist()]))
            fh.write(pad[:-2] + "]" + piece)
        fh.write("\n")


def _run_field(cfg: RunConfig, out_dir: str) -> int:
    n_open = len(cfg.mask.open)
    header = "x,P_tot,J_tot,v_tot,nodal" + "".join(f",R_{k + 1}" for k in range(n_open))
    blocks = _grid_blocks(cfg.params, list(cfg.slits), cfg.mask, cfg.grid, cfg.node_floor)
    columns = (
        [x, fs.p_tot, fs.j_tot, fs.v_tot, fs.nodal, *(ev.amplitude for ev in evals)]
        for x, evals, fs in blocks
    )
    _write_csv(os.path.join(out_dir, "field.csv"), header, columns)
    return 0


def _run_trajectories(cfg: RunConfig, out_dir: str) -> int:
    result = ensemble(
        cfg.params, list(cfg.slits), cfg.mask, cfg.t0, cfg.t1, cfg.n, cfg.dt,
        cfg.bins, cfg.seed, cfg.node_floor,
    )
    _write_histogram(os.path.join(out_dir, "histogram.csv"), result.bin_edges, result.counts)
    _write_streamlines(cfg, os.path.join(out_dir, "trajectories.csv"))
    return 0


def _run_sorkin(cfg: RunConfig, out_dir: str) -> int:
    reports = _checked("", sumrule_report, cfg.params, list(cfg.slits), cfg.grid)
    violation, passed = sumrule_verdict(reports)
    payload = {
        "scale": reports[0].scale,
        "first_order_violation": violation,
        "tolerance": SORKIN_TOL,
        "passed": passed,
        "orders": [
            {
                "order": r.order,
                "max_abs": r.max_abs,
                "normalized_max": r.normalized_max,
                "values": r.values,
            }
            for r in reports
        ],
    }
    _write_sorkin(os.path.join(out_dir, "sorkin.json"), payload)
    return 0 if passed else 3


def _run_verify(cfg: RunConfig, out_dir: str) -> int:
    report = equivalence_report(cfg.params, list(cfg.slits), cfg.mask, cfg.grid, cfg.node_floor)
    payload = {**asdict(report), "tolerance": VERIFY_TOL, "passed": report.passed}
    payload["grid"] = _grid_json(cfg.grid)
    _write(os.path.join(out_dir, "verify.json"), json.dumps(payload, indent=2) + "\n")
    return 0 if report.passed else 3


def _run_packet(cfg: RunConfig, out_dir: str) -> int:
    slit = (cfg.mask.select(cfg.slits) or cfg.slits)[0]
    ts = np.linspace(0.0, cfg.grid.t, 201)
    sigma = np.array([sigma_t(cfg.params, slit, float(t)) for t in ts])
    path = os.path.join(out_dir, "packet.csv")
    _write_csv(path, "t,sigma,variance", [[ts, sigma, sigma * sigma]])
    return 0


# name: (runner, help), in the order the subcommands are listed
_COMMANDS = {
    "field": (_run_field, "evaluate P_tot, J_tot, v_tot on the grid and write field.csv"),
    "trajectories": (
        _run_trajectories, "integrate an ensemble; write trajectories.csv and histogram.csv"
    ),
    "sorkin": (
        _run_sorkin,
        "write sorkin.json with the interference hierarchy of all slits (ignores mask)",
    ),
    "verify": (_run_verify, "compare field against the amplitude oracle; write verify.json"),
    "packet": (_run_packet, "write packet.csv with the dispersion law of one packet"),
}
SUBCOMMANDS = tuple(_COMMANDS)


def run_subcommand(name: str, config: RunConfig, out_dir: str = ".") -> int:
    """Run one subcommand, writing artifacts into out_dir.

    Returns the process exit status; tolerance failures from verify and
    sorkin return 3 after still writing their reports.
    """
    if name not in _COMMANDS:
        raise ValueError(f"unknown subcommand '{name}'")
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "config_echo.json"), echo_config(config))
    return _COMMANDS[name][0](config, out_dir)


def _emit_error(exc: BaseException) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="path-excitation",
        description="n-slit interference fields, trajectories, and sum-rule checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config file (defaults apply when omitted)")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            text = "{}"
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read config file: {exc}") from None
        cfg = parse_config(text)
        if args.seed is not None:
            _checked("", _check_count, args.seed, "trajectories.seed", 0)
            cfg = replace(cfg, seed=args.seed)
        return run_subcommand(args.command, cfg, args.out_dir)
    except (ParseError, ValidationError) as exc:
        _emit_error(exc)
        return 2
    except Exception as exc:  # runtime failures; still machine readable
        _emit_error(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
