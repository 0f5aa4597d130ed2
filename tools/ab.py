"""Alternate benchmark runs of two checkouts and judge the difference.

    python tools/ab.py --base DIR --head DIR --workload W --pairs N [--seconds S]

Each checkout's own, unmodified perfbench/run.py runs the workload as
``--workload W --seed I --seconds S`` for pair I = 0 .. N-1, base and
head with the same seed, and the side that runs first alternates from
pair to pair.  Make the checkouts with ``git archive`` into directories
whose paths have the same length: the path lengths of a checkout move
where the interpreter's import-time allocations land, and with them the
heap layout and the minor page faults of the runs.  A claim compares
two programs under one benchmark, so a warning goes to stderr when
BENCHMARK.json or any file under its "paths" differs between the
checkouts (by sha256; __pycache__ is skipped).

The output is one line per run (its end-to-end metrics and the minor
page faults of run.py and its workload processes, from RUSAGE_CHILDREN),
then one line per metric of the base's BENCHMARK.json,

    <metric>  wins <W>/<N>  base <median> [<q1> <q3>]  head <median>  gap <head - base>  claim <verdict>

where W counts the pairs head won and the verdict is "met" or "not met".

Quartiles are statistics.quantiles(..., method="inclusive").  A claim
is met when head wins at least nine tenths of the pairs (ties count for
neither side) and the medians differ by more than the base's
interquartile range.  The last line gives each side's median minor
faults per run.  The exit status is 1 when a run fails, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, int]:
    """(metric values, minor faults) of one run.py run in checkout."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, faults


def benchmark_digests(checkout: Path) -> dict[str, str]:
    """sha256 of BENCHMARK.json and of each file under its paths, by relative path."""
    spec = checkout / "BENCHMARK.json"
    files = [spec]
    for name in json.loads(spec.read_text()).get("paths", []):
        root = checkout / name
        if root.is_dir():
            files += (f for f in root.rglob("*") if f.is_file() and "__pycache__" not in f.parts)
        elif root.is_file():
            files.append(root)
    return {
        f.relative_to(checkout).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in files
    }


def summarize(spec: dict, base: list[float], head: list[float]) -> str:
    """One summary line for metric spec over paired runs base[i], head[i]."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (b - h) > 0.0 for b, h in zip(base, head))
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    mb, mh = statistics.median(base), statistics.median(head)
    met = wins >= 0.9 * len(base) and sign * (mb - mh) > q3 - q1
    return (
        f"{spec['name']}  wins {wins}/{len(base)}  base {mb:.6g} [{q1:.6g} {q3:.6g}]"
        f"  head {mh:.6g}  gap {mh - mb:+.6g}  claim {'met' if met else 'not met'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    if len(str(sides["base"])) != len(str(sides["head"])):
        print(
            f"warning: checkout paths differ in length ({len(str(sides['base']))} and "
            f"{len(str(sides['head']))} characters), which can move the heap layout",
            file=sys.stderr,
        )
    base_files, head_files = (benchmark_digests(sides[side]) for side in ("base", "head"))
    differ = sorted(
        name for name in base_files.keys() | head_files.keys()
        if base_files.get(name) != head_files.get(name)
    )
    if differ:
        print(f"warning: benchmark files differ between the checkouts: {', '.join(differ)}",
              file=sys.stderr)
    specs = json.loads((sides["base"] / "BENCHMARK.json").read_text())["end_to_end"]
    values = {"base": [], "head": []}
    faults = {"base": [], "head": []}
    for seed in range(args.pairs):
        order = ("base", "head") if seed % 2 == 0 else ("head", "base")
        for side in order:
            try:
                metrics, flt = _run(sides[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"run failed: {exc}", file=sys.stderr)
                return 1
            values[side].append(metrics)
            faults[side].append(flt)
            shown = "  ".join(f"{k} {v:.6g}" for k, v in metrics.items())
            print(f"pair {seed} {side}  {shown}  minflt {flt}", flush=True)
    for spec in specs:
        name = spec["name"]
        print(summarize(spec, [m[name] for m in values["base"]], [m[name] for m in values["head"]]))
    print(
        f"minflt per run  base {statistics.median(faults['base']):.0f}"
        f"  head {statistics.median(faults['head']):.0f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
