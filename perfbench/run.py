"""Benchmark driver: run one workload, check its artifacts, print its metrics.

    python3 perfbench/run.py --workload {ensemble,propagate,grid} --seed N --seconds S --trace {0,1}

Every operation runs in a fresh Python process (perfbench/workload.py)
that imports the package from this checkout's src/, builds its inputs,
runs and checks its artifacts in a temporary directory; the driver runs
one such process at a time and starts no threads.  Set-up time, CPU
time and peak memory are therefore each process's own.

--trace 0 starts a set-up warm-up, then as many processes as should end
within S seconds (at least two, so the artifacts can be compared), then
SETUP_PROBES processes that only set up.  It prints every end-to-end
metric of BENCHMARK.json as the median over the processes.
--trace 1 runs one untraced and one traced process and prints every
per-layer metric from the traced one, plus trace.overhead_s, the traced
minus the untraced wall time.

Every process's artifacts must hash the same as the first process's of
the run; a mismatch fails the operation.  Digests are never compared
across runs or commits.  The last line of standard output is the
result object; the line before it is the full report, including the
environment, per-process figures and the digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("ensemble", "propagate", "grid")
SETUP_PROBES = 4
BUDGET_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not measure the run."""


def _spawn(workload: str, seed: int, mode: str, tmp: Path, deadline: float) -> dict:
    out = Path(tempfile.mkdtemp(dir=tmp))
    cmd = [sys.executable, str(HERE / "workload.py"), workload, str(seed), str(out), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=dict(os.environ, TMPDIR=str(out)),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} process did not end within the run's budget")
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(
            f"{workload} {mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    res = json.loads(result_path.read_text())
    res["setup_s"] = res["t_setup"] - start
    if "t_done" in res:
        res["wall_s"] = res["t_done"] - start
        res["out"] = out
    return res


def _run_processes(args, tmp: Path) -> tuple[list[dict], list[float]]:
    deadline = time.monotonic() + BUDGET_S
    _spawn(args.workload, args.seed, "setup", tmp, deadline)  # fills file caches
    if args.trace:
        procs = [
            _spawn(args.workload, args.seed, mode, tmp, deadline) for mode in ("plain", "trace")
        ]
        return procs, []
    procs = []
    begin = time.monotonic()
    while True:
        procs.append(_spawn(args.workload, args.seed, "plain", tmp, deadline))
        # Start another process only if it should end within --seconds,
        # judged by the last one; at least two, for the digest comparison.
        now, last = time.monotonic(), procs[-1]["wall_s"]
        if len(procs) >= 2 and now + last > begin + args.seconds:
            break
        if now + 2 * last > deadline:
            break
    probes = [
        _spawn(args.workload, args.seed, "setup", tmp, deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    return procs, probes


def _tally(procs: list[dict]) -> tuple[bool, int, int]:
    """Mark failed operations; return (correct, attempted, failed).

    A nonzero exit status fails the operation but, with consistent
    artifacts, does not make the outputs incorrect: verify and sorkin
    report their own tolerance failures that way.
    """
    reference = {op["name"]: op["digests"] for op in procs[0]["ops"]}
    correct, attempted, failed = True, 0, 0
    for proc in procs:
        for op in proc["ops"]:
            if op["digests"] != reference[op["name"]]:
                op["problems"].append("artifacts differ from the first process of the run")
            attempted += 1
            if op["error"] or op["problems"]:
                correct = False
            if op["error"] or op["problems"] or op["status"] != 0:
                failed += 1
    return correct, attempted, failed


def _metrics(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(args) -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        procs, probes = _run_processes(args, tmp)
        correct, attempted, failed = _tally(procs)
        if args.trace:
            plain, traced = procs
            values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
            shutil.copyfile(traced["out"] / "spans.json", WORK / f"spans-{args.workload}.json")
            metrics = _metrics(bench["per_layer"], values)
        else:
            values = {
                key: statistics.median(p[key] for p in procs)
                for key in ("wall_s", "cpu_s", "peak_rss_mb")
            }
            values["setup_s"] = statistics.median([p["setup_s"] for p in procs] + probes)
            values["pass_frac"] = (attempted - failed) / attempted
            metrics = _metrics(bench["end_to_end"], values)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": procs[0]["env"],
        "fail_frac": failed / attempted,
        "processes": [
            {k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
            | {"ops": [{k: v for k, v in op.items() if k != "digests"} for op in p["ops"]]}
            for p in procs
        ],
        "setup_probes_s": probes,
        "digests": {op["name"]: op["digests"] for op in procs[0]["ops"]},
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "path_excitation" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report, result = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
