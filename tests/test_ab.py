"""tools/ab.py alternates two checkouts' benchmark runs and judges the gap."""

import itertools
import json
import textwrap
from pathlib import Path
from types import SimpleNamespace

import ab

# The same benchmark in every checkout; each program's speed and failure
# come from its program.json, outside the benchmark's paths.
RUN_PY = textwrap.dedent("""\
    import json, sys
    from pathlib import Path

    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    here = Path(__file__).resolve().parent.parent
    program = json.loads((here / "program.json").read_text())
    with open(here.parent / "order.log", "a") as log:
        log.write(f"{here.name} {seed}\\n")
    if program["fail"]:
        sys.exit("no result")
    metrics = {"wall_s": program["wall"] + 0.01 * seed, "pass_frac": 1.0}
    # run.py's report: a warm-up, three timed processes and two probes
    print(json.dumps({"processes": [{}, {}, {}], "setup_probes_s": [0.1, 0.1]}))
    result = {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}}
    print(json.dumps(result))
    """)

BENCHMARK = {
    "paths": ["perfbench"],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "pass_frac", "unit": "frac", "better": "higher", "bound": 0.1},
    ],
}


def checkout(root, name, wall, fail=False):
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(RUN_PY)
    (root / name / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / name / "program.json").write_text(json.dumps({"wall": wall, "fail": fail}))
    return str(root / name)


def test_alternating_pairs_and_the_claim_rule(tmp_path, capsys, monkeypatch):
    # 600 minor faults a run, over the six processes its report names
    faults = itertools.count(step=600)
    monkeypatch.setattr(ab.resource, "getrusage", lambda who: SimpleNamespace(ru_minflt=next(faults)))
    base, head = checkout(tmp_path, "base", 1.0), checkout(tmp_path, "head", 0.9)
    argv = ["--base", base, "--head", head, "--workload", "ensemble", "--pairs", "4"]
    assert ab.main(argv + ["--seconds", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["base 0", "head 0", "head 1", "base 1", "base 2", "head 2", "head 3", "base 3"]
    lines = out.splitlines()
    runs = [f"pair {seed} {side}" for side, seed in map(str.split, order)]
    assert [line.split("  ")[0] for line in lines[:8]] == runs
    assert lines[4].endswith("wall_s 1.02  pass_frac 1  processes 6  minflt/process 100")
    # base 1.00 .. 1.03: median 1.015, quartiles 1.0075 and 1.0225; head 0.1 lower
    assert lines[8] == "wall_s  wins 4/4  base 1.015 [1.0075 1.0225]  head 0.915  gap -0.1  claim met"
    assert lines[9] == "pass_frac  wins 0/4  base 1 [1 1]  head 1  gap +0  claim not met"
    assert lines[10] == "minflt per process  base 100  head 100"


def test_unequal_paths_warn_and_a_failed_run_stops(tmp_path, capsys):
    base, head = checkout(tmp_path, "base", 1.0), checkout(tmp_path, "head-longer", 0.9, fail=True)
    argv = ["--base", base, "--head", head, "--workload", "grid", "--pairs", "2"]
    assert ab.main(argv) == 1
    err = capsys.readouterr().err
    assert "checkout paths differ in length" in err
    assert "run failed" in err and "no result" in err


def test_differing_benchmark_files_warn(tmp_path, capsys):
    base, head = checkout(tmp_path, "base", 1.0), checkout(tmp_path, "head", 0.9)
    # bytecode is not part of the benchmark
    (Path(base) / "perfbench" / "__pycache__").mkdir()
    (Path(base) / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"stale")
    argv = ["--base", base, "--head", head, "--workload", "grid", "--pairs", "2"]
    assert ab.main(argv) == 0
    assert capsys.readouterr().err == ""
    loosened = dict(BENCHMARK, end_to_end=[dict(BENCHMARK["end_to_end"][0], bound=1.0)])
    (Path(head) / "BENCHMARK.json").write_text(json.dumps(loosened))
    (Path(base) / "perfbench" / "tracer.py").write_text("")
    assert ab.main(argv) == 0
    err = capsys.readouterr().err
    assert err == (
        "warning: benchmark files differ between the checkouts: "
        "BENCHMARK.json, perfbench/tracer.py\n"
    )
