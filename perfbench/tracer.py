"""Span tracer for the benchmark's traced runs.

Wrappers go on the module attributes that callers resolve, for example
``trajectories.pairwise_field`` or ``cli.ensemble``, so no file of the
package changes.  Every call of a traced function records one span

    (span id, layer function, call site, start, end, parent id, thread id, tag)

where the call site is the module the caller resolved the function in
and the tag is a size (points, steps) or the subcommand name.  Spans
stay in memory until the run writes them out.  Pool tasks submitted
through a module's ``ThreadPoolExecutor`` carry the submitting span as
their parent, so worker-thread spans nest under the call that started
them.  ``Tracer.installed()`` restores every patched attribute on exit,
also when the traced code raises.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "path_excitation"

# Public functions timed per layer.  ``channels`` is the verification
# twin and lies on no CLI or user path, so it is left unmeasured on
# purpose; ``errors`` holds only exception types and costs nothing.
TRACED = {
    "packet": ("eval_packet", "psi", "psi_dx"),
    "field": ("open_evals", "pairwise_field", "intensity", "peak_bound", "field_grid"),
    "oracle": ("qm_current", "equivalence_report", "fd_propagate"),
    "sorkin": ("sumrule_report", "subset_intensity"),
    "trajectories": ("sample_initial", "quantile_initial", "ensemble", "streamlines"),
    "cli": ("parse_config", "run_subcommand"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _evals_points(args, kwargs):
    evals = _arg(args, kwargs, 0, "evals")
    return int(np.size(evals[0].x)) if evals else 0


# Per-function tag taken from the call's arguments.
TAGS = {
    "packet.eval_packet": lambda a, k: int(np.size(_arg(a, k, 2, "x"))),
    "field.pairwise_field": _evals_points,
    "oracle.fd_propagate": lambda a, k: int(_arg(a, k, 4, "n_steps")),
    "cli.run_subcommand": lambda a, k: str(_arg(a, k, 0, "name")),
}


class Tracer:
    """Collects spans from wrapped package functions.

    keep names the layer functions whose return values are kept in
    ``returns`` for checks that need more than the written artifacts.
    """

    def __init__(self, keep=()):
        self.spans: list[tuple] = []
        self.returns: dict[str, list] = defaultdict(list)
        self.submitted: list[str] = []  # call site of each pool task
        self._keep = frozenset(keep)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, name: str, site: str):
        """Return fn wrapped so that each call records one span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident
        tag = TAGS.get(name)
        kept = self.returns[name] if name in self._keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = tag(args, kwargs) if tag else None
                spans.append((sid, name, site, start, end, parent, ident(), label))
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def _carrying(self, base, site: str):
        tracer = self

        class CarryingExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                tracer.submitted.append(site)

                def carried(*a, **k):
                    inner = tracer._stack()
                    inner.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        inner.pop()

                return super().submit(carried, *args, **kwargs)

        return CarryingExecutor

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, package: str = PACKAGE) -> None:
        """Wrap every module attribute of the package that names a traced function.

        A traced name the package no longer defines is skipped, and its
        metrics read zero.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names if home is not None else ():
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                for mod in modules:
                    if mod.__dict__.get(fname) is fn:
                        site = mod.__name__.rpartition(".")[2]
                        self._patch(mod, fname, self.wrap(fn, f"{layer}.{fname}", site))
        for mod in modules:
            pool = mod.__dict__.get("ThreadPoolExecutor")
            if pool is not None:
                site = mod.__name__.rpartition(".")[2]
                self._patch(mod, "ThreadPoolExecutor", self._carrying(pool, site))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self, package: str = PACKAGE):
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, _, start, end, parent, _, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _, _, _ in spans:
        covered, reach = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced process, named as in BENCHMARK.json.

    ``<layer>.<function>.s`` sums span durations over calls and threads
    (busy time).  A layer that does not run reads zero.
    """
    calls = defaultdict(int)
    secs = defaultdict(float)
    tagged = defaultdict(int)
    stage_evals = traj_points = 0
    fmt = 0.0
    selfs = self_times(tracer.spans)
    for sid, name, site, start, end, _, _, tag in tracer.spans:
        calls[name] += 1
        secs[name] += end - start
        if name == "cli.run_subcommand":
            secs[f"cli.{tag}"] += end - start
            fmt += selfs[sid]  # row formatting and writes
        elif tag is not None:
            tagged[name] += tag
        if name == "field.pairwise_field" and site == "trajectories":
            stage_evals += 1
            traj_points += tag
    m = {}
    for layer, names in TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = secs[name]
    for sub in ("field", "verify", "sorkin", "trajectories"):
        m[f"cli.{sub}.s"] = secs[f"cli.{sub}"]
    m["cli.format.s"] = fmt
    m["cli.bytes_written"] = bytes_written
    m["packet.eval_packet.points"] = tagged["packet.eval_packet"]
    steps = tagged["oracle.fd_propagate"]
    m["oracle.fd_propagate.steps"] = steps
    m["oracle.fd_propagate.us_per_step"] = 1e6 * secs["oracle.fd_propagate"] / steps if steps else 0.0
    # Classic RK4 evaluates the guidance field four times per step.
    m["trajectories.stage_evals"] = stage_evals
    m["trajectories.steps"] = stage_evals // 4
    traj_s = secs["trajectories.ensemble"] + secs["trajectories.streamlines"]
    m["trajectories.traj_steps_per_s"] = traj_points / 4 / traj_s if traj_s else 0.0
    ran = calls["trajectories.ensemble"] > 0
    m["trajectories.workers"] = max(1, tracer.submitted.count("trajectories")) if ran else 0
    results = tracer.returns.get("trajectories.ensemble", [])
    attempted = sum(r.n_trajectories for r in results)
    aborted = sum(r.n_aborted for r in results)
    m["trajectories.n_aborted"] = aborted
    m["trajectories.n_crossing_violations"] = sum(r.n_crossing_violations for r in results)
    m["trajectories.completed_frac"] = (attempted - aborted) / attempted if attempted else 0.0
    return m
