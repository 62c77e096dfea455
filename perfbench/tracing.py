"""Span tracing of the program's layers, from the benchmark's own files.

:func:`install` wraps the public entry point of each layer (listed in
:data:`TARGETS`) so that every call records a span: name, start, end,
parent span and run id.  Spans stay in memory and are written once, as
Chrome trace-event JSON (open it in Perfetto or ``chrome://tracing``).
The same format carries spans from a traced child process back to the
runner (``run.py``), which merges them into one trace and reduces them to the
per-layer metrics (:func:`layer_metrics`).

Host time is read with :func:`time.perf_counter`, the system-wide
monotonic clock, so spans of different processes share one time base.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "tid", "work")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: int, run: int, tid: int = 0, work: float = 0.0):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.tid = tid
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one process; the stack of open spans is per thread."""

    def __init__(self, run: int = 0) -> None:
        self.run = run
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, clock(), 0.0,
                    stack[-1].id if stack else 0, self.run,
                    threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn: Callable, name: str,
             work: Optional[Callable[[Any], float]] = None) -> Callable:
        """``fn`` with a span around every call.

        ``work`` maps the return value to the amount of work done (for
        example simulated cycles), stored on the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if work is not None:
                span.work = work(result)
            return result

        return traced


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def _pipeline_cycles(result: Any) -> float:
    results = result if isinstance(result, list) else [result]
    if not results:
        return 0.0
    return float(max(r.end_cycle for r in results)
                 - min(r.start_cycle for r in results))


def _rsa_iterations(result: Any) -> float:
    return float(len(result.decoded_bits))


#: (module, attribute, span name, work) for every wrapped entry point.
#: ``ScalarBackend.run_pairs`` only runs as the batched/pool fallback
#: in these workloads, so its span is the fallback.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[[Any], float]]], ...] = (
    ("repro.harness.experiment", "run_cell", "harness.run_cell", None),
    ("repro.harness.runner", "ResilientExecutor.run_cell_supervised",
     "harness.cell", None),
    ("repro.harness.runner", "ResilientExecutor.run_rsa_supervised",
     "harness.cell", None),
    ("repro.harness.checkpoint", "CheckpointStore.save", "harness.journal",
     None),
    ("repro.analysis.preflight", "preflight_cell", "analysis.preflight", None),
    ("repro.sim.batched", "BatchedBackend.run_pairs", "sim.dispatch", None),
    ("repro.sim.scalar", "ScalarBackend.run_pairs", "sim.fallback", None),
    ("repro.sim.lockstep", "LaneCore.run", "lockstep.run", None),
    ("repro.sim.lockstep", "LaneCore.run_concurrent", "lockstep.run", None),
    ("repro.sim.tape", "replay", "tape.replay", None),
    ("repro.sim.tape", "Tape.compiled", "tape.compile", None),
    ("repro.pipeline.core", "Core.run", "pipeline.run", _pipeline_cycles),
    ("repro.pipeline.core", "Core.run_concurrent", "pipeline.run",
     _pipeline_cycles),
    ("repro.memory.hierarchy", "MemorySystem.reset", "memory.reset", None),
    ("repro.crypto.leak", "RsaVpAttack.run", "crypto.rsa", _rsa_iterations),
    ("repro.stats.ttest", "welch_t_test", "stats.ttest", None),
)


def install(tracer: Tracer, targets: Sequence[Tuple] = TARGETS) -> None:
    """Wrap every target.

    A module-level function may also be bound by name in the modules
    that imported it (``from repro.stats.ttest import welch_t_test``),
    so each ``repro`` module attribute that *is* the original function
    is replaced too.
    """
    for module_name, attr, name, work in targets:
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[member]
            setattr(owner, member, tracer.wrap(original, name, work))
            continue
        original = getattr(module, member)
        wrapped = tracer.wrap(original, name, work)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------

def to_events(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    return [{
        "name": span.name,
        "cat": span.name.split(".")[0],
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": span.duration * 1e6,
        "pid": span.run,
        "tid": span.tid,
        "args": {"id": span.id, "parent": span.parent, "work": span.work},
    } for span in spans]


def from_events(events: Iterable[Dict[str, Any]]) -> List[Span]:
    return [Span(
        event["args"]["id"], event["name"], event["ts"] / 1e6,
        (event["ts"] + event["dur"]) / 1e6, event["args"]["parent"],
        event["pid"], event["tid"], event["args"].get("work", 0.0),
    ) for event in events if event.get("ph") == "X"]


def write_trace(path: str, spans: Iterable[Span],
                metadata: Optional[Dict[str, Any]] = None) -> None:
    payload = {"traceEvents": to_events(spans), "displayTimeUnit": "ms",
               "otherData": metadata or {}}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def read_trace(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    with open(path) as handle:
        payload = json.load(handle)
    return from_events(payload["traceEvents"]), payload.get("otherData", {})


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the part its children cover.

    Keyed by ``(run, id)``; children are clipped to their parent.
    """
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.run, span.parent)].append(span)
    out = {}
    for span in spans:
        kids = children.get((span.run, span.id), ())
        inner = covered(
            (max(kid.start, span.start), min(kid.end, span.end))
            for kid in kids if kid.end > span.start and kid.start < span.end
        )
        out[(span.run, span.id)] = span.duration - inner
    return out


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and work.

    A span nested (at any depth) inside a span of the same name is
    part of that outer call: it adds to self time only, so recursion
    and ``run`` -> ``run_concurrent`` chains count once.
    """
    by_key = {(span.run, span.id): span for span in spans}
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0}
    )
    for span in spans:
        entry = totals[span.name]
        entry["self_s"] += selfs[(span.run, span.id)]
        parent = by_key.get((span.run, span.parent))
        nested = False
        while parent is not None:
            if parent.name == span.name:
                nested = True
                break
            parent = by_key.get((parent.run, parent.parent))
        if not nested:
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["work"] += span.work
    return dict(totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[Span], counters: Dict[str, int],
                  wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced unit of work.

    ``counters`` is the :data:`repro.perf.counters.COUNTERS` delta over
    the unit, ``wall_s`` its untraced-equivalent host wall clock (the
    traced unit's own wall clock).
    """
    t = layer_totals(spans)

    def get(name: str, field: str) -> float:
        return t.get(name, {}).get(field, 0.0)

    c = defaultdict(int, counters)
    vector, fallback = c["batched_vector_trials"], c["batched_fallback_trials"]
    recorded, replayed = c["pool_passes_recorded"], c["pool_passes_replayed"]
    pipeline_cycles = get("pipeline.run", "work")
    return {
        "import.cli_s": get("import.cli", "s"),
        "import.scipy_special_s": get("import.scipy_special", "s"),
        "harness.cells": get("harness.cell", "calls"),
        "harness.cell_self_s": get("harness.cell", "self_s"),
        "harness.journal_writes": get("harness.journal", "calls"),
        "harness.journal_s": get("harness.journal", "s"),
        "analysis.preflight_calls": get("analysis.preflight", "calls"),
        "analysis.preflight_s": get("analysis.preflight", "s"),
        "sim.dispatches": get("sim.dispatch", "calls"),
        "sim.dispatch_self_s": get("sim.dispatch", "self_s"),
        "sim.trials": c["trials"],
        "sim.sim_cycles": c["simulated_cycles"],
        "sim.vector_trials": vector,
        "sim.fallback_trials": fallback,
        "sim.fallback_frac": _ratio(fallback, vector + fallback),
        "sim.fallback_s": get("sim.fallback", "s"),
        "lockstep.runs": get("lockstep.run", "calls"),
        "lockstep.s": get("lockstep.run", "s"),
        "lockstep.lane_cycles": c["batched_lane_cycles"],
        "lockstep.squash_frac": _ratio(
            c["batched_lanes_squashed"],
            c["batched_lanes_retired"] + c["batched_lanes_squashed"],
        ),
        "lockstep.ns_per_lane_cycle": _ratio(
            get("lockstep.run", "s") * 1e9, c["batched_lane_cycles"]
        ),
        "tape.recorded": recorded,
        "tape.replayed": replayed,
        "tape.divergences": c["pool_replay_divergences"],
        "tape.invalid": c["pool_tapes_invalid"],
        "tape.replay_frac": _ratio(replayed, recorded + replayed),
        "tape.compile_s": get("tape.compile", "s"),
        "tape.replay_s": get("tape.replay", "s"),
        "schedule.occupancy": _ratio(
            c["pool_lanes_filled"], c["pool_lanes_offered"]
        ),
        "schedule.warm_mems": c["pool_warm_mems"],
        "pipeline.runs": get("pipeline.run", "calls"),
        "pipeline.s": get("pipeline.run", "s"),
        "pipeline.ns_per_cycle": _ratio(
            get("pipeline.run", "s") * 1e9, pipeline_cycles
        ),
        "memory.resets": get("memory.reset", "calls"),
        "memory.reset_s": get("memory.reset", "s"),
        "isa.trace_cache_hit_frac": _ratio(
            c["trace_cache_hits"],
            c["trace_cache_hits"] + c["trace_cache_misses"],
        ),
        "perf.program_cache_hit_frac": _ratio(
            c["program_cache_hits"],
            c["program_cache_hits"] + c["program_cache_misses"],
        ),
        "crypto.rsa_s": get("crypto.rsa", "s"),
        "crypto.iterations": get("crypto.rsa", "work"),
        "stats.ttests": get("stats.ttest", "calls"),
        "stats.ttest_s": get("stats.ttest", "s"),
        "stats.looks": c["sequential_looks"],
        "stats.early_stops": c["sequential_early_stops"],
        "stats.trials_avoided": c["sequential_trials_avoided"],
        "trace.coverage_frac": _ratio(
            covered((span.start, span.end) for span in spans), wall_s
        ),
    }
