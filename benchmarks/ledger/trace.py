"""Span recorder for the ledger's traced runs.

Spans are taken from the benchmark's side only: :func:`install` wraps the
public entry points of each layer (the program's files are not edited) and
every call through one records a span — name, start, end, parent, workload
id — in memory.  The spans are written out as JSONL when the run ends.

Where one public call covers several layers (a crash-scenario step is plan +
replay + mount + fsck; ``check_timed`` is seven checks) the split uses the
timings that call *returns*, stored as the span's ``returned`` attributes.

A span's self time is its duration minus its child spans.  Self times of a
properly nested trace sum to the root's duration exactly, which is what lets
:func:`layer_seconds` print a table whose rows add up to the wall clock with
one explicit unattributed row.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "campaign"
WORKLOAD = "harness.workload"
STEP = "crashplan.step"
CHECKS = "checks.run"
UNATTRIBUTED = "harness.unattributed_s"

#: span name -> table row charged with that span's self time
ROW_OF_SPAN = {
    "ace.generate": "ace.generate_s",
    "ace.adapt": "ace.adapt_s",
    "recorder.profile": "recorder.profile_s",
    CHECKS: "checks.total_s",
    "spill.put": "spill.put_s",
    "spill.get": "spill.get_s",
    "engine.backend": "engine.dispatch_wait_s",
    "engine.run": "engine.aggregate_s",
    "statedb.register": "statedb.register_s",
    "statedb.claim": "statedb.claim_s",
    "statedb.ingest": "statedb.ingest_s",
    "core.group_reports": "core.group_reports_s",
}

#: every row of the sum-to-wall table, in print order
TABLE_ROWS = (
    "ace.generate_s", "ace.adapt_s", "recorder.profile_s", "replayer.replay_s",
    "crashplan.self_s", "fs.mount_s", "fs.fsck_s", "checks.total_s",
    "spill.put_s", "spill.get_s", "engine.dispatch_wait_s", "engine.aggregate_s",
    "statedb.register_s", "statedb.claim_s", "statedb.ingest_s",
    "core.group_reports_s", UNATTRIBUTED,
)


class Tracer:
    """In-memory span store with an explicit open-span stack."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 = none), workload id (-1 = none)]
        self.spans: List[List[Any]] = []
        #: span index -> timings the wrapped call returned
        self.returned: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []
        self._workload = -1
        self._workloads_seen = 0
        #: objects the wrappers saw, for counters only the program holds
        self.synthesizers: List[Any] = []
        self.engine_runs: List[Any] = []
        self.unmountable_states = 0
        self.fsck_runs = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._workload])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed while "
                f"{self.spans[popped][0]!r} was innermost"
            )

    def current_name(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def begin_workload(self) -> int:
        self._workload = self._workloads_seen
        self._workloads_seen += 1
        return self.begin(WORKLOAD)

    def end_workload(self, index: int) -> None:
        self.end(index)
        self._workload = -1

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, parent, name, start, end, workload, returned."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, workload) in enumerate(self.spans):
                record = {"id": index, "parent": parent, "name": name,
                          "start": start, "end": end, "workload": workload}
                returned = self.returned.get(index)
                if returned:
                    record["returned"] = returned
                handle.write(json.dumps(record) + "\n")


# --------------------------------------------------------------------------- arithmetic


def self_times(spans: List[List[Any]]) -> List[float]:
    """Self time per span: duration minus the durations of its direct children."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def layer_seconds(spans: List[List[Any]],
                  returned: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Seconds per table row; the rows sum to the root span's duration.

    A scenario step's self time (its spill children are already out) is
    split by what the step returned: replay keeps what is left of the
    returned replay seconds after the spill calls made inside it, mount and
    fsck take their returned values, and the remainder is the planner's.
    Anything no row claims — the harness's own bookkeeping, the campaign
    façade, the durable runner outside its store calls — is unattributed.
    """
    rows = {name: 0.0 for name in TABLE_ROWS}
    selfs = self_times(spans)
    child_seconds: Dict[int, float] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == STEP:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + end - start
    for index, (name, _, _, _, _) in enumerate(spans):
        if name == STEP:
            timings = returned.get(index, {})
            replay = timings.get("replay", 0.0) - child_seconds.get(index, 0.0)
            mount = timings.get("mount", 0.0)
            fsck = timings.get("fsck", 0.0)
            rows["replayer.replay_s"] += replay
            rows["fs.mount_s"] += mount
            rows["fs.fsck_s"] += fsck
            rows["crashplan.self_s"] += selfs[index] - replay - mount - fsck
        else:
            rows[ROW_OF_SPAN.get(name, UNATTRIBUTED)] += selfs[index]
    return rows


def root_seconds(spans: List[List[Any]]) -> float:
    """Duration of the root span (the traced run's wall clock)."""
    for name, start, end, parent, _ in spans:
        if parent < 0 and name == ROOT:
            return end - start
    raise ValueError(f"trace has no {ROOT!r} root span")


def durations(spans: List[List[Any]], name: str) -> List[float]:
    return [end - start for span_name, start, end, _, _ in spans if span_name == name]


# --------------------------------------------------------------------------- wrappers


class _SpanIterator:
    """Iterator recording one span per ``next()`` of the wrapped iterator."""

    def __init__(self, tracer: Tracer, name: str, source: Iterator[Any]):
        self._tracer = tracer
        self._name = name
        self._source = iter(source)

    def __iter__(self) -> "_SpanIterator":
        return self

    def __next__(self) -> Any:
        index = self._tracer.begin(self._name)
        try:
            return next(self._source)
        finally:
            self._tracer.end(index)


class _StepIterator:
    """``generate_scenarios`` wrapper: a span per step plus its returned split."""

    def __init__(self, tracer: Tracer, generator: Any, source: Iterator[Any]):
        self._tracer = tracer
        self._generator = generator
        self._source = source
        self._build_charged = 0.0

    def __iter__(self) -> "_StepIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        index = tracer.begin(STEP)
        state = None
        try:
            state = next(self._source)
            return state
        finally:
            # The one-pass build runs inside the first step; the harness adds
            # its seconds to replay, so the split does too.
            build = self._generator.build_seconds
            timings = {"replay": build - self._build_charged, "mount": 0.0, "fsck": 0.0}
            self._build_charged = build
            if state is not None:
                timings["replay"] += state.replay_seconds
                timings["mount"] = state.mount_seconds
                timings["fsck"] = state.fsck_seconds
                if not state.mountable:
                    tracer.unmountable_states += 1
                if state.fsck_report is not None:
                    tracer.fsck_runs += 1
            tracer.returned[index] = timings
            tracer.end(index)


def _span_method(tracer: Tracer, name: str, method: Callable) -> Callable:
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            return method(*args, **kwargs)
        finally:
            tracer.end(index)
    return wrapper


def _span_iterator_method(tracer: Tracer, name: str, method: Callable) -> Callable:
    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        return _SpanIterator(tracer, name, method(*args, **kwargs))
    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's public entry points; returns the function undoing it."""
    from repro.ace.adapter import CrashMonkeyAdapter
    from repro.ace.synthesizer import AceSynthesizer
    from repro.core.results import CampaignResult
    from repro.crashmonkey.checker import CheckPipeline
    from repro.crashmonkey.harness import CrashMonkey
    from repro.crashmonkey.recorder import WorkloadRecorder
    from repro.crashmonkey.replayer import CrashStateGenerator
    from repro.engine.backends import ProcessPoolBackend, SerialBackend
    from repro.engine.engine import CampaignEngine
    from repro.service.statedb import CampaignStateDB
    from repro.storage.spill import SpineStore

    patched: List[Tuple[type, str, Callable]] = []

    def patch(owner: type, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attribute]
        patched.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def ace_source(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(synthesizer, *args, **kwargs):
            source = method(synthesizer, *args, **kwargs)
            if tracer.current_name() == "ace.generate":
                # ``stream`` strides over ``generate``: the outer span already
                # covers the inner pulls, one span per enumerated workload
                # would only add overhead.
                return source
            if synthesizer not in tracer.synthesizers:
                tracer.synthesizers.append(synthesizer)
            return _SpanIterator(tracer, "ace.generate", source)
        return wrapper

    def scenario_steps(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(generator, *args, **kwargs):
            return _StepIterator(tracer, generator, method(generator, *args, **kwargs))
        return wrapper

    def check_timed(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            index = tracer.begin(CHECKS)
            try:
                mismatches, timings = method(*args, **kwargs)
                tracer.returned[index] = timings
                return mismatches, timings
            finally:
                tracer.end(index)
        return wrapper

    def test_workload(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            index = tracer.begin_workload()
            try:
                return method(*args, **kwargs)
            finally:
                tracer.end_workload(index)
        return wrapper

    def engine_run(method: Callable) -> Callable:
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            index = tracer.begin("engine.run")
            try:
                run = method(*args, **kwargs)
                tracer.engine_runs.append(run)
                return run
            finally:
                tracer.end(index)
        return wrapper

    for attribute in ("stream", "generate"):
        patch(AceSynthesizer, attribute, ace_source)
    patch(CrashMonkeyAdapter, "adapt_stream",
          lambda m: _span_iterator_method(tracer, "ace.adapt", m))
    patch(WorkloadRecorder, "profile", lambda m: _span_method(tracer, "recorder.profile", m))
    patch(CrashStateGenerator, "generate_scenarios", scenario_steps)
    patch(CheckPipeline, "check_timed", check_timed)
    patch(SpineStore, "put", lambda m: _span_method(tracer, "spill.put", m))
    patch(SpineStore, "get", lambda m: _span_method(tracer, "spill.get", m))
    patch(CrashMonkey, "test_workload", test_workload)
    for backend in (SerialBackend, ProcessPoolBackend):
        patch(backend, "execute", lambda m: _span_iterator_method(tracer, "engine.backend", m))
    for attribute in ("run", "run_indexed"):
        patch(CampaignEngine, attribute, engine_run)
    patch(CampaignStateDB, "register_chunks",
          lambda m: _span_method(tracer, "statedb.register", m))
    patch(CampaignStateDB, "claim_chunk", lambda m: _span_method(tracer, "statedb.claim", m))
    patch(CampaignStateDB, "ingest_outcome",
          lambda m: _span_method(tracer, "statedb.ingest", m))
    patch(CampaignResult, "grouped_reports",
          lambda m: _span_method(tracer, "core.group_reports", m))

    def uninstall() -> None:
        while patched:
            owner, attribute, original = patched.pop()
            setattr(owner, attribute, original)

    # Pool workers are forked with the wrappers in place, but their spans
    # could never reach the parent: run them untraced instead of paying for
    # spans nobody reads.  (The hook outlives ``uninstall`` harmlessly: by
    # then ``patched`` is empty.)
    os.register_at_fork(after_in_child=uninstall)
    return uninstall
