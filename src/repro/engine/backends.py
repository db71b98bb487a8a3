"""Execution backends.

A backend takes a :class:`HarnessSpec` plus a lazy stream of indexed workload
chunks and yields one :class:`ChunkOutcome` per chunk, in *completion* order.
Two implementations cover the portable and the parallel case:

* :class:`SerialBackend` — one harness, one process.  The harness is built
  once and reused for every chunk (the recorder re-copies its pristine image
  per workload, so no state leaks between workloads).
* :class:`ProcessPoolBackend` — the paper's cluster in miniature.  Each worker
  process builds a worker-local harness in its initializer and keeps it for
  the whole run; chunks are dispatched ``imap_unordered``-style with a bounded
  submission window so the workload stream is consumed lazily instead of being
  drained into the pool's task queue.

Per-chunk seconds are measured *inside* the worker (wall clock around the
actual testing), which is what the per-VM statistics report — not a uniform
share of the pool's elapsed time.  The rest of a chunk's :class:`ChunkStats`
and the positions of its failing results are computed there too, once
(:meth:`ChunkOutcome.of`), so the process collecting outcomes rolls up no
result.

``execute(..., pack=True)`` — what the engine asks for when a sink owns the
chunks — returns each chunk :meth:`~ChunkOutcome.packed` by the code that ran
it: its results as the state store's row text, so the collecting process
decodes and encodes no result either.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Protocol, Set, Tuple

from ..clock import span
from ..crashmonkey.harness import CrashMonkey
from ..crashmonkey.report import CrashTestResult, Totals, roll_ups_of
from ..options import HarnessSpec
from ..workload.workload import Workload

#: Indexed chunk: (position in the stream, workloads).
IndexedChunk = Tuple[int, List[Workload]]


@dataclass
class ChunkStats(Totals):
    """Timing and outcome of one completed chunk (one VM batch's worth).

    What remains of a :class:`ChunkOutcome` once its results have been
    aggregated — everything but the result payload.
    """

    index: int
    workloads: int
    seconds: float
    failing_workloads: int
    worker: str
    #: every counter's aggregate over the chunk, by aggregate name
    #: (:func:`~repro.crashmonkey.report.roll_ups_of`); each reads as an
    #: attribute too: ``stats.prefix_hits``, ``stats.memoized_scenarios``, ...
    totals: Dict[str, Any] = field(default_factory=dict, repr=False)
    #: bug reports over the chunk's results
    raw_reports: int = 0


@dataclass
class ChunkOutcome:
    """Results, stats and real timing of one tested chunk.

    A :meth:`packed` outcome holds no result: ``rows`` stand in.
    """

    results: List[CrashTestResult]
    #: computed once, from the results, where the chunk ran (:meth:`of`)
    stats: ChunkStats
    #: the positions of the results with bug reports
    failing_positions: Tuple[int, ...]
    #: once packed: each result's :meth:`~CrashTestResult.to_row`, by position
    rows: Optional[List[str]] = None

    @classmethod
    def of(cls, index: int, results: List[CrashTestResult], seconds: float,
           worker: str = "serial") -> "ChunkOutcome":
        """The outcome of chunk ``index``, tested in ``seconds`` by ``worker``."""
        failing = tuple(position for position, result in enumerate(results)
                        if not result.passed)
        return cls(results=results, failing_positions=failing, stats=ChunkStats(
            index=index,
            workloads=len(results),
            seconds=seconds,
            failing_workloads=len(failing),
            worker=worker,
            totals=roll_ups_of(results),
            raw_reports=sum(len(result.bug_reports) for result in results),
        ))

    def packed(self) -> "ChunkOutcome":
        """This outcome as its sink stores it: row text for the results."""
        if self.rows is not None:
            return self
        return replace(self, results=[], rows=[result.to_row() for result in self.results])


class ExecutionBackend(Protocol):
    """Anything that can test a stream of workload chunks."""

    #: True when workers keep testing while the dispatch thread pulls more
    #: workloads from the generator — generation then costs no extra wall
    #: clock and must not be subtracted from the testing time.
    overlaps_generation: bool

    def execute(self, spec: HarnessSpec, chunks: Iterable[IndexedChunk],
                pack: bool = False) -> Iterator[ChunkOutcome]:
        """Test every chunk, yielding outcomes as they complete (packed if ``pack``)."""
        ...


def _test_chunk(harness: CrashMonkey, indexed_chunk: IndexedChunk, worker: str,
                pack: bool) -> ChunkOutcome:
    """Test one chunk on ``harness``, timed around the actual testing."""
    index, chunk = indexed_chunk
    with span() as clock:
        results = list(harness.test_stream(chunk))
    outcome = ChunkOutcome.of(index, results, clock.seconds, worker)
    return outcome.packed() if pack else outcome


# --------------------------------------------------------------------------- serial


class SerialBackend:
    """In-process execution with a single long-lived harness."""

    overlaps_generation = False

    def __init__(self, harness: Optional[CrashMonkey] = None):
        self._harness = harness

    def _harness_for(self, spec: HarnessSpec) -> CrashMonkey:
        if self._harness is None or self._harness.spec != spec:
            self._harness = spec.build()
        return self._harness

    def execute(self, spec: HarnessSpec, chunks: Iterable[IndexedChunk],
                pack: bool = False) -> Iterator[ChunkOutcome]:
        harness = self._harness_for(spec)
        for indexed_chunk in chunks:
            yield _test_chunk(harness, indexed_chunk, "serial", pack)


# --------------------------------------------------------------------------- pool

#: Worker-local harness, built once per worker process by :func:`_init_worker`.
_WORKER_HARNESS: Optional[CrashMonkey] = None


def _init_worker(spec: HarnessSpec) -> None:
    global _WORKER_HARNESS
    _WORKER_HARNESS = spec.build()


def _run_chunk(indexed_chunk: IndexedChunk, pack: bool) -> ChunkOutcome:
    if _WORKER_HARNESS is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker harness was not initialized")
    return _test_chunk(_WORKER_HARNESS, indexed_chunk, f"pid-{os.getpid()}", pack)


class ProcessPoolBackend:
    """Parallel execution across worker processes with bounded in-flight work.

    Args:
        processes: number of worker processes (defaults to the CPUs this
            process may use).
        max_inflight: cap on chunks submitted but not yet collected.  Bounds
            both memory and how far ahead of testing the workload generator is
            consumed; defaults to ``2 * processes``.
    """

    overlaps_generation = True

    def __init__(self, processes: Optional[int] = None,
                 max_inflight: Optional[int] = None):
        if processes is None:
            try:
                processes = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-Linux
                processes = os.cpu_count() or 1
        self.processes = max(1, processes)
        self.max_inflight = max_inflight if max_inflight is not None else 2 * self.processes
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")

    def execute(self, spec: HarnessSpec, chunks: Iterable[IndexedChunk],
                pack: bool = False) -> Iterator[ChunkOutcome]:
        source = iter(chunks)
        with ProcessPoolExecutor(
            max_workers=self.processes,
            initializer=_init_worker,
            initargs=(spec,),
        ) as executor:
            pending: Set[Future] = set()
            exhausted = False
            while True:
                # Refill the submission window from the (lazy) chunk stream.
                while not exhausted and len(pending) < self.max_inflight:
                    try:
                        indexed_chunk = next(source)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.add(executor.submit(_run_chunk, indexed_chunk, pack))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()


def make_backend(processes: int = 1) -> ExecutionBackend:
    """Pick the natural backend for a process count."""
    if processes <= 1:
        return SerialBackend()
    return ProcessPoolBackend(processes=processes)
