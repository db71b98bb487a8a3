"""The campaign execution engine: a dispatcher.

One generate → dispatch → check path for everything that tests workloads in
bulk.  :class:`~repro.core.campaign.B3Campaign` is the one thing that builds
an engine: it picks the backend and the chunk size from the campaign's
configuration, and both drivers (a plain campaign and the durable runner) go
through it.

Workloads flow as a *stream*: the engine pulls from the supplied iterable
(typically ``AceSynthesizer.generate()``) only as fast as the backend consumes
chunks, so only the in-flight chunks' workloads exist at any moment.  The
engine holds no result: it hands each chunk's :class:`ChunkOutcome` — its
results, roll-ups and group partial, computed where it ran — to the run's
sink with that chunk's share of the testing time, fires the progress
callback, and keeps the chunk's :class:`ChunkRecord`.  The outcomes' owner
builds the campaign's result: a plain run's collector
(:meth:`~repro.core.results.CampaignResult.of_outcomes`) or the durable
runner's state store.  A chunk is the paper's VM batch (§6.1): its record is
that batch's seconds and worker, and :attr:`EngineRun.max_chunk_seconds` the
wall clock had the batches run side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional

from ..clock import span
from ..options import HarnessSpec
from ..workload.workload import Workload
from .backends import ChunkOutcome, ChunkRecord, ExecutionBackend, IndexedChunk, SerialBackend
from .stream import TimedIterator, chunked_affine

#: Default chunk size: large enough to amortize dispatch, small enough for
#: balanced progress reporting and bounded in-flight memory.
DEFAULT_CHUNK_SIZE = 64


def family_chunks(workloads: Iterable[Workload], chunk_size: int) -> Iterator[List[Workload]]:
    """Cut the stream into chunks at ACE sibling-family boundaries.

    Runs of equal :meth:`Workload.family_key` stay in one chunk, so a
    worker's prefix spine sees a family's shared prefix together instead of
    split across workers.  The stream is never reordered, and the layout
    depends on it and ``chunk_size`` alone — which is what lets a durable
    campaign resume under any execution options and still find its own
    chunks.
    """
    return chunked_affine(workloads, chunk_size, key=lambda workload: workload.family_key())


@dataclass
class ProgressEvent:
    """Snapshot passed to the progress callback after every completed chunk.

    The engine counts this session alone and knows no totals;
    :meth:`~repro.core.campaign.B3Campaign.track_progress` moves an event to where
    the whole campaign stands.
    """

    chunks_done: int
    workloads_done: int
    failing_workloads: int
    elapsed_seconds: float
    chunk: ChunkRecord
    #: total chunks/workloads of the whole campaign, when known: chunks from
    #: a complete durable census, workloads from it or the ACE space index
    chunks_total: Optional[int] = None
    workloads_total: Optional[int] = None
    #: workloads completed in this session (== ``workloads_done`` except on a
    #: resumed durable run, where ``workloads_done`` includes prior sessions)
    session_workloads: int = 0

    @property
    def workloads_per_second(self) -> float:
        """Throughput of this session so far (0.0 before the clock moves)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.session_workloads / self.elapsed_seconds

    @property
    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to campaign completion (None when unknowable)."""
        rate = self.workloads_per_second
        if self.workloads_total is None or rate <= 0.0:
            return None
        return max(self.workloads_total - self.workloads_done, 0) / rate


ProgressCallback = Callable[[ProgressEvent], None]
#: The owner of a run's outcomes: called with each chunk's outcome and its
#: testing seconds, before the progress callback hears of the chunk.
OutcomeSink = Callable[[ChunkOutcome, float], None]


@dataclass
class EngineRun:
    """What the engine keeps of one run: a record per chunk, and the clock."""

    #: one per chunk, in stream order
    chunks: List[ChunkRecord] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    #: what pulling the workload stream took (0 when the engine did not time it)
    generation_seconds: float = 0.0
    #: the sum of the seconds handed to the sink with each outcome
    testing_seconds: float = 0.0

    @property
    def max_chunk_seconds(self) -> float:
        """Slowest chunk — the parallel wall clock if chunks were VMs."""
        return max((record.seconds for record in self.chunks), default=0.0)


class CampaignEngine:
    """Dispatches workload chunks to an execution backend and their outcomes to a sink."""

    def __init__(self, spec: HarnessSpec,
                 backend: Optional[ExecutionBackend] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 progress: Optional[ProgressCallback] = None):
        """
        Args:
            spec: how workers build their harnesses.
            backend: execution strategy; defaults to :class:`SerialBackend`.
            chunk_size: workloads per dispatched chunk.
            progress: called after every completed chunk.
        """
        self.spec = spec
        self.backend = backend if backend is not None else SerialBackend()
        self.chunk_size = chunk_size
        self.progress = progress

    # ------------------------------------------------------------------ running

    def run(self, workloads: Iterable[Workload], on_outcome: OutcomeSink) -> EngineRun:
        """Stream ``workloads`` through the backend in :func:`family_chunks`,
        handing ``on_outcome`` each chunk's outcome as tested, in completion order."""
        timed = TimedIterator(workloads)
        return self._execute(enumerate(family_chunks(timed, self.chunk_size)), on_outcome,
                             timed, pack=False)

    def run_indexed(self, chunks: Iterable[IndexedChunk], on_outcome: OutcomeSink,
                    generation: Optional[TimedIterator] = None) -> EngineRun:
        """Run explicitly indexed chunks, handing ``on_outcome`` each one packed.

        This is the durable runner's entry point: chunk indices are assigned
        by the caller (so a resumed campaign dispatches only its pending
        indices), and each outcome comes :meth:`~ChunkOutcome.packed` by the
        backend that ran it — result rows as text, roll-ups and group
        partial computed there — so the state store commits a chunk before
        the world hears about it without this process decoding or encoding
        a result.  ``generation`` times the workload generator ``chunks``
        are cut from, when the caller has one.
        """
        return self._execute(iter(chunks), on_outcome, generation, pack=True)

    def _execute(self, stream: Iterator[IndexedChunk], on_outcome: OutcomeSink,
                 generation: Optional[TimedIterator], pack: bool) -> EngineRun:
        run = EngineRun()
        workloads = failing = 0  # running tallies: a rescan per event would be quadratic
        # Generation costs wall clock only when the backend waits for it: a
        # pool's workers keep testing while the dispatch thread pulls.
        subtract = generation is not None and not self.backend.overlaps_generation
        landed, generated = 0.0, generation.seconds if generation is not None else 0.0
        with span() as clock:
            for outcome in self.backend.execute(self.spec, stream, pack=pack):
                # The chunk's testing time: the wall clock since the previous
                # outcome, less the generation pulled in between.
                now = clock.seconds
                seconds, landed = now - landed, now
                if subtract:
                    pulled = generation.seconds
                    seconds, generated = seconds - (pulled - generated), pulled
                seconds = max(seconds, 0.0)
                run.testing_seconds += seconds
                on_outcome(outcome, seconds)
                record = outcome.record
                run.chunks.append(record)
                workloads += record.workloads
                failing += record.failing_workloads
                if self.progress is not None:
                    self.progress(ProgressEvent(
                        chunks_done=len(run.chunks),
                        workloads_done=workloads,
                        failing_workloads=failing,
                        elapsed_seconds=clock.seconds,
                        chunk=record,
                        session_workloads=workloads,
                    ))
            run.wall_clock_seconds = clock.seconds
        run.generation_seconds = generation.seconds if generation is not None else 0.0
        run.chunks.sort(key=attrgetter("index"))
        return run
