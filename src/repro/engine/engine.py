"""The campaign execution engine.

One generate → dispatch → check → aggregate path for everything that tests
workloads in bulk.  :class:`~repro.core.campaign.B3Campaign` is the one thing
that builds an engine: it picks the backend and the chunk size from the
campaign's configuration, and both drivers (a plain campaign and the durable
runner) go through it.

Workloads flow as a *stream*: the engine pulls from the supplied iterable
(typically ``AceSynthesizer.generate()``) only as fast as the backend consumes
chunks, so peak memory is O(in-flight chunk), never O(workload space).
Results are aggregated incrementally into a :class:`CampaignResult` as chunks
complete, with a progress callback per chunk and real per-chunk wall-clock
timing measured inside the worker that ran it.  A chunk is the paper's VM
batch (§6.1): its :class:`ChunkStats` are that batch's seconds, worker and
roll-ups, and :attr:`EngineRun.max_chunk_seconds` the wall clock had the
batches run side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional

from ..clock import span
from ..core.results import CampaignResult
from ..fs.registry import models, resolve_fs_name
from ..options import HarnessSpec
from ..workload.workload import Workload
from .backends import (
    ChunkOutcome,
    ChunkStats,
    ExecutionBackend,
    IndexedChunk,
    SerialBackend,
)
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
    chunk: ChunkStats
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
OutcomeCallback = Callable[[ChunkOutcome], None]


@dataclass
class EngineRun:
    """Everything one engine run produced."""

    result: CampaignResult
    chunks: List[ChunkStats] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def max_chunk_seconds(self) -> float:
        """Slowest chunk — the parallel wall clock if chunks were VMs."""
        return max((stats.seconds for stats in self.chunks), default=0.0)


class CampaignEngine:
    """Streams workloads through an execution backend into a campaign result."""

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
        self.fs_name = resolve_fs_name(spec.fs_name)
        self.fs_model = models(self.fs_name)

    # ------------------------------------------------------------------ running

    def run(self, workloads: Iterable[Workload], label: str = "") -> EngineRun:
        """Stream ``workloads`` through the backend in :func:`family_chunks`."""
        timed = TimedIterator(workloads)
        run = self._execute(enumerate(family_chunks(timed, self.chunk_size)), label)
        self._split_wall_clock(run, timed)
        return run

    def run_indexed(self, chunks: Iterable[IndexedChunk], label: str = "",
                    on_outcome: Optional[OutcomeCallback] = None,
                    generation: Optional[TimedIterator] = None) -> EngineRun:
        """Run explicitly indexed chunks, observing each outcome as it lands.

        This is the durable runner's entry point: chunk indices are assigned
        by the caller (so a resumed campaign dispatches only its pending
        indices and the sparse index set still reassembles in stream order),
        and ``on_outcome`` fires with the full :class:`ChunkOutcome` — results
        included — *before* any progress callback, so the state store commits
        a chunk before the world hears about it.  ``generation`` times the
        workload generator ``chunks`` are cut from, when the caller has one.
        """
        run = self._execute(iter(chunks), label, on_outcome=on_outcome)
        self._split_wall_clock(run, generation)
        return run

    def _split_wall_clock(self, run: EngineRun, generation: Optional[TimedIterator]) -> None:
        """Set the result's generation seconds and the testing seconds left of the wall clock."""
        run.result.generation_seconds = generation.seconds if generation is not None else 0.0
        if self.backend.overlaps_generation:
            # Workers keep testing while the dispatch thread pulls from the
            # generator, so generation costs no extra wall clock.
            run.result.testing_seconds = run.wall_clock_seconds
        else:
            run.result.testing_seconds = max(
                run.wall_clock_seconds - run.result.generation_seconds, 0.0
            )

    def _execute(self, stream, label: str,
                 on_outcome: Optional[OutcomeCallback] = None) -> EngineRun:
        result = CampaignResult(fs_name=self.fs_name, fs_model=self.fs_model, label=label)
        run = EngineRun(result=result)
        chunk_results: List[List] = []  # completion-ordered, parallel to run.chunks
        failing = 0  # running tally: a rescan per event would be quadratic
        with span(run, "wall_clock_seconds") as clock:
            for outcome in self.backend.execute(self.spec, stream):
                if on_outcome is not None:
                    # Persistence hook: runs before aggregation and progress so a
                    # durable campaign commits the chunk before reporting it.
                    on_outcome(outcome)
                result.ingest_many(outcome.results)
                stats = outcome.stats()
                failing += stats.failing_workloads
                run.chunks.append(stats)
                chunk_results.append(outcome.results)
                if self.progress is not None:
                    self.progress(ProgressEvent(
                        chunks_done=len(run.chunks),
                        workloads_done=result.workloads_tested,
                        failing_workloads=failing,
                        elapsed_seconds=clock.seconds,
                        chunk=stats,
                        session_workloads=result.workloads_tested,
                    ))
        order = sorted(range(len(run.chunks)), key=lambda pos: run.chunks[pos].index)
        # Reassemble completion-ordered chunks back into stream order, so
        # result.results corresponds positionally to the input workloads
        # whichever backend ran them.
        result.results = [
            test_result
            for pos in order
            for test_result in chunk_results[pos]
        ]
        run.chunks = [run.chunks[pos] for pos in order]
        return run

