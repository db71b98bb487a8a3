"""The campaign execution engine.

One shared generate → dispatch → check → aggregate path for everything that
tests workloads in bulk: :class:`~repro.core.campaign.B3Campaign`,
:func:`~repro.cluster.runner.run_on_cluster`, and the CLI are thin façades
over this module.

Workloads flow as a *stream*: the engine pulls from the supplied iterable
(typically ``AceSynthesizer.generate()``) only as fast as the backend consumes
chunks, so peak memory is O(in-flight chunk), never O(workload space).
Results are aggregated incrementally into a :class:`CampaignResult` as chunks
complete, with a progress callback per chunk and real per-chunk wall-clock
timing measured inside the worker that ran it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional

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
    make_backend,
)
from .stream import TimedIterator, chunked_affine

#: Default chunk size: large enough to amortize dispatch, small enough for
#: balanced progress reporting and bounded in-flight memory.
DEFAULT_CHUNK_SIZE = 64


@dataclass
class ProgressEvent:
    """Snapshot passed to the progress callback after every completed chunk."""

    chunks_done: int
    workloads_done: int
    failing_workloads: int
    #: workloads pulled from the generator so far (>= workloads_done)
    generated: int
    elapsed_seconds: float
    chunk: ChunkStats
    #: total chunks/workloads of the whole campaign, when known upfront: the
    #: durable runner registers the full chunk census before dispatching; a
    #: streaming campaign knows only ``workloads_total`` (sized from the ACE
    #: space index, the space is never materialized) and leaves
    #: ``chunks_total`` ``None``
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

    def _chunked(self, timed: TimedIterator):
        """Cut the stream into chunks at ACE sibling-family boundaries.

        Runs of equal :meth:`Workload.family_key` stay in one chunk, so a
        pool worker's prefix spine sees a family's shared prefix
        together instead of split across workers.
        The stream is never reordered, and the layout depends on it and
        ``chunk_size`` alone — which is what lets a durable campaign resume
        under any execution options and still find its own chunks.
        """
        return chunked_affine(timed, self.chunk_size,
                              key=lambda workload: workload.family_key())

    def run(self, workloads: Iterable[Workload], label: str = "",
            workloads_total: Optional[int] = None) -> EngineRun:
        """Stream ``workloads`` through the backend; chunking is the engine's.

        ``workloads_total``, when the caller knows the stream's length without
        materializing it, reaches the progress events (done/total and ETA).
        """
        timed = TimedIterator(workloads)
        run = self._execute(enumerate(self._chunked(timed)), label, timed,
                            workloads_total=workloads_total)
        run.result.generation_seconds = timed.seconds
        if self.backend.overlaps_generation:
            # Workers keep testing while the dispatch thread pulls from the
            # generator, so generation costs no extra wall clock.
            run.result.testing_seconds = run.wall_clock_seconds
        else:
            run.result.testing_seconds = max(
                run.wall_clock_seconds - timed.seconds, 0.0
            )
        return run

    def run_indexed(self, chunks: Iterable[IndexedChunk], label: str = "",
                    on_outcome: Optional[OutcomeCallback] = None,
                    chunks_total: Optional[int] = None,
                    workloads_total: Optional[int] = None,
                    chunks_done_offset: int = 0,
                    workloads_done_offset: int = 0,
                    failing_offset: int = 0) -> EngineRun:
        """Run explicitly indexed chunks, observing each outcome as it lands.

        This is the durable runner's entry point: chunk indices are assigned
        by the caller (so a resumed campaign dispatches only its pending
        indices and the sparse index set still reassembles in stream order),
        ``on_outcome`` fires with the full :class:`ChunkOutcome` — results
        included — *before* any progress callback, so the state store commits
        a chunk before the world hears about it, and the ``*_offset`` /
        ``*_total`` values let progress events report campaign-wide position
        (chunks done / total, ETA) instead of session-local counts.
        """
        run = self._execute(
            iter(chunks), label, source=None, on_outcome=on_outcome,
            chunks_total=chunks_total, workloads_total=workloads_total,
            chunks_done_offset=chunks_done_offset,
            workloads_done_offset=workloads_done_offset,
            failing_offset=failing_offset,
        )
        run.result.testing_seconds = run.wall_clock_seconds
        return run

    def _execute(self, stream, label: str,
                 source: Optional[TimedIterator],
                 on_outcome: Optional[OutcomeCallback] = None,
                 chunks_total: Optional[int] = None,
                 workloads_total: Optional[int] = None,
                 chunks_done_offset: int = 0,
                 workloads_done_offset: int = 0,
                 failing_offset: int = 0) -> EngineRun:
        result = CampaignResult(fs_name=self.fs_name, fs_model=self.fs_model, label=label)
        run = EngineRun(result=result)
        chunk_results: List[List] = []  # completion-ordered, parallel to run.chunks
        failing = failing_offset  # running tally: a rescan per event would be quadratic
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
                        chunks_done=len(run.chunks) + chunks_done_offset,
                        workloads_done=result.workloads_tested + workloads_done_offset,
                        failing_workloads=failing,
                        generated=source.count if source is not None else result.workloads_tested,
                        elapsed_seconds=clock.seconds,
                        chunk=stats,
                        chunks_total=chunks_total,
                        workloads_total=workloads_total,
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


def run_campaign(spec: HarnessSpec, workloads: Iterable[Workload], label: str = "",
                 processes: int = 1, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 progress: Optional[ProgressCallback] = None) -> EngineRun:
    """One-call engine entry point used by the façades."""
    engine = CampaignEngine(
        spec,
        backend=make_backend(processes),
        chunk_size=chunk_size,
        progress=progress,
    )
    return engine.run(workloads, label=label)
