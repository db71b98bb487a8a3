"""B3 campaigns: generate bounded workloads with ACE and test them with CrashMonkey.

This is the top of the stack — the equivalent of the paper's testing strategy
(§5.3): pick bounds, exhaustively generate workloads, run every workload
through CrashMonkey against the target file system, and post-process the
resulting bug reports.

A campaign is the one thing that turns a configuration into chunks and an
engine (:mod:`repro.engine`); :meth:`B3Campaign.run` and the durable runner
(:mod:`repro.service.runner`) both drive them.  Each chunk is the paper's
per-VM batch (§6.1), and peak memory is O(in-flight chunk), not O(workload
space).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, List, Optional, Tuple

from ..ace.adapter import CrashMonkeyAdapter
from ..ace.bounds import Bounds, seq1_bounds, seq2_bounds
from ..ace.synthesizer import AceSynthesizer
from ..crashmonkey.harness import CrashMonkey
from ..engine.backends import ChunkOutcome, SerialBackend, make_backend
from ..engine.engine import (
    DEFAULT_CHUNK_SIZE,
    CampaignEngine,
    EngineRun,
    ProgressCallback,
    ProgressEvent,
    family_chunks,
)
from ..engine.stream import TimedIterator
from ..fs.bugs import BugConfig
from ..fs.registry import models, resolve_fs_name
from ..options import CampaignConfig, HarnessSpec
from ..workload.workload import Workload
from .results import CampaignResult


class B3Campaign:
    """Run the generate → test → post-process pipeline."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        self.fs_name = resolve_fs_name(config.fs_name)
        self.fs_model = models(self.fs_name)
        self.bounds = config.bounds if config.bounds is not None else seq2_bounds()
        #: what workers build their harnesses from (execution backends ship
        #: this, never the campaign's bounds or fleet size)
        self.spec = config.harness_spec()
        self._harness: Optional[CrashMonkey] = None
        self._synthesizer: Optional[AceSynthesizer] = None
        #: engine bookkeeping of the most recent :meth:`run` (chunk records, clock)
        self.last_run: Optional[EngineRun] = None

    @property
    def harness(self) -> CrashMonkey:
        """The campaign's serial-mode harness, built from the spec on demand.

        Pool-mode runs never touch it — workers build their own harness from
        the (pickled) spec.
        """
        if self._harness is None:
            self._harness = self.spec.build()
        return self._harness

    @property
    def label(self) -> str:
        """The campaign's name in results: its bounds' label, else ``seq-<n>``."""
        return self.bounds.label or f"seq-{self.bounds.seq_length}"

    # ------------------------------------------------------------------ workload supply

    @property
    def synthesizer(self) -> AceSynthesizer:
        """The campaign's ACE synthesizer (one, so its space index is built once)."""
        if self._synthesizer is None:
            self._synthesizer = AceSynthesizer(self.bounds)
        return self._synthesizer

    def iter_workloads(self) -> Iterator[Workload]:
        """Stream the workloads this campaign will test (never materialized)."""
        return self.synthesizer.stream(limit=self.config.max_workloads,
                                       sample=self.config.sample)

    def workloads_total(self) -> int:
        """How many workloads :meth:`iter_workloads` yields, from the space index."""
        return self.synthesizer.stream_size(limit=self.config.max_workloads,
                                            sample=self.config.sample)

    def generate_workloads(self) -> List[Workload]:
        """Materialize the campaign's workloads (prefer :meth:`iter_workloads`)."""
        return list(self.iter_workloads())

    def mechanism_report(self):
        """The static mechanism analysis of the campaign's first valid workload.

        ACE siblings share their mechanism structure, so this one report
        summarizes the campaign family; ``None`` when no workload is valid.
        It is a pure function of the configuration, so it is derived, never
        stored.
        """
        adapter = CrashMonkeyAdapter(self.fs_name)
        for workload in adapter.adapt_stream(self.iter_workloads()):
            return self.harness.analyze(workload)
        return None

    # ------------------------------------------------------------------ execution

    @property
    def chunk_size(self) -> int:
        """Workloads per chunk: the configuration's, else the engine default."""
        size = self.config.chunk_size
        return size if size is not None else DEFAULT_CHUNK_SIZE

    def chunk_stream(self, adapter: CrashMonkeyAdapter
                     ) -> Tuple[Iterator[List[Workload]], TimedIterator]:
        """One pass over the campaign's adapted :func:`family_chunks`.

        ``adapter`` counts the invalid workloads dropped; the returned
        iterator times the generation.  The layout depends on the stream
        and :attr:`chunk_size` alone, so every session finds the same chunks.
        """
        timed = TimedIterator(adapter.adapt_stream(self.iter_workloads()))
        return family_chunks(timed, self.chunk_size), timed

    def engine(self, progress: Optional[ProgressCallback] = None,
               spec: Optional[HarnessSpec] = None) -> CampaignEngine:
        """The engine that runs this campaign's chunks.

        A serial run reuses :attr:`harness`; ``spec`` replaces the
        campaign's own (a durable session's spill directory) and gets a
        harness of its own.
        """
        if self.config.processes > 1:
            backend = make_backend(self.config.processes)
        else:
            backend = SerialBackend(harness=self.harness if spec is None else None)
        return CampaignEngine(spec or self.spec, backend=backend,
                              chunk_size=self.chunk_size, progress=progress)

    def track_progress(self, progress: Optional[ProgressCallback],
                       done: Tuple[int, int, int] = (0, 0, 0),
                       census: Optional[Tuple[int, int]] = None
                       ) -> Optional[ProgressCallback]:
        """``progress``, each session-local engine event moved to where the
        whole campaign stands.

        ``done`` is the ``(chunks, workloads, failing workloads)`` finished
        by earlier sessions, ``census`` the ``(chunks, workloads)`` totals of
        a complete durable census; without one the workload total comes from
        the space index, so the first event already has an ETA.
        """
        if progress is None:
            return None
        chunks_total, workloads_total = census or (None, self.workloads_total())
        chunks_done, workloads_done, failing = done

        def report(event: ProgressEvent) -> None:
            progress(replace(
                event, chunks_done=event.chunks_done + chunks_done,
                workloads_done=event.workloads_done + workloads_done,
                failing_workloads=event.failing_workloads + failing,
                chunks_total=chunks_total, workloads_total=workloads_total))
        return report

    def run(self, workloads: Optional[Iterable[Workload]] = None,
            progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Run the campaign; workloads are streamed from ACE unless supplied.

        Every workload flows through the CrashMonkey adapter first: invalid
        ones are dropped from testing but surfaced in the result's
        ``invalid_workloads`` count (never silently swallowed), which also
        keeps a bad hand-supplied workload from aborting the whole run.
        The chunks' outcomes are collected as they land and become the
        result once the run is over; :attr:`last_run` keeps each chunk's
        record: each is one VM batch's.

        Progress events of an ACE-supplied run carry ``workloads_total``
        (hence an ETA), sized from the space index.
        """
        if workloads is None:
            workloads = self.iter_workloads()
            progress = self.track_progress(progress)
        adapter = CrashMonkeyAdapter(self.fs_name)
        outcomes: List[ChunkOutcome] = []
        run = self.engine(progress).run(adapter.adapt_stream(workloads),
                                        lambda outcome, _: outcomes.append(outcome))
        self.last_run = run
        return CampaignResult.of_outcomes(
            outcomes, fs_name=self.fs_name, fs_model=self.fs_model, label=self.label,
            generation_seconds=run.generation_seconds, testing_seconds=run.testing_seconds,
            invalid_workloads=adapter.invalid_workloads)


def quick_campaign(fs_name: str = "btrfs", seq_length: int = 1,
                   max_workloads: Optional[int] = None,
                   bugs: Optional[BugConfig] = None,
                   sample: bool = False,
                   processes: int = 1) -> CampaignResult:
    """Convenience wrapper: the "single line command to run seq-1 workloads".

    ``quick_campaign()`` with the defaults exhaustively tests every seq-1
    workload against the btrfs-like file system and returns the aggregated
    result — the same entry point the paper advertises for trying the tools.
    Pass ``processes > 1`` to spread testing over a process pool.
    """
    bounds = seq1_bounds() if seq_length == 1 else seq2_bounds()
    if seq_length not in (1, 2):
        bounds = Bounds(seq_length=seq_length, label=f"seq-{seq_length}")
    config = CampaignConfig(
        fs_name=fs_name, bugs=bugs, bounds=bounds,
        max_workloads=max_workloads, sample=sample, processes=processes,
    )
    return B3Campaign(config).run()
