"""B3 campaigns: generate bounded workloads with ACE and test them with CrashMonkey.

This is the top of the stack — the equivalent of the paper's testing strategy
(§5.3): pick bounds, exhaustively generate workloads, run every workload
through CrashMonkey against the target file system, and post-process the
resulting bug reports.

The campaign itself is a thin façade: execution is delegated to the streaming
engine (:mod:`repro.engine`), which pulls workloads lazily from the
synthesizer, dispatches them in chunks to a serial or process-pool backend,
and aggregates results incrementally.  Peak memory is O(in-flight chunk), not
O(workload space).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..ace.adapter import CrashMonkeyAdapter
from ..ace.bounds import Bounds, seq1_bounds, seq2_bounds
from ..ace.synthesizer import AceSynthesizer
from ..crashmonkey.harness import CrashMonkey
from ..engine.backends import SerialBackend, make_backend
from ..engine.engine import DEFAULT_CHUNK_SIZE, CampaignEngine, EngineRun, ProgressCallback
from ..fs.bugs import BugConfig
from ..fs.registry import models, resolve_fs_name
from ..options import CampaignConfig
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
        #: engine bookkeeping of the most recent :meth:`run` (chunk stats, wall clock)
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

    # ------------------------------------------------------------------ execution

    def _engine(self, progress: Optional[ProgressCallback]) -> CampaignEngine:
        if self.config.processes <= 1:
            # Reuse the campaign's own harness across the whole run.
            backend = SerialBackend(harness=self.harness)
        else:
            backend = make_backend(self.config.processes)
        chunk_size = (self.config.chunk_size if self.config.chunk_size is not None
                      else DEFAULT_CHUNK_SIZE)
        return CampaignEngine(
            self.spec,
            backend=backend,
            chunk_size=chunk_size,
            progress=progress,
        )

    def run(self, workloads: Optional[Iterable[Workload]] = None,
            progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Run the campaign; workloads are streamed from ACE unless supplied.

        Every workload flows through the CrashMonkey adapter first: invalid
        ones are dropped from testing but surfaced in the result's
        ``invalid_workloads`` count (never silently swallowed), which also
        keeps a bad hand-supplied workload from aborting the whole run.

        With a ``progress`` callback on an ACE-supplied run, events carry
        ``workloads_total`` (hence an ETA), sized from the space index; runs
        without a callback never compute it.
        """
        source = workloads if workloads is not None else self.iter_workloads()
        total = (self.workloads_total()
                 if progress is not None and workloads is None else None)
        adapter = CrashMonkeyAdapter(self.fs_name)
        run = self._engine(progress).run(adapter.adapt_stream(source), label=self.label,
                                         workloads_total=total)
        run.result.invalid_workloads = adapter.invalid_workloads
        self.last_run = run
        return run.result


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
