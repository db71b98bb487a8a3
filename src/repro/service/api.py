"""Plain-data API of durable campaigns.

What a client (the CLI, a test) reads back from a state store is defined here
as plain dataclasses: a campaign's progress view, with the lifecycle word it
derives, and a runner session's audit trail.  Nothing in this module touches sqlite or the
engine — it is the surface the stateful layers
(:mod:`repro.service.statedb`, :mod:`repro.service.runner`) produce.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Campaign lifecycle words, derived from its chunks (:attr:`CampaignStatus.status`).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"

#: Chunk lifecycle states (the pending -> processing -> done state machine;
#: ``recover_from_crash`` moves processing back to pending).
PENDING = "pending"
PROCESSING = "processing"
CHUNK_DONE = "done"


# --------------------------------------------------------------------------- views


@dataclass
class CampaignStatus:
    """Progress snapshot of one campaign in the state store.

    The chunks are the one record of progress, so the campaign's lifecycle
    is read off them, never stored beside them: it is complete once a
    session has drained the workload stream (the census) and every chunk it
    registered is done.
    """

    campaign_id: str
    label: str
    #: some session drained the workload stream, so every chunk is registered
    census_done: bool = False
    chunks_done: int = 0
    chunks_total: int = 0
    #: chunks currently claimed by a session (in-flight; reset on recovery)
    chunks_processing: int = 0
    workloads_done: int = 0
    workloads_total: int = 0
    failing_workloads: int = 0
    raw_reports: int = 0
    invalid_workloads: int = 0
    testing_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return self.census_done and self.chunks_done == self.chunks_total

    @property
    def status(self) -> str:
        """``done`` when complete, else ``queued`` until a chunk is registered,
        then ``running``."""
        if self.complete:
            return DONE
        return RUNNING if self.chunks_total else QUEUED

    def describe(self) -> str:
        return (
            f"{self.campaign_id:<16} {self.status:<8} "
            f"chunks {self.chunks_done}/{self.chunks_total}"
            f"{f' (+{self.chunks_processing} in flight)' if self.chunks_processing else ''}, "
            f"{self.workloads_done}/{self.workloads_total} workloads, "
            f"{self.failing_workloads} failing, {self.raw_reports} raw reports "
            f"[{self.label or '-'}]"
        )


@dataclass
class SessionStats:
    """What one durable-runner session actually did (resume audit trail)."""

    #: chunks whose ``processing`` state was reset to ``pending`` on entry —
    #: in-flight work orphaned by a crash of the previous session
    chunks_recovered: int = 0
    #: chunks skipped because a previous session already completed them
    chunks_skipped: int = 0
    #: chunks executed (dispatched to a backend) by this session
    chunks_executed: int = 0
    #: workloads inside the executed chunks
    workloads_executed: int = 0
    #: chunk outcomes whose ingest found the chunk already done (late retry
    #: arrivals; their results were discarded by dedup-at-write)
    duplicate_ingests: int = 0

    def describe(self) -> str:
        return (
            f"session: {self.chunks_executed} chunks executed "
            f"({self.workloads_executed} workloads), {self.chunks_skipped} already done, "
            f"{self.chunks_recovered} recovered from crash, "
            f"{self.duplicate_ingests} duplicate ingests dropped"
        )
