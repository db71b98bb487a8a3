"""Plain-data API of the campaign service.

Everything a client (the CLI, a test, a future HTTP layer) exchanges with the
service is defined here as JSON-friendly dataclasses: campaign
requests, progress/status views, and per-tenant usage accounting.  Nothing in
this module touches sqlite or the engine — it is the stable surface the
stateful layers (:mod:`repro.service.statedb`, :mod:`repro.service.service`)
produce and consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..options import CampaignConfig

#: Campaign lifecycle states in the state store.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"

CAMPAIGN_STATES = (QUEUED, RUNNING, DONE)

#: Chunk lifecycle states (the pending -> processing -> done state machine;
#: ``recover_from_crash`` moves processing back to pending).
PENDING = "pending"
PROCESSING = "processing"
CHUNK_DONE = "done"

CHUNK_STATES = (PENDING, PROCESSING, CHUNK_DONE)


# ------------------------------------------------------------------------- requests


@dataclass
class CampaignRequest:
    """One tenant's ask: run this campaign configuration.

    ``name`` pins the campaign id (useful for scripted resume); left empty,
    the service assigns ``<tenant>-c<N>``.
    """

    config: CampaignConfig
    tenant: str = "default"
    name: str = ""


# --------------------------------------------------------------------------- views


@dataclass
class CampaignStatus:
    """Progress snapshot of one campaign in the state store."""

    campaign_id: str
    tenant: str
    label: str
    status: str
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
        return self.status == DONE

    def describe(self) -> str:
        return (
            f"{self.campaign_id:<16} {self.tenant:<10} {self.status:<8} "
            f"chunks {self.chunks_done}/{self.chunks_total}"
            f"{f' (+{self.chunks_processing} in flight)' if self.chunks_processing else ''}, "
            f"{self.workloads_done}/{self.workloads_total} workloads, "
            f"{self.failing_workloads} failing, {self.raw_reports} raw reports "
            f"[{self.label or '-'}]"
        )


@dataclass
class TenantUsage:
    """Per-tenant accounting over every chunk the fleet completed.

    Built from the same counters :class:`~repro.core.results.CampaignResult`
    aggregates (workloads, crash points, scenario/dedup totals, worker CPU
    seconds), summed across all of a tenant's campaigns — the billing view of
    the shared fleet.
    """

    tenant: str
    campaigns: int = 0
    chunks: int = 0
    workloads: int = 0
    failing_workloads: int = 0
    raw_reports: int = 0
    crash_points: int = 0
    scenarios_tested: int = 0
    deduped_scenarios: int = 0
    prefix_hits: int = 0
    replay_hits: int = 0
    worker_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.tenant:<10} {self.campaigns} campaign(s), {self.chunks} chunks, "
            f"{self.workloads} workloads ({self.failing_workloads} failing, "
            f"{self.raw_reports} raw reports), {self.crash_points} crash points, "
            f"{self.scenarios_tested} scenarios "
            f"(+{self.deduped_scenarios} deduped), "
            f"{self.worker_seconds:.2f}s worker time"
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
    extra: dict = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"session: {self.chunks_executed} chunks executed "
            f"({self.workloads_executed} workloads), {self.chunks_skipped} already done, "
            f"{self.chunks_recovered} recovered from crash, "
            f"{self.duplicate_ingests} duplicate ingests dropped"
        )
