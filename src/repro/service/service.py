"""Campaign-as-a-service: many tenants, one worker fleet, durable runs.

``CampaignService`` is the long-lived layer the ROADMAP's
millions-of-users framing asks for: tenants submit
:class:`~repro.service.api.CampaignRequest`s into the state store (the ingest
queue — submissions are durable, not in-memory), and the service interleaves
every unfinished campaign onto one shared worker fleet, one bounded *slice*
of chunks at a time.  Which campaign's slice runs next is decided by the
cluster layer's :class:`~repro.cluster.scheduler.FairScheduler` (least-served
tenant round robin), so a tenant with twenty queued campaigns cannot starve
a tenant with one.

Because every slice is a :class:`DurableCampaignRunner` session, the service
inherits all of the durability story: a service crash loses at most the
in-flight chunks of the current slice, and the next ``serve`` recovers them.
Per-tenant accounting (:meth:`tenant_usage`) is computed from the same
counters :class:`~repro.core.results.CampaignResult` aggregates, summed in
sql over every chunk the fleet ever completed for that tenant.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..cluster.scheduler import FairScheduler
from ..core.campaign import B3Campaign
from ..core.results import CampaignResult
from ..engine.engine import ProgressCallback
from .api import CampaignRequest, CampaignStatus, TenantUsage
from .runner import DurableCampaignRunner, create_campaign
from .statedb import CampaignStateDB

#: Called after every scheduled slice: (tenant, campaign_id, completed?).
SliceCallback = Callable[[str, str, bool], None]


class CampaignService:
    """Schedules durable campaigns from many tenants over one worker fleet."""

    def __init__(self, state_db: "CampaignStateDB | str", processes: int = 1,
                 slice_chunks: int = 4,
                 progress: Optional[ProgressCallback] = None,
                 on_slice: Optional[SliceCallback] = None):
        """
        Args:
            state_db: the shared store (path or open handle).
            processes: worker-fleet size every slice runs on; overrides each
                campaign's own ``processes`` so tenants share one fleet
                instead of sizing their own.
            slice_chunks: chunks per scheduling slice — the fairness quantum.
                Smaller values interleave tenants more finely at the cost of
                more backend spin-ups.
            progress: forwarded to every runner session (chunk-level events,
                with campaign-wide totals).
            on_slice: observer invoked after each slice (used by the CLI to
                narrate scheduling and by tests to assert fairness).
        """
        if isinstance(state_db, CampaignStateDB):
            self.db = state_db
            self._owns_db = False
        else:
            self.db = CampaignStateDB(state_db)
            self._owns_db = True
        self.processes = max(1, processes)
        if slice_chunks < 1:
            raise ValueError("slice_chunks must be at least 1")
        self.slice_chunks = slice_chunks
        self.progress = progress
        self.on_slice = on_slice
        self.scheduler = FairScheduler()
        self._stop = threading.Event()

    def close(self) -> None:
        if self._owns_db:
            self.db.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- ingest

    def submit(self, request: CampaignRequest) -> str:
        """Queue a campaign; returns its id.  Durable immediately."""
        campaign_id = request.name or self.db.next_campaign_id(request.tenant)
        # The runner registers the same row on first run; creating it here
        # makes the submission itself durable and visible to `status`.
        create_campaign(self.db, campaign_id, B3Campaign(request.config), request.tenant)
        return campaign_id

    # ------------------------------------------------------------ scheduling

    def run_slice(self) -> Optional[str]:
        """Run one fair-scheduled slice; returns the campaign id, or None.

        ``None`` means no campaign has work left — the queue is drained.
        """
        pick = self.scheduler.pick(self.db.runnable_by_tenant())
        if pick is None:
            return None
        tenant, campaign_id = pick
        runner = DurableCampaignRunner.from_db(
            self.db, campaign_id, processes=self.processes
        )
        result = runner.run(progress=self.progress, max_chunks=self.slice_chunks)
        if self.on_slice is not None:
            self.on_slice(tenant, campaign_id, result is not None)
        return campaign_id

    def request_stop(self) -> None:
        """Ask a running :meth:`serve` to return after the current slice.

        Safe from any thread or signal handler: the current slice always
        finishes (its chunks commit to the state store), so a stop is never
        a crash — the next ``serve`` has nothing to recover from it.
        """
        self._stop.set()

    def serve(self, max_slices: Optional[int] = None,
              watch: Optional[float] = None) -> int:
        """Drain the queue (recovering crashed chunks first); slices served.

        With ``watch`` set, an empty queue does not end the serve: the
        service sleeps ``watch`` seconds and re-polls, picking up campaigns
        submitted while it slept — the long-lived deployment mode.  It then
        runs until :meth:`request_stop` (the CLI wires SIGTERM to it) or
        ``max_slices``.  Without ``watch``, draining the queue returns, which
        keeps the one-shot mode testable without a supervisor.
        """
        self.db.recover_from_crash()
        served = 0
        while not self._stop.is_set() and (
            max_slices is None or served < max_slices
        ):
            if self.run_slice() is not None:
                served += 1
                continue
            if watch is None:
                break
            # Event.wait doubles as an interruptible sleep: a stop request
            # mid-poll returns immediately instead of after the interval.
            if self._stop.wait(timeout=watch):
                break
            # A worker that crashed while we slept leaves leased chunks
            # behind; reclaim them before the next poll the same way a
            # fresh serve would.
            self.db.recover_from_crash()
        return served

    # -------------------------------------------------------------- queries

    def status(self, campaign_id: str) -> CampaignStatus:
        return self.db.status(campaign_id)

    def statuses(self, tenant: Optional[str] = None) -> List[CampaignStatus]:
        return self.db.statuses(tenant)

    def results(self, campaign_id: str) -> CampaignResult:
        """The reconstructed aggregate result of a finished campaign."""
        status = self.db.status(campaign_id)
        if not status.complete:
            raise ValueError(
                f"campaign {campaign_id!r} is {status.status} "
                f"({status.chunks_done}/{status.chunks_total} chunks); "
                f"results are available once it is done"
            )
        return self.db.campaign_result(campaign_id)

    def tenant_usage(self) -> Dict[str, TenantUsage]:
        return {usage.tenant: usage for usage in self.db.tenant_usage()}
