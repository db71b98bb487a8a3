"""Durable campaign execution.

``DurableCampaignRunner`` drives a :class:`~repro.core.campaign.B3Campaign`'s
chunk stream and engine through the state store, so a campaign survives the
death of the process running it:

* **Deterministic chunk census.**  The campaign's chunk stream (synthesizer
  -> adapter -> family-affine chunker) is deterministic per config, so chunks
  can be enumerated identically in every session.  Each chunk's identity is
  a digest over its members' :meth:`~repro.workload.workload.Workload.prefix_key`
  — content-derived, so a drifted config (different bounds, different ops)
  is detected as a key mismatch instead of silently mixing result sets.
  Registration happens in the same generation pass that dispatches work
  (register, then claim-or-skip, chunk by chunk); once one session has
  drained the stream the census is complete and later sessions take their
  totals from the store.  Chunking is always
  family-affine and depends on the stream and ``chunk_size`` alone, so a
  session resumed under any execution options (worker count, sharing
  switches, spine budget) finds the same chunks, keeps whole ACE sibling
  families on one worker and loses none of the prefix sharing.
* **Crash recovery.**  Every session starts with
  :meth:`~repro.service.statedb.CampaignStateDB.recover_from_crash` (orphaned
  ``processing`` chunks go back to ``pending``), skips chunks already
  ``done``, and dispatches only the remainder.  Completed chunks commit
  atomically before the progress callback fires, so the store never claims
  more than actually happened.
* **Identical final reports.**  Every session returns the result the store
  holds (:meth:`~repro.service.statedb.CampaignStateDB.campaign_result`), read
  in stream order, so an interrupted-and-resumed campaign yields the same
  reports, scenario totals and dedup counters as an uninterrupted run —
  under the serial and the process-pool backend alike.  The session holds
  no result of its own: each chunk's results go to the store as it lands.

The runner honours one fault-injection hook, in the spirit of a tester that
must survive its own medicine: ``REPRO_SELFCRASH_AFTER_CHUNKS=N`` SIGKILLs
the process, and its pool workers first, after the Nth chunk of the session
is durably ingested.  The
crash-resume tests and the CI smoke job interrupt real campaigns with it.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import signal
from dataclasses import replace
from typing import List, Optional

from ..ace.adapter import CrashMonkeyAdapter
from ..core.campaign import B3Campaign, CampaignConfig
from ..core.results import CampaignResult
from ..engine.backends import ChunkOutcome
from ..engine.engine import ProgressCallback
from ..workload.workload import Workload
from .api import SessionStats
from .statedb import CampaignStateDB

#: Fault-injection hook: SIGKILL the process after this many durable ingests.
SELFCRASH_ENV = "REPRO_SELFCRASH_AFTER_CHUNKS"


def chunk_identity(chunk: List[Workload]) -> str:
    """Stable content id of a chunk: digest of its members' prefix keys."""
    hasher = hashlib.sha1()
    for workload in chunk:
        hasher.update(workload.prefix_key().encode("ascii"))
    return hasher.hexdigest()[:16]


#: identity options removed since these ids were first derived, at the value
#: every configuration held unless it set one: still hashed, so that an option
#: nobody set going away does not move the id of a campaign a store holds
REMOVED_IDENTITY_DEFAULTS = {"analyze_mechanisms": None}


def default_campaign_id(config: CampaignConfig) -> str:
    """Deterministic id for ad-hoc durable runs (CLI ``campaign --state-db``).

    Derived from the config's identity options, so re-invoking the same
    command — under any execution options — resumes the same campaign
    instead of starting a parallel twin.  The ``default\\x00`` prefix and
    :data:`REMOVED_IDENTITY_DEFAULTS` keep the ids that stores written by
    older versions already hold.
    """
    identity = {**REMOVED_IDENTITY_DEFAULTS, **config.identity()}
    digest = hashlib.sha1(
        ("default\x00" + json.dumps(identity, sort_keys=True)).encode("utf-8")
    ).hexdigest()
    return f"dur-{digest[:12]}"


class DurableCampaignRunner:
    """Run a campaign against a state store; resumable, exactly-once chunks."""

    def __init__(self, config: CampaignConfig, state_db: "CampaignStateDB | str",
                 campaign_id: Optional[str] = None):
        """
        Args:
            config: the campaign to run.  Its identity options must match
                the stored campaign's when ``campaign_id`` already exists;
                its execution options are this session's own.
            state_db: a :class:`CampaignStateDB` or a path to open one at;
                not ``':memory:'``, since the result is read back by path.
            campaign_id: store key; defaults to a deterministic digest of
                the config's identity so identical invocations resume each
                other.
        """
        self.config = config
        if getattr(state_db, "path", state_db) == ":memory:":
            raise ValueError("a durable campaign needs a state store on disk, not ':memory:'")
        if isinstance(state_db, CampaignStateDB):
            self.db = state_db
            self._owns_db = False
        else:
            self.db = CampaignStateDB(state_db)
            self._owns_db = True
        self.campaign_id = campaign_id or default_campaign_id(config)
        self._campaign = B3Campaign(config)
        #: audit trail of the most recent :meth:`run` session
        self.last_session: Optional[SessionStats] = None
        self._selfcrash_after = int(os.environ.get(SELFCRASH_ENV, "0") or "0")

    @classmethod
    def from_db(cls, state_db: "CampaignStateDB | str", campaign_id: str,
                **execution) -> "DurableCampaignRunner":
        """Rebuild a runner purely from the store (the resume path).

        ``execution`` replaces stored execution options for this session; an
        identity option here is refused when the session runs, like any
        other drift.  A store path that does not exist, or an id the store
        does not hold, raises :class:`~repro.errors.UnknownCampaignError`.
        """
        owned = not isinstance(state_db, CampaignStateDB)
        db = CampaignStateDB.existing(state_db) if owned else state_db
        try:
            config = replace(CampaignConfig.from_dict(db.load_config(campaign_id)), **execution)
        except BaseException:
            if owned:
                db.close()
            raise
        runner = cls(config, db, campaign_id=campaign_id)
        runner._owns_db = owned
        return runner

    def close(self) -> None:
        if self._owns_db:
            self.db.close()

    # -------------------------------------------------------------- execution

    def _persist_mechanism_report(self) -> None:
        """Store the campaign's mechanism-analysis summary, once.

        Only meaningful under the ``mechanism`` crash plan.  The analysis is
        a pure function of the recorded stream, and ACE siblings share their
        mechanism structure, so one representative workload's report (the
        first valid one) summarizes the campaign family.  Idempotent across
        sessions: the first stored report wins.
        """
        if self.config.crash_plan != "mechanism":
            return
        if self.db.load_mechanism_report(self.campaign_id) is not None:
            return
        adapter = CrashMonkeyAdapter(self._campaign.fs_name)
        for workload in adapter.adapt_stream(self._campaign.iter_workloads()):
            report = self._campaign.harness.analyze(workload)
            self.db.save_mechanism_report(self.campaign_id, report.to_dict())
            break

    def run(self, progress: Optional[ProgressCallback] = None) -> CampaignResult:
        """Run (or resume) the campaign to completion; returns its result.

        Every chunk not yet ``done`` is dispatched, so the result is the
        campaign's whole :class:`CampaignResult`, read from the store — also
        when a previous session already finished everything (then this
        session executes zero chunks).  A session that dies part-way
        (killed, or an exception out of ``progress``) leaves the chunks it
        ingested ``done`` and its in-flight ones for the next session's
        recovery.
        """
        db, campaign_id = self.db, self.campaign_id
        session = SessionStats()
        self.last_session = session

        campaign = self._campaign
        db.create_campaign(campaign_id, campaign.config.to_dict(), label=campaign.label,
                           fs_name=campaign.fs_name, fs_model=campaign.fs_model)
        session.chunks_recovered = db.recover_from_crash(campaign_id)

        # One generation pass serves both enumeration and dispatch: chunks
        # are registered in the store as the stream produces them (the
        # census), and pending ones are claimed and yielded to the engine in
        # the same sweep.  Once any session has drained the full stream the
        # campaign's totals are durable; until then progress takes the
        # workload total from the space index, so every session has an ETA.
        status = db.status(campaign_id)
        session.chunks_skipped = status.chunks_done
        if status.complete:
            # Everything already ran: no synthesizer, no harness.
            return db.campaign_result(campaign_id)
        done = db.done_chunk_indices(campaign_id)
        census = (status.chunks_total, status.workloads_total) if status.census_done else None
        progress = campaign.track_progress(
            progress, (status.chunks_done, status.workloads_done, status.failing_workloads),
            census)

        self._persist_mechanism_report()

        spec = campaign.spec
        if spec.spine_spill_dir is None:
            # Spilled spine nodes live beside the state database so a
            # resumed session reuses one well-known location.  The files
            # are session-scoped scratch (every session refreezes its own
            # spine), so stale ones from a crashed session are purged
            # rather than trusted.
            session_dir = os.path.join(f"{db.path}.spine", campaign_id)
            shutil.rmtree(session_dir, ignore_errors=True)
            spec = replace(spec, spine_spill_dir=session_dir)

        adapter = CrashMonkeyAdapter(campaign.fs_name)
        chunks, timed = campaign.chunk_stream(adapter)

        def pending_chunks():
            for index, chunk in enumerate(chunks):
                db.register_chunks(
                    campaign_id, [(index, chunk_identity(chunk), len(chunk))]
                )
                if index in done:
                    continue
                db.claim_chunk(campaign_id, index)
                session.chunks_executed += 1
                session.workloads_executed += len(chunk)
                yield (index, chunk)
            db.finish_census(campaign_id, adapter.invalid_workloads, timed.seconds)

        ingested = 0

        def on_outcome(outcome: ChunkOutcome) -> None:
            nonlocal ingested
            if db.ingest_outcome(campaign_id, outcome):
                ingested += 1
            else:
                session.duplicate_ingests += 1
            if self._selfcrash_after and ingested >= self._selfcrash_after:
                # Fault injection: die the hard way, mid-campaign, with
                # chunks still in flight — exactly what recovery is for.  The
                # pool's workers die too, as they would with their host:
                # orphaned, they would idle on forever.
                for worker in multiprocessing.active_children():
                    worker.kill()
                os.kill(os.getpid(), signal.SIGKILL)

        run = campaign.engine(progress, spec=spec).run_indexed(
            pending_chunks(), label=campaign.label, on_outcome=on_outcome, generation=timed)
        db.add_testing_seconds(campaign_id, run.result.testing_seconds)
        return db.campaign_result(campaign_id)
