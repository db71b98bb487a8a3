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
  A session is one pass over the stream: it registers each chunk, then
  claims or skips it.  It reads one chunk ahead, so the stream is drained
  when the last chunk is registered, and the census is completed right
  there, before that chunk is dispatched: a session's last ingest is its
  last write of progress, and later sessions take their totals from the
  store.  Chunking is always family-affine and depends on the stream and
  ``chunk_size`` alone, so a session resumed under any execution options
  (worker count, sharing switches, spine budget) finds the same chunks,
  keeps whole ACE sibling families on one worker and loses none of the
  prefix sharing.
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
  no result of its own: each chunk's results go to the store as it lands,
  with the testing time the engine gives the chunk, so a session killed
  after its last ingest has stored all of its testing time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import replace
from typing import List, Optional

from ..ace.adapter import CrashMonkeyAdapter
from ..core.campaign import B3Campaign, CampaignConfig
from ..core.results import CampaignResult
from ..engine.backends import ChunkOutcome
from ..engine.engine import ProgressCallback
from ..options import IDENTITY, RETIRED_OPTIONS
from ..workload.workload import Workload
from .api import SessionStats
from .statedb import CampaignStateDB


def chunk_identity(chunk: List[Workload]) -> str:
    """Stable content id of a chunk: digest of its members' prefix keys."""
    hasher = hashlib.sha1()
    for workload in chunk:
        hasher.update(workload.prefix_key().encode("ascii"))
    return hasher.hexdigest()[:16]


def default_campaign_id(config: CampaignConfig) -> str:
    """Deterministic id for ad-hoc durable runs (CLI ``campaign --state-db``).

    Derived from the config's identity options, so re-invoking the same
    command — under any execution options — resumes the same campaign
    instead of starting a parallel twin.  The ``default\\x00`` prefix and the
    retired identity options, hashed at the value every configuration held
    (:data:`~repro.options.RETIRED_OPTIONS`), keep the ids that stores
    written by older versions already hold.
    """
    retired = {name: held for name, (tag, held) in RETIRED_OPTIONS.items() if tag == IDENTITY}
    identity = {**retired, **config.identity()}
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

        def finish_census() -> None:
            db.finish_census(campaign_id, adapter.invalid_workloads, timed.seconds)

        def pending_chunks():
            index, chunk = 0, next(chunks, None)
            if chunk is None:
                finish_census()  # no valid workload: the census is complete and empty
            while chunk is not None:
                following = next(chunks, None)
                db.register_chunks(
                    campaign_id, [(index, chunk_identity(chunk), len(chunk))]
                )
                if following is None:
                    # The stream is drained: the census completes with its
                    # last chunk, before that chunk is claimed, so no write
                    # of progress is left after the session's last ingest.
                    finish_census()
                if index not in done:
                    db.claim_chunk(campaign_id, index)
                    session.chunks_executed += 1
                    session.workloads_executed += len(chunk)
                    yield (index, chunk)
                index, chunk = index + 1, following

        def on_outcome(outcome: ChunkOutcome, seconds: float) -> None:
            # The chunk's testing time goes to the store with it, so a session
            # killed after its last ingest has stored all of its own.
            if not db.ingest_outcome(campaign_id, outcome, testing_seconds=seconds):
                session.duplicate_ingests += 1

        campaign.engine(progress, spec=spec).run_indexed(pending_chunks(), on_outcome, timed)
        return db.campaign_result(campaign_id)
