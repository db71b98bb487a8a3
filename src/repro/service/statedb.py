"""The durable campaign state store.

A crash-recovery tester that loses days of campaign progress to a harness
crash has missed its own point.  ``CampaignStateDB`` makes campaign runs
durable the same way the paper's filesystems make data durable: every
completed chunk of work is committed to a sqlite database (WAL) before anyone
hears about it, and a fresh session recovers by resetting whatever was in
flight when the previous session died.

Four tables:

* ``campaigns`` — one row per submitted campaign: tenant, label, the full
  serialized :class:`~repro.options.CampaignConfig` (so any process can
  rebuild an identical engine), lifecycle status and accumulated timing.
* ``chunks`` — the campaign's deterministic chunk census.  Each chunk moves
  ``pending -> processing -> done``; :meth:`recover_from_crash` moves
  orphaned ``processing`` rows back to ``pending`` so a crashed session's
  in-flight work is re-dispatched, never lost and never double-counted.
  Completed chunks also carry the aggregate counters per-tenant accounting
  sums (workloads, reports, scenario/dedup totals, worker seconds).
* ``results`` — one row per tested workload, keyed ``(campaign, chunk,
  position)`` with the serialized :class:`CrashTestResult` as payload.
  Ingest is *dedup-at-write*: result inserts use ``INSERT OR IGNORE`` and a
  chunk whose status is already ``done`` refuses re-ingest entirely, so a
  chunk retried after a crash (or a late pool worker racing a recovery
  session) can never double-count reports or scenario totals.
* ``mechanism_reports`` — one representative serialized
  :class:`~repro.analysis.mechanisms.MechanismReport` per campaign running
  the ``mechanism`` crash plan (the static-analysis summary of the recorded
  family, for post-hoc inspection without re-profiling).

A store written by an older version may also hold a cross-workload dedup
table and a ``chunks.cross_deduped`` column; neither is read or written, and
the column's default keeps new chunk rows valid there.

One instance owns one sqlite connection in the process that built it; the
path, not the object, is what crosses process boundaries.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import fields
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.results import CampaignResult
from ..crashmonkey.report import CrashTestResult
from ..engine.backends import ChunkOutcome
from ..errors import CampaignDriftError
from ..options import RETIRED_EXECUTION_OPTIONS, CampaignConfig
from . import api

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id        TEXT PRIMARY KEY,
    tenant             TEXT NOT NULL DEFAULT 'default',
    label              TEXT NOT NULL DEFAULT '',
    fs_name            TEXT NOT NULL DEFAULT '',
    fs_model           TEXT NOT NULL DEFAULT '',
    status             TEXT NOT NULL DEFAULT 'queued',
    config_json        TEXT NOT NULL,
    census_done        INTEGER NOT NULL DEFAULT 0,
    invalid_workloads  INTEGER NOT NULL DEFAULT 0,
    generation_seconds REAL NOT NULL DEFAULT 0,
    testing_seconds    REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS chunks (
    campaign_id   TEXT NOT NULL,
    chunk_index   INTEGER NOT NULL,
    chunk_key     TEXT NOT NULL,
    workloads     INTEGER NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    seconds       REAL NOT NULL DEFAULT 0,
    worker        TEXT NOT NULL DEFAULT '',
    failing       INTEGER NOT NULL DEFAULT 0,
    raw_reports   INTEGER NOT NULL DEFAULT 0,
    crash_points  INTEGER NOT NULL DEFAULT 0,
    scenarios     INTEGER NOT NULL DEFAULT 0,
    deduped       INTEGER NOT NULL DEFAULT 0,
    prefix_hits   INTEGER NOT NULL DEFAULT 0,
    replay_hits   INTEGER NOT NULL DEFAULT 0,
    cpu_seconds   REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, chunk_index)
);
CREATE TABLE IF NOT EXISTS results (
    campaign_id TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    position    INTEGER NOT NULL,
    result_json TEXT NOT NULL,
    PRIMARY KEY (campaign_id, chunk_index, position)
);
CREATE TABLE IF NOT EXISTS mechanism_reports (
    campaign_id TEXT PRIMARY KEY,
    report_json TEXT NOT NULL
);
"""


class CampaignStateDB:
    """Sqlite-backed store of campaign, chunk and result state."""

    def __init__(self, path: str, timeout: float = 30.0):
        self.path = path
        # Autocommit mode: short statements commit individually and the
        # ingest path opens an explicit
        # BEGIN IMMEDIATE transaction so results + chunk status land
        # atomically — a crash mid-ingest leaves the chunk `processing`,
        # which recovery resets cleanly.
        self._conn = sqlite3.connect(path, timeout=timeout, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStateDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- campaigns

    def create_campaign(self, campaign_id: str, config: dict, tenant: str = "default",
                        label: str = "", fs_name: str = "", fs_model: str = "") -> bool:
        """Register a campaign; True when newly created.

        Re-registering an existing id is the resume path.  The session may
        bring its own execution options (worker count, sharing switches,
        spine budget: proven unable to change the result), but an identity
        option that differs would silently mix results from two different
        campaigns, so it raises :class:`~repro.errors.CampaignDriftError`.
        The stored row keeps the configuration the campaign was created with.
        """
        config_json = json.dumps(config, sort_keys=True)
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO campaigns "
            "(campaign_id, tenant, label, fs_name, fs_model, config_json) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (campaign_id, tenant, label, fs_name, fs_model, config_json),
        )
        if cursor.rowcount == 1:
            return True
        stored = self.load_config(campaign_id)
        options = {f.name for f in fields(CampaignConfig)}
        for name, value in stored.items():
            # The decoder drops a key that names no field, so an option set
            # under a version that had it is caught here or nowhere: left at
            # null or false it changed nothing, set it made another campaign
            # — unless it was an execution option, which never changed one.
            if (name not in options and name not in RETIRED_EXECUTION_OPTIONS
                    and value not in (None, False)):
                raise CampaignDriftError(
                    f"campaign {campaign_id!r} was created with {name}={value!r}, "
                    f"an option this version no longer has — a different campaign; "
                    f"pick another campaign id"
                )
        if stored != config:
            # Decoded then re-encoded, so a payload written before a field
            # existed (missing key) or by the tri-state era (null) compares
            # as the field's default.
            created, asked = (api.config_from_dict(payload).identity()
                              for payload in (stored, config))
            for name, value in created.items():
                if value != asked[name]:
                    raise CampaignDriftError(
                        f"campaign {campaign_id!r} was created with {name}={value!r}, "
                        f"this run asks for {asked[name]!r} — a different campaign; "
                        f"resume it as created, or pick another campaign id"
                    )
        return False

    def campaign_exists(self, campaign_id: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone() is not None

    def load_config(self, campaign_id: str) -> dict:
        row = self._conn.execute(
            "SELECT config_json FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown campaign {campaign_id!r}")
        return json.loads(row[0])

    def campaign_row(self, campaign_id: str) -> dict:
        row = self._conn.execute(
            "SELECT campaign_id, tenant, label, fs_name, fs_model, status, "
            "invalid_workloads, generation_seconds, testing_seconds "
            "FROM campaigns WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown campaign {campaign_id!r}")
        keys = ("campaign_id", "tenant", "label", "fs_name", "fs_model", "status",
                "invalid_workloads", "generation_seconds", "testing_seconds")
        return dict(zip(keys, row))

    def set_status(self, campaign_id: str, status: str) -> None:
        if status not in api.CAMPAIGN_STATES:
            raise ValueError(f"unknown campaign status {status!r}")
        self._conn.execute(
            "UPDATE campaigns SET status = ? WHERE campaign_id = ?", (status, campaign_id)
        )

    def record_enumeration(self, campaign_id: str, invalid_workloads: int,
                           generation_seconds: float) -> None:
        """Store one enumeration pass's outcome.

        ``invalid_workloads`` is deterministic per config (set, not added);
        generation time is real work each session pays, so it accumulates.
        """
        self._conn.execute(
            "UPDATE campaigns SET invalid_workloads = ?, "
            "generation_seconds = generation_seconds + ? WHERE campaign_id = ?",
            (invalid_workloads, generation_seconds, campaign_id),
        )

    def add_testing_seconds(self, campaign_id: str, seconds: float) -> None:
        self._conn.execute(
            "UPDATE campaigns SET testing_seconds = testing_seconds + ? "
            "WHERE campaign_id = ?",
            (seconds, campaign_id),
        )

    def next_campaign_id(self, tenant: str) -> str:
        """An unused ``<tenant>-c<N>`` id (N counts the tenant's campaigns)."""
        count = self._conn.execute(
            "SELECT COUNT(*) FROM campaigns WHERE tenant = ?", (tenant,)
        ).fetchone()[0]
        number = count + 1
        while self.campaign_exists(f"{tenant}-c{number}"):
            number += 1
        return f"{tenant}-c{number}"

    # ----------------------------------------------------------------- chunks

    def register_chunks(self, campaign_id: str,
                        census: Sequence[Tuple[int, str, int]]) -> int:
        """Idempotently register the campaign's chunk census.

        ``census`` rows are ``(chunk_index, chunk_key, workloads)`` from the
        deterministic enumeration.  Registration is ``INSERT OR IGNORE`` so a
        resume session re-registering is a no-op — but every already-known
        chunk's content key must match what this enumeration produced, or the
        stored results belong to a different workload stream (e.g. the config
        changed underneath the campaign id) and the mismatch raises.
        Returns the number of newly registered chunks.
        """
        new = 0
        for index, key, workloads in census:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO chunks "
                "(campaign_id, chunk_index, chunk_key, workloads) VALUES (?, ?, ?, ?)",
                (campaign_id, index, key, workloads),
            )
            if cursor.rowcount == 1:
                new += 1
                continue
            existing = self._conn.execute(
                "SELECT chunk_key FROM chunks WHERE campaign_id = ? AND chunk_index = ?",
                (campaign_id, index),
            ).fetchone()
            if existing[0] != key:
                raise ValueError(
                    f"campaign {campaign_id!r} chunk {index} was registered with key "
                    f"{existing[0]} but this enumeration produced {key}; the workload "
                    f"stream is no longer the one the stored results came from"
                )
        return new

    def census_complete(self, campaign_id: str) -> bool:
        """True once some session drained the full workload stream.

        Until then the chunk table is a prefix of the census (a crashed or
        sliced session registers chunks as it discovers them), so totals and
        the all-chunks-done check cannot be trusted.
        """
        row = self._conn.execute(
            "SELECT census_done FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return bool(row and row[0])

    def mark_census_complete(self, campaign_id: str) -> None:
        self._conn.execute(
            "UPDATE campaigns SET census_done = 1 WHERE campaign_id = ?", (campaign_id,)
        )

    def chunk_totals(self, campaign_id: str) -> Tuple[int, int]:
        """(chunk count, workload count) over every registered chunk."""
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(workloads), 0) "
            "FROM chunks WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        return row[0], row[1]

    def recover_from_crash(self, campaign_id: Optional[str] = None) -> int:
        """Reset in-flight (``processing``) chunks to ``pending``.

        The reset-processing-to-pending idiom: any chunk a dead session
        claimed but never committed is handed back to the scheduler.  Scoped
        to one campaign when given, store-wide otherwise.  Returns the number
        of chunks recovered.
        """
        if campaign_id is None:
            cursor = self._conn.execute(
                "UPDATE chunks SET status = 'pending', worker = '' "
                "WHERE status = 'processing'"
            )
        else:
            cursor = self._conn.execute(
                "UPDATE chunks SET status = 'pending', worker = '' "
                "WHERE campaign_id = ? AND status = 'processing'",
                (campaign_id,),
            )
        return cursor.rowcount

    def claim_chunk(self, campaign_id: str, chunk_index: int) -> bool:
        """Move a chunk ``pending -> processing``; False if not claimable."""
        cursor = self._conn.execute(
            "UPDATE chunks SET status = 'processing' "
            "WHERE campaign_id = ? AND chunk_index = ? AND status = 'pending'",
            (campaign_id, chunk_index),
        )
        return cursor.rowcount == 1

    def done_chunk_indices(self, campaign_id: str) -> Set[int]:
        rows = self._conn.execute(
            "SELECT chunk_index FROM chunks WHERE campaign_id = ? AND status = 'done'",
            (campaign_id,),
        ).fetchall()
        return {row[0] for row in rows}

    def chunk_states(self, campaign_id: str) -> Dict[str, Tuple[int, int]]:
        """Per chunk status: (chunk count, workload count)."""
        rows = self._conn.execute(
            "SELECT status, COUNT(*), COALESCE(SUM(workloads), 0) "
            "FROM chunks WHERE campaign_id = ? GROUP BY status",
            (campaign_id,),
        ).fetchall()
        return {status: (count, workloads) for status, count, workloads in rows}

    # ----------------------------------------------------------------- ingest

    def ingest_outcome(self, campaign_id: str, outcome: ChunkOutcome) -> bool:
        """Commit one completed chunk atomically; dedup-at-write.

        Result rows, the chunk's ``done`` flip, and its accounting counters
        land in one transaction: after a crash the chunk is either fully
        ingested or untouched (still ``processing``, reset by recovery).  A
        chunk already ``done`` — a retry racing a recovered session — is
        refused outright so nothing double-counts; the return value says
        whether this outcome was the one that landed.
        """
        results = outcome.results
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT status FROM chunks WHERE campaign_id = ? AND chunk_index = ?",
                (campaign_id, outcome.index),
            ).fetchone()
            if row is None:
                raise KeyError(
                    f"chunk {outcome.index} of campaign {campaign_id!r} was never registered"
                )
            if row[0] == api.CHUNK_DONE:
                self._conn.execute("ROLLBACK")
                return False
            self._conn.executemany(
                "INSERT OR IGNORE INTO results "
                "(campaign_id, chunk_index, position, result_json) VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, outcome.index, position,
                     json.dumps(result.to_dict(), separators=(",", ":")))
                    for position, result in enumerate(results)
                ],
            )
            self._conn.execute(
                "UPDATE chunks SET status = 'done', seconds = ?, worker = ?, "
                "failing = ?, raw_reports = ?, crash_points = ?, scenarios = ?, "
                "deduped = ?, prefix_hits = ?, replay_hits = ?, "
                "cpu_seconds = ? WHERE campaign_id = ? AND chunk_index = ?",
                (
                    outcome.seconds,
                    outcome.worker,
                    outcome.failing_workloads,
                    sum(len(result.bug_reports) for result in results),
                    outcome.crash_points_tested,
                    outcome.scenarios_tested,
                    outcome.deduped_scenarios,
                    outcome.prefix_hits,
                    outcome.replay_hits,
                    sum(result.total_seconds for result in results),
                    campaign_id,
                    outcome.index,
                ),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.OperationalError:
                pass  # no transaction active (COMMIT already failed it away)
            raise
        return True

    # ----------------------------------------------------- mechanism reports

    def save_mechanism_report(self, campaign_id: str, report: dict) -> None:
        """Persist one campaign's representative mechanism-analysis summary.

        Idempotent: the first stored report wins (the analysis is a pure
        function of the recorded family, so later sessions re-deriving it
        produce the same payload and need not overwrite).
        """
        self._conn.execute(
            "INSERT OR IGNORE INTO mechanism_reports (campaign_id, report_json) "
            "VALUES (?, ?)",
            (campaign_id, json.dumps(report, sort_keys=True)),
        )

    def load_mechanism_report(self, campaign_id: str) -> Optional[dict]:
        """The stored mechanism report, or None when never analyzed."""
        row = self._conn.execute(
            "SELECT report_json FROM mechanism_reports WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()
        return None if row is None else json.loads(row[0])

    # ---------------------------------------------------------------- results

    def iter_result_payloads(self, campaign_id: str) -> Iterator[dict]:
        """Stored results in stream order (chunk index, then position)."""
        cursor = self._conn.execute(
            "SELECT result_json FROM results WHERE campaign_id = ? "
            "ORDER BY chunk_index, position",
            (campaign_id,),
        )
        for (payload,) in cursor:
            yield json.loads(payload)

    def campaign_result(self, campaign_id: str) -> CampaignResult:
        """Reconstruct the aggregate result from the stored chunk results.

        Results come back in stream order, so a campaign finished across N
        interrupted sessions reconstructs the same :class:`CampaignResult`
        (reports, scenario and dedup counters, result ordering) an
        uninterrupted run returns.
        """
        row = self.campaign_row(campaign_id)
        return CampaignResult(
            fs_name=row["fs_name"],
            fs_model=row["fs_model"],
            label=row["label"],
            results=[
                CrashTestResult.from_dict(payload)
                for payload in self.iter_result_payloads(campaign_id)
            ],
            generation_seconds=row["generation_seconds"],
            testing_seconds=row["testing_seconds"],
            invalid_workloads=row["invalid_workloads"],
        )

    # ------------------------------------------------------------------ views

    def status(self, campaign_id: str) -> api.CampaignStatus:
        row = self.campaign_row(campaign_id)
        states = self.chunk_states(campaign_id)
        done_chunks, done_workloads = states.get(api.CHUNK_DONE, (0, 0))
        processing_chunks, _ = states.get(api.PROCESSING, (0, 0))
        total_chunks = sum(count for count, _ in states.values())
        total_workloads = sum(workloads for _, workloads in states.values())
        failing, reports = self._conn.execute(
            "SELECT COALESCE(SUM(failing), 0), COALESCE(SUM(raw_reports), 0) "
            "FROM chunks WHERE campaign_id = ? AND status = 'done'",
            (campaign_id,),
        ).fetchone()
        return api.CampaignStatus(
            campaign_id=campaign_id,
            tenant=row["tenant"],
            label=row["label"],
            status=row["status"],
            chunks_done=done_chunks,
            chunks_total=total_chunks,
            chunks_processing=processing_chunks,
            workloads_done=done_workloads,
            workloads_total=total_workloads,
            failing_workloads=failing,
            raw_reports=reports,
            invalid_workloads=row["invalid_workloads"],
            testing_seconds=row["testing_seconds"],
        )

    def statuses(self, tenant: Optional[str] = None) -> List[api.CampaignStatus]:
        if tenant is None:
            rows = self._conn.execute(
                "SELECT campaign_id FROM campaigns ORDER BY rowid"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT campaign_id FROM campaigns WHERE tenant = ? ORDER BY rowid",
                (tenant,),
            ).fetchall()
        return [self.status(row[0]) for row in rows]

    def runnable_by_tenant(self) -> "Dict[str, List[str]]":
        """Tenant -> campaign ids with work left, in submission order.

        The scheduler's input: campaigns not yet ``done``.  A freshly queued
        campaign has no chunk census yet but still counts — its first slice
        performs the enumeration.
        """
        rows = self._conn.execute(
            "SELECT tenant, campaign_id FROM campaigns "
            "WHERE status != 'done' ORDER BY rowid"
        ).fetchall()
        runnable: Dict[str, List[str]] = {}
        for tenant, campaign_id in rows:
            runnable.setdefault(tenant, []).append(campaign_id)
        return runnable

    def tenant_usage(self) -> List[api.TenantUsage]:
        """Fleet accounting per tenant, summed over completed chunks."""
        rows = self._conn.execute(
            "SELECT c.tenant, COUNT(DISTINCT c.campaign_id), COUNT(k.chunk_index), "
            "COALESCE(SUM(k.workloads), 0), COALESCE(SUM(k.failing), 0), "
            "COALESCE(SUM(k.raw_reports), 0), COALESCE(SUM(k.crash_points), 0), "
            "COALESCE(SUM(k.scenarios), 0), COALESCE(SUM(k.deduped), 0), "
            "COALESCE(SUM(k.prefix_hits), 0), COALESCE(SUM(k.replay_hits), 0), "
            "COALESCE(SUM(k.cpu_seconds), 0) "
            "FROM campaigns c "
            "LEFT JOIN chunks k ON k.campaign_id = c.campaign_id AND k.status = 'done' "
            "GROUP BY c.tenant ORDER BY c.tenant",
        ).fetchall()
        # The SELECT lists its columns in ``TenantUsage``'s field order.
        return [api.TenantUsage(*row) for row in rows]
