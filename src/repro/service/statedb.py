"""The durable campaign state store.

A crash-recovery tester that loses days of campaign progress to a harness
crash has missed its own point.  ``CampaignStateDB`` makes campaign runs
durable the same way the paper's filesystems make data durable: every
completed chunk of work is committed to a sqlite database (WAL) before anyone
hears about it, and a fresh session recovers by resetting whatever was in
flight when the previous session died.

Four tables:

* ``campaigns`` — one row per campaign, keyed by its id: label, the full
  serialized :class:`~repro.options.CampaignConfig` (so any process can
  rebuild an identical engine), whether its census is complete
  (``census_done``, set with the enumeration's outcome in one UPDATE) and
  accumulated timing.
* ``chunks`` — the campaign's deterministic chunk census, the one record of
  its progress: the lifecycle :meth:`CampaignStateDB.status` reports is
  derived from these rows and ``census_done``, never stored.  Each chunk
  moves ``pending -> processing -> done``; :meth:`recover_from_crash` moves
  orphaned ``processing`` rows back to ``pending`` so a crashed session's
  in-flight work is re-dispatched, never lost and never double-counted.
  Completed chunks also carry their failing-workload and report tallies,
  worker seconds and every counter's roll-up, from which a campaign's
  aggregates are merged without decoding a result.
* ``results`` — one row per tested workload, keyed ``(campaign, chunk,
  position)`` with the serialized :class:`CrashTestResult` as payload: the
  text of :meth:`~CrashTestResult.to_row`, which the code that tested the
  chunk encoded (a :meth:`~repro.engine.backends.ChunkOutcome.packed`
  outcome), so ingest writes strings and decodes, encodes and rolls up
  nothing; :meth:`~CrashTestResult.from_row` reads a row back.  Each row's
  ``failing`` flag (1 when the workload has bug reports) is written at
  ingest from the packed chunk's failing positions, and the partial index
  ``results_failing`` over the flagged rows serves the failing-only read.
  Ingest is *dedup-at-write*: result inserts use ``INSERT OR IGNORE`` and a
  chunk whose status is already ``done`` refuses re-ingest entirely, so a
  chunk retried after a crash (or a late pool worker racing a recovery
  session) can never double-count reports or scenario totals.
* ``mechanism_reports`` — one representative serialized
  :class:`~repro.analysis.mechanisms.MechanismReport` per campaign running
  the ``mechanism`` crash plan (the static-analysis summary of the recorded
  family, for post-hoc inspection without re-profiling).

The store's ``user_version`` is stamped :data:`SCHEMA_VERSION`.  A store
stamped older (a new file is stamped 0) is migrated once, when it is opened,
in one transaction under the write lock that also stamps it: a store from
before ``chunks.roll_ups`` or ``results.failing`` gets the column, each row's
``failing`` flag is filled in from its bug reports, the flag's index is
built, and every done chunk without roll-ups gets them computed from its own
rows — so a read merges stored roll-ups only.  A store stamped newer is
refused before anything is written to it.  Columns an older version wrote
and this one has no use for stay in its store unread, their defaults keeping
new rows valid: a cross-workload dedup table, ``campaigns.tenant`` and
``campaigns.status``, and the ``chunks`` columns ``cross_deduped``,
``crash_points``, ``scenarios``, ``deduped``, ``prefix_hits``,
``replay_hits`` (``roll_ups`` holds those five) and ``cpu_seconds`` (the
``PHASE_FIELDS`` sum of ``roll_ups``).

A campaign's result (:meth:`CampaignStateDB.campaign_result`) is a plain
:class:`CampaignResult` read from the store, not held: its ``results`` and
``failing_results`` are :class:`StoredResults`, its ``totals`` are the
chunks' roll-ups merged, and its reports are decoded from the failing
workloads' rows alone.

One instance owns one sqlite connection in the process that built it; the
path, not the object, is what crosses process boundaries.  Every connection
the module opens, that one and each read pass's, has a page cache of
:data:`CACHE_KIB` KiB.
"""

from __future__ import annotations

import json
import os
import sqlite3
from dataclasses import fields
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple
from urllib.parse import quote

from ..core.results import CampaignResult
from ..crashmonkey.report import CrashTestResult, merge_roll_ups, roll_ups_of
from ..engine.backends import ChunkOutcome
from ..errors import CampaignDriftError, UnknownCampaignError
from ..options import RETIRED_EXECUTION_OPTIONS, CampaignConfig
from . import api

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id        TEXT PRIMARY KEY,
    label              TEXT NOT NULL DEFAULT '',
    fs_name            TEXT NOT NULL DEFAULT '',
    fs_model           TEXT NOT NULL DEFAULT '',
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
    roll_ups      TEXT,
    PRIMARY KEY (campaign_id, chunk_index)
);
CREATE TABLE IF NOT EXISTS results (
    campaign_id TEXT NOT NULL,
    chunk_index INTEGER NOT NULL,
    position    INTEGER NOT NULL,
    result_json TEXT NOT NULL,
    failing     INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, chunk_index, position)
);
CREATE TABLE IF NOT EXISTS mechanism_reports (
    campaign_id TEXT PRIMARY KEY,
    report_json TEXT NOT NULL
);
"""

#: The schema this version writes, stamped as the store's ``user_version``
#: when it is created or upgraded (0: unstamped, new or written before the
#: stamp existed; 1: before the campaign status was derived).  A store
#: stamped newer is refused unopened: an older writer would add rows without
#: the columns the newer one relies on.
SCHEMA_VERSION = 2

#: Page cache of every connection the store opens, in KiB.  The rows are
#: written once and read in one sequential pass, so a cache holds nothing a
#: second read would find; sqlite's default (2 MiB) only lifts the resident
#: size of the process that writes or reads them.
CACHE_KIB = 128


def _connect(database: str, **kwargs) -> sqlite3.Connection:
    """A connection with the bounded page cache, :data:`CACHE_KIB`."""
    conn = sqlite3.connect(database, **kwargs)
    conn.execute(f"PRAGMA cache_size = -{CACHE_KIB}")
    return conn


def _decode(payload: str) -> CrashTestResult:
    """One stored result row; the one place a durable result is decoded."""
    return CrashTestResult.from_row(payload)


class StoredResults(Sequence[CrashTestResult]):
    """A campaign's stored results in stream order, read on demand.

    Nothing is cached: ``len`` counts rows, and each pass opens its own
    read-only connection by path and decodes one row at a time, so the
    sequence outlives the :class:`CampaignStateDB` (and the runner) that
    made it.  ``failing=True`` restricts it to workloads with bug reports,
    selected in SQL.
    """

    def __init__(self, path: str, campaign_id: str, failing: bool = False):
        self.path = path
        self.campaign_id = campaign_id
        self.failing = failing

    def failing_only(self) -> "StoredResults":
        return StoredResults(self.path, self.campaign_id, failing=True)

    def _rows(self, columns: str, tail: str = "", *params) -> Iterator[tuple]:
        where = "WHERE campaign_id = ?"
        if self.failing:
            where += " AND failing = 1"
        # ``mode=rw`` opens no store that is not there; ``query_only`` writes
        # nothing.  (A ``mode=ro`` connection that closes last would leave
        # the store's -wal and -shm files behind.)
        conn = _connect(f"file:{quote(self.path)}?mode=rw", uri=True)
        conn.execute("PRAGMA query_only = ON")
        try:
            yield from conn.execute(f"SELECT {columns} FROM results {where} {tail}",
                                    (self.campaign_id, *params))
        finally:
            conn.close()

    def __len__(self) -> int:
        (count,), = self._rows("COUNT(*)")
        return count

    def __iter__(self) -> Iterator[CrashTestResult]:
        for (payload,) in self._rows("result_json", "ORDER BY chunk_index, position"):
            yield _decode(payload)

    def __getitem__(self, index: int) -> CrashTestResult:
        size = len(self)
        if not -size <= index < size:
            raise IndexError("stored result index out of range")
        (payload,), = self._rows("result_json", "ORDER BY chunk_index, position "
                                 "LIMIT 1 OFFSET ?", index % size)
        return _decode(payload)


class CampaignStateDB:
    """Sqlite-backed store of campaign, chunk and result state."""

    def __init__(self, path: str, timeout: float = 30.0):
        self.path = path
        # Autocommit mode: short statements commit individually and the
        # ingest path opens an explicit
        # BEGIN IMMEDIATE transaction so results + chunk status land
        # atomically — a crash mid-ingest leaves the chunk `processing`,
        # which recovery resets cleanly.
        self._conn = _connect(path, timeout=timeout, isolation_level=None)
        (version,), = self._conn.execute("PRAGMA user_version")
        if version > SCHEMA_VERSION:
            # Its rows may mean what this version cannot tell: write nothing.
            self._conn.close()
            raise CampaignDriftError(
                f"state store {path!r} has schema version {version}, newer than this "
                f"version's {SCHEMA_VERSION}; open it with the version that wrote it")
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        if version < SCHEMA_VERSION:
            self._transaction(self._upgrade)

    def _has_column(self, table: str, column: str) -> bool:
        return column in {row[1] for row in self._conn.execute(f"PRAGMA table_info({table})")}

    def _transaction(self, body) -> Any:
        """``body()`` in one write transaction: all of it lands or none does."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            value = body()
            self._conn.execute("COMMIT")
        except BaseException:
            try:
                self._conn.execute("ROLLBACK")
            except sqlite3.OperationalError:
                pass  # no transaction active (COMMIT already failed it away)
            raise
        return value

    def _upgrade(self) -> None:
        """Migrate a store stamped older than this version, and stamp it.

        Under the write lock, so two sessions opening one old store at once
        add each column once and neither sees a half-done migration; the
        second finds nothing left to do.
        """
        if not self._has_column("chunks", "roll_ups"):
            self._conn.execute("ALTER TABLE chunks ADD COLUMN roll_ups TEXT")
        if not self._has_column("results", "failing"):
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN failing INTEGER NOT NULL DEFAULT 0")
            self._conn.execute(
                "UPDATE results SET failing = 1 "
                "WHERE json_array_length(result_json, '$.bug_reports') > 0")
        # Serves ``StoredResults(failing=True)``.
        self._conn.execute("CREATE INDEX IF NOT EXISTS results_failing "
                           "ON results (campaign_id, chunk_index, position) WHERE failing = 1")
        for campaign_id, index in self._conn.execute(
                "SELECT campaign_id, chunk_index FROM chunks "
                "WHERE status = 'done' AND roll_ups IS NULL").fetchall():
            # A chunk an older version ingested: its roll-ups, from its rows, once.
            results = [_decode(payload) for (payload,) in self._conn.execute(
                "SELECT result_json FROM results WHERE campaign_id = ? AND chunk_index = ? "
                "ORDER BY position", (campaign_id, index))]
            self._conn.execute(
                "UPDATE chunks SET roll_ups = ? WHERE campaign_id = ? AND chunk_index = ?",
                (json.dumps(roll_ups_of(results), separators=(",", ":")), campaign_id, index))
        self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")

    @classmethod
    def existing(cls, path: str) -> "CampaignStateDB":
        """Open a store an earlier session created.

        Reading a campaign must not create a store, so a mistyped path is
        refused with :class:`~repro.errors.UnknownCampaignError`.
        """
        if not os.path.exists(path):
            raise UnknownCampaignError(f"no campaign state store at {path!r}")
        return cls(path)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStateDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- campaigns

    def create_campaign(self, campaign_id: str, config: dict, label: str = "",
                        fs_name: str = "", fs_model: str = "") -> bool:
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
            "(campaign_id, label, fs_name, fs_model, config_json) "
            "VALUES (?, ?, ?, ?, ?)",
            (campaign_id, label, fs_name, fs_model, config_json),
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
            created, asked = (CampaignConfig.from_dict(payload).identity()
                              for payload in (stored, config))
            for name, value in created.items():
                if value != asked[name]:
                    raise CampaignDriftError(
                        f"campaign {campaign_id!r} was created with {name}={value!r}, "
                        f"this run asks for {asked[name]!r} — a different campaign; "
                        f"resume it as created, or pick another campaign id"
                    )
        return False

    def load_config(self, campaign_id: str) -> dict:
        row = self._conn.execute(
            "SELECT config_json FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise UnknownCampaignError(f"unknown campaign {campaign_id!r}")
        return json.loads(row[0])

    def campaign_row(self, campaign_id: str) -> dict:
        keys = ("campaign_id", "label", "fs_name", "fs_model", "census_done",
                "invalid_workloads", "generation_seconds", "testing_seconds")
        row = self._conn.execute(
            f"SELECT {', '.join(keys)} FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise UnknownCampaignError(f"unknown campaign {campaign_id!r}")
        return dict(zip(keys, row))

    def finish_census(self, campaign_id: str, invalid_workloads: int,
                      generation_seconds: float) -> None:
        """Store a drained enumeration pass's outcome; the census is complete.

        One UPDATE, so the census is never marked without its outcome.
        ``invalid_workloads`` is deterministic per config (set, not added);
        generation time is real work each session pays, so it accumulates.
        """
        self._conn.execute(
            "UPDATE campaigns SET census_done = 1, invalid_workloads = ?, "
            "generation_seconds = generation_seconds + ? WHERE campaign_id = ?",
            (invalid_workloads, generation_seconds, campaign_id),
        )

    def add_testing_seconds(self, campaign_id: str, seconds: float) -> None:
        self._conn.execute(
            "UPDATE campaigns SET testing_seconds = testing_seconds + ? "
            "WHERE campaign_id = ?",
            (seconds, campaign_id),
        )

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

    def recover_from_crash(self, campaign_id: str) -> int:
        """Reset the campaign's in-flight (``processing``) chunks to ``pending``.

        The reset-processing-to-pending idiom: any chunk a dead session
        claimed but never committed is dispatched again by the next one.
        Returns the number of chunks recovered.
        """
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
        # Packed where the chunk ran, normally; one built from results is packed here.
        outcome = outcome.packed()
        stats = outcome.stats

        def ingest() -> bool:
            row = self._conn.execute(
                "SELECT status FROM chunks WHERE campaign_id = ? AND chunk_index = ?",
                (campaign_id, stats.index),
            ).fetchone()
            if row is None:
                raise KeyError(
                    f"chunk {stats.index} of campaign {campaign_id!r} was never registered"
                )
            if row[0] == api.CHUNK_DONE:
                return False
            failing = set(outcome.failing_positions)
            self._conn.executemany(
                "INSERT OR IGNORE INTO results "
                "(campaign_id, chunk_index, position, result_json, failing) "
                "VALUES (?, ?, ?, ?, ?)",
                [(campaign_id, stats.index, position, text, int(position in failing))
                 for position, text in enumerate(outcome.rows)],
            )
            self._conn.execute(
                "UPDATE chunks SET status = 'done', seconds = ?, worker = ?, "
                "failing = ?, raw_reports = ?, roll_ups = ? "
                "WHERE campaign_id = ? AND chunk_index = ?",
                (
                    stats.seconds,
                    stats.worker,
                    stats.failing_workloads,
                    stats.raw_reports,
                    json.dumps(stats.totals, separators=(",", ":")),
                    campaign_id,
                    stats.index,
                ),
            )
            return True

        return self._transaction(ingest)

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

    def campaign_result(self, campaign_id: str) -> CampaignResult:
        """The campaign's result as the store holds it, over its done chunks.

        Nothing is decoded here: the aggregates are merged from the chunks'
        stored roll-ups (every done chunk has them once the store is opened),
        and the rows are read when the result is read, in stream order — its reports
        from the failing rows alone — so a campaign finished across N
        interrupted sessions reads back the same reports, counters and
        result order an uninterrupted run returns, and holding the result
        holds no row.
        """
        row = self.campaign_row(campaign_id)
        chunks = self._conn.execute(
            "SELECT failing, roll_ups FROM chunks "
            "WHERE campaign_id = ? AND status = 'done' ORDER BY chunk_index",
            (campaign_id,),
        ).fetchall()
        results = StoredResults(os.path.abspath(self.path), campaign_id)
        return CampaignResult(
            fs_name=row["fs_name"],
            fs_model=row["fs_model"],
            label=row["label"],
            results=results,
            generation_seconds=row["generation_seconds"],
            testing_seconds=row["testing_seconds"],
            invalid_workloads=row["invalid_workloads"],
            totals=merge_roll_ups([json.loads(stored) for _, stored in chunks]),
            failing_workloads=sum(failing for failing, _ in chunks),
            failing_results=results.failing_only(),
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
            label=row["label"],
            census_done=bool(row["census_done"]),
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

    def statuses(self) -> List[api.CampaignStatus]:
        rows = self._conn.execute("SELECT campaign_id FROM campaigns ORDER BY rowid").fetchall()
        return [self.status(row[0]) for row in rows]
