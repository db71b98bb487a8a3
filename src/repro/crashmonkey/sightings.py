"""Sighting stores: which (crash states, expectations) pairs were already tested.

ACE sibling workloads share operation prefixes, so the same persistence
point — same reachable crash states *and* same oracle/tracker expectations —
recurs across many workloads of a campaign.  A sighting store keys each
checkpoint by content (a digest of the recorded stream up to the marker plus
digests of the oracle and the normalized tracker view, computed by
:class:`~repro.crashmonkey.replayer.CrashStateGenerator`); a checkpoint whose
key was already sighted is provably a byte-identical re-test and is skipped
instead of re-constructed, re-mounted and re-checked.

A store is sound per harness: one fixed file system, bug config, device size
and planner (all of which the key's stream digest is scoped to).  It is an
*accounting* choice, not a correctness one — a skipped checkpoint's states
were already checked, under identical expectations, when its key was first
sighted — but raw bug reports are counted once per distinct crash state
rather than once per sibling, which is exactly the "dedup across workloads"
the paper's report post-processing approximates after the fact.

The three stores differ only in where sightings live (one harness's memory,
a sqlite file the workers share, the campaign state store's own file);
:func:`open_sighting_store` picks by what the options name.
"""

from __future__ import annotations

import sqlite3
from typing import Optional, Set, Tuple

from ..options import HarnessSpec


class SightingStore:
    """What the generator and the harness need of a store."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def first_sighting(self, key: Tuple) -> bool:
        """Register ``key``; True when it was never tested before (test it)."""
        fresh = self._register(key)
        if fresh:
            self.misses += 1
        else:
            self.hits += 1
        return fresh

    def _register(self, key: Tuple) -> bool:
        raise NotImplementedError

    def set_chunk(self, index: int) -> None:
        """Attribute subsequent sightings to engine chunk ``index`` (if the store cares)."""

    def close(self) -> None:
        """Release whatever the store holds open."""


class CrossWorkloadCache(SightingStore):
    """In-memory store with the lifetime of one harness."""

    def __init__(self, max_entries: int = 1_000_000):
        super().__init__()
        #: cap on remembered keys; once full, new keys are tested but not
        #: remembered (the cache degrades to fewer hits, never to unsoundness)
        self.max_entries = max_entries
        self._seen: Set[Tuple] = set()

    def __len__(self) -> int:
        return len(self._seen)

    def _register(self, key: Tuple) -> bool:
        if key in self._seen:
            return False
        if len(self._seen) < self.max_entries:
            self._seen.add(key)
        return True


class GlobalDedupCache(SightingStore):
    """Campaign-global, disk-backed variant of :class:`CrossWorkloadCache`.

    A :class:`CrossWorkloadCache` lives inside one harness, so under a
    process-pool backend each worker keeps its own sightings: a sibling
    family split across workers (or across non-adjacent chunks of one
    worker's stream) re-tests persistence points an earlier worker already
    covered.  This cache stores first sightings in a sqlite database shared
    by every harness pointed at the same path — the prefix-affine chunker
    remains the fast path that keeps most repeats worker-local, and the
    shared database catches the cross-worker remainder.

    Exactly-once registration is delegated to sqlite's atomicity:
    ``INSERT OR IGNORE`` under the database lock guarantees that of N
    concurrent workers sighting the same key, exactly one observes an
    inserted row (and tests the checkpoint) while the rest observe a
    conflict (and skip it).  Keys are digest tuples, stored as a single
    joined text column.  Each cache instance owns one connection in the
    process that built it; the instance itself never crosses process
    boundaries — workers construct their own from the path in the spec.
    """

    _DDL = "CREATE TABLE IF NOT EXISTS sightings (key TEXT PRIMARY KEY)"

    def __init__(self, path: str, timeout: float = 30.0):
        super().__init__()
        self.path = path
        self._conn = sqlite3.connect(path, timeout=timeout)
        # WAL lets readers proceed during a writer's commit; sightings are
        # single-row inserts, so contention stays on the short write lock.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(self._DDL)
        self._conn.commit()

    @staticmethod
    def _encode(key: Tuple) -> str:
        return "|".join("" if part is None else str(part) for part in key)

    def _insert(self, key: Tuple) -> sqlite3.Cursor:
        return self._conn.execute(
            "INSERT OR IGNORE INTO sightings (key) VALUES (?)", (self._encode(key),))

    def _count(self) -> sqlite3.Cursor:
        return self._conn.execute("SELECT COUNT(*) FROM sightings")

    def __len__(self) -> int:
        return int(self._count().fetchone()[0])

    def _register(self, key: Tuple) -> bool:
        cursor = self._insert(key)
        self._conn.commit()
        return cursor.rowcount == 1

    def close(self) -> None:
        self._conn.close()


class ScopedDedupCache(GlobalDedupCache):
    """Campaign-scoped, chunk-attributed variant of :class:`GlobalDedupCache`.

    Lives in the campaign state store's own sqlite file so the sighting set
    is as durable as the chunk ledger: a resumed ``--cross-workload-dedup``
    campaign sees exactly the sightings its completed chunks registered,
    instead of starting history-dependent from an empty in-memory cache.

    Each sighting records the engine chunk that registered it
    (:meth:`set_chunk` is called by the backends before a chunk is tested).
    ``CampaignStateDB.recover_from_crash`` deletes sightings attributed to
    chunks that never committed — an in-flight chunk's sightings would
    otherwise suppress scenarios its own re-run (after the crash threw the
    results away) still has to test.
    """

    _DDL = (
        "CREATE TABLE IF NOT EXISTS dedup_sightings ("
        " scope TEXT NOT NULL,"
        " key TEXT NOT NULL,"
        " chunk_index INTEGER NOT NULL,"
        " PRIMARY KEY (scope, key))"
    )

    def __init__(self, path: str, scope: str, timeout: float = 30.0):
        super().__init__(path, timeout=timeout)
        self.scope = scope
        self.chunk_index = -1

    def set_chunk(self, index: int) -> None:
        self.chunk_index = index

    def _insert(self, key: Tuple) -> sqlite3.Cursor:
        return self._conn.execute(
            "INSERT OR IGNORE INTO dedup_sightings (scope, key, chunk_index)"
            " VALUES (?, ?, ?)",
            (self.scope, self._encode(key), self.chunk_index),
        )

    def _count(self) -> sqlite3.Cursor:
        return self._conn.execute(
            "SELECT COUNT(*) FROM dedup_sightings WHERE scope = ?", (self.scope,))


def open_sighting_store(spec: HarnessSpec) -> Optional[SightingStore]:
    """The store ``spec`` asks for; ``None`` when cross-workload dedup is off.

    In memory with the harness's lifetime by default, campaign-global and
    disk-backed when a ``global_dedup_cache`` path is given, durable and
    campaign-scoped with a ``dedup_scope`` too.
    """
    if not spec.cross_workload_dedup:
        return None
    if spec.global_dedup_cache is None:
        return CrossWorkloadCache()
    if spec.dedup_scope is None:
        return GlobalDedupCache(spec.global_dedup_cache)
    return ScopedDedupCache(spec.global_dedup_cache, spec.dedup_scope)
