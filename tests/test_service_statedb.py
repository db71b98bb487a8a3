"""The campaign state store: chunk lifecycle, recovery, dedup-at-write."""

import os
import sqlite3
from contextlib import closing

import pytest

from repro.crashmonkey.report import CrashTestResult
from repro.engine.backends import ChunkOutcome
from repro.errors import ReproError, UnknownCampaignError
from repro.service import CampaignStateDB
from repro.service import api, statedb
from repro.workload import parse_workload


@pytest.fixture
def db(tmp_path):
    with CampaignStateDB(str(tmp_path / "state.sqlite")) as store:
        yield store


CONFIG = {"fs_name": "btrfs", "bounds": {"seq_length": 1}}


def _result(name: str, reports: int = 0) -> CrashTestResult:
    workload = parse_workload("creat foo\nfsync foo\n", name=name)
    result = CrashTestResult(workload=workload, fs_type="btrfs", fs_model="btrfs-sim")
    result.checkpoints_tested = 1
    result.scenarios_tested = 2
    result.deduped_scenarios = 1
    result.profile_seconds = 0.01
    for _ in range(reports):
        from repro.crashmonkey.report import BugReport, Mismatch

        result.bug_reports.append(BugReport(
            workload=workload, fs_type="btrfs", fs_model="btrfs-sim",
            checkpoint_id=0, crash_point="cp",
            mismatches=[Mismatch(check="content", consequence="data loss",
                                 path="/foo", expected="x", actual="")],
        ))
    return result


def _outcome(index: int, names, reports: int = 0) -> ChunkOutcome:
    return ChunkOutcome.of(index, [_result(n, reports) for n in names], 0.5,
                           worker="test-worker")


# ------------------------------------------------------------------ campaigns

def test_create_campaign_is_idempotent(db):
    assert db.create_campaign("c1", CONFIG) is True
    assert db.create_campaign("c1", CONFIG) is False
    assert db.load_config("c1") == CONFIG


def test_create_campaign_rejects_config_drift(db):
    db.create_campaign("c1", CONFIG)
    with pytest.raises(ValueError, match="different"):
        db.create_campaign("c1", {"fs_name": "ext4"})


def test_unknown_campaign_raises(db):
    for lookup in (db.load_config, db.campaign_row, db.status):
        with pytest.raises(UnknownCampaignError) as unknown:
            lookup("ghost")
        # A KeyError to the library, a one-line refusal to the CLI.
        assert isinstance(unknown.value, KeyError)
        assert isinstance(unknown.value, ReproError)
        assert str(unknown.value) == "unknown campaign 'ghost'"


def test_opening_an_existing_store_never_creates_one(tmp_path):
    path = tmp_path / "typo.sqlite"
    with pytest.raises(UnknownCampaignError, match="no campaign state store at"):
        CampaignStateDB.existing(str(path))
    assert not path.exists()
    with CampaignStateDB(str(path)) as store:
        store.create_campaign("c1", CONFIG)
    with CampaignStateDB.existing(str(path)) as store:
        assert store.load_config("c1") == CONFIG


def test_finish_census_sets_invalid_count_and_adds_generation_time(db):
    db.create_campaign("c1", CONFIG)
    db.finish_census("c1", invalid_workloads=3, generation_seconds=1.5)
    # A second session re-enumerates: the invalid count is the config's,
    # the generation time is work it paid again.
    db.finish_census("c1", invalid_workloads=3, generation_seconds=0.5)
    row = db.campaign_row("c1")
    assert row["invalid_workloads"] == 3
    assert row["generation_seconds"] == pytest.approx(2.0)
    assert row["census_done"] == 1


def test_testing_seconds_accumulate_across_sessions(db):
    db.create_campaign("c1", CONFIG)
    db.add_testing_seconds("c1", 1.25)
    db.add_testing_seconds("c1", 0.75)
    assert db.campaign_row("c1")["testing_seconds"] == pytest.approx(2.0)
    assert db.status("c1").testing_seconds == pytest.approx(2.0)


def test_the_first_stored_mechanism_report_wins(db):
    db.create_campaign("c1", CONFIG)
    assert db.load_mechanism_report("c1") is None
    db.save_mechanism_report("c1", {"schema": 2, "evidence": ["first"]})
    db.save_mechanism_report("c1", {"schema": 2, "evidence": ["second"]})
    assert db.load_mechanism_report("c1") == {"schema": 2, "evidence": ["first"]}


def test_an_old_store_with_a_tenant_column_takes_new_campaigns(tmp_path):
    path = str(tmp_path / "old.sqlite")
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute(
            "CREATE TABLE campaigns (campaign_id TEXT PRIMARY KEY,"
            " tenant TEXT NOT NULL DEFAULT 'default', label TEXT NOT NULL DEFAULT '',"
            " fs_name TEXT NOT NULL DEFAULT '', fs_model TEXT NOT NULL DEFAULT '',"
            " status TEXT NOT NULL DEFAULT 'queued', config_json TEXT NOT NULL,"
            " census_done INTEGER NOT NULL DEFAULT 0,"
            " invalid_workloads INTEGER NOT NULL DEFAULT 0,"
            " generation_seconds REAL NOT NULL DEFAULT 0,"
            " testing_seconds REAL NOT NULL DEFAULT 0)"
        )
        conn.execute("INSERT INTO campaigns (campaign_id, tenant, config_json) "
                     "VALUES ('a1', 'alice', ?)", ('{"fs_name": "btrfs"}',))
    with CampaignStateDB.existing(path) as store:
        assert store.create_campaign("c1", CONFIG) is True
        assert [s.campaign_id for s in store.statuses()] == ["a1", "c1"]
        assert store.load_config("c1") == CONFIG
    # The ignored column's default keeps the new row valid.
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("SELECT campaign_id, tenant FROM campaigns ORDER BY rowid"
                            ).fetchall() == [("a1", "alice"), ("c1", "default")]


def test_a_new_store_keeps_no_second_record_of_progress(tmp_path):
    """The chunks are a campaign's one record of progress: a new store has no
    stored campaign status, no stored CPU seconds, and is stamped with this
    version's schema."""
    path = str(tmp_path / "state.sqlite")
    CampaignStateDB(path).close()
    with closing(sqlite3.connect(path)) as conn:
        def columns(table):
            return {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
        assert "status" not in columns("campaigns")
        assert "cpu_seconds" not in columns("chunks")
        assert conn.execute("PRAGMA user_version").fetchone() == (statedb.SCHEMA_VERSION,) == (2,)


# --------------------------------------------------------------------- chunks

def test_chunk_lifecycle(db):
    db.create_campaign("c1", CONFIG)
    assert db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 4)]) == 2
    assert db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 4)]) == 0  # idempotent
    assert db.claim_chunk("c1", 0) is True
    assert db.claim_chunk("c1", 0) is False  # already processing
    assert db.ingest_outcome("c1", _outcome(0, ["a", "b"])) is True
    assert db.done_chunk_indices("c1") == {0}
    states = db.chunk_states("c1")
    assert states[api.CHUNK_DONE] == (1, 4)
    assert states[api.PENDING] == (1, 4)


def test_only_a_pending_chunk_can_be_claimed(db):
    db.create_campaign("c1", CONFIG)
    db.create_campaign("c2", CONFIG)
    db.register_chunks("c1", [(0, "k0", 2)])
    db.register_chunks("c2", [(0, "k0", 2)])
    assert db.claim_chunk("c1", 5) is False  # never registered
    assert db.claim_chunk("c1", 0) is True
    db.ingest_outcome("c1", _outcome(0, ["a", "b"]))
    assert db.claim_chunk("c1", 0) is False  # done stays done
    # Another campaign's chunk of the same index is its own.
    assert db.claim_chunk("c2", 0) is True


def test_census_is_incomplete_until_a_session_finishes_it(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 4)])
    assert db.status("c1").census_done is False
    db.finish_census("c1", invalid_workloads=0, generation_seconds=0.0)
    assert db.status("c1").census_done is True


def test_the_status_totals_count_every_registered_chunk(db):
    db.create_campaign("c1", CONFIG)
    assert (db.status("c1").chunks_total, db.status("c1").workloads_total) == (0, 0)
    db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 3)])
    db.claim_chunk("c1", 0)
    db.ingest_outcome("c1", _outcome(0, ["a", "b", "c", "d"]))
    db.claim_chunk("c1", 1)  # in flight still counts
    assert (db.status("c1").chunks_total, db.status("c1").workloads_total) == (2, 7)


def test_register_chunks_detects_stream_drift(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 4)])
    with pytest.raises(ValueError, match="no longer the one"):
        db.register_chunks("c1", [(0, "DIFFERENT", 4)])


def test_recover_from_crash_resets_processing_chunks(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 4), (1, "k1", 4), (2, "k2", 4)])
    db.claim_chunk("c1", 0)
    db.claim_chunk("c1", 1)
    db.ingest_outcome("c1", _outcome(1, ["a"]))  # chunk 1 completed before the crash
    db.create_campaign("c2", CONFIG)
    db.register_chunks("c2", [(0, "k0", 4)])
    db.claim_chunk("c2", 0)
    assert db.recover_from_crash("c1") == 1  # only chunk 0 was orphaned
    assert db.claim_chunk("c1", 0) is True  # claimable again
    assert db.done_chunk_indices("c1") == {1}  # done work untouched
    assert db.chunk_states("c2") == {api.PROCESSING: (1, 4)}  # another campaign's


def test_ingest_refuses_double_counting(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 2)])
    db.claim_chunk("c1", 0)
    assert db.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1)) is True
    # A retried chunk (late worker racing a recovered session) is refused.
    assert db.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1)) is False
    result = db.campaign_result("c1")
    assert result.workloads_tested == 2
    assert len(result.all_reports()) == 2  # one per workload, not doubled
    assert db.status("c1").raw_reports == 2


def test_ingest_of_unregistered_chunk_raises(db):
    db.create_campaign("c1", CONFIG)
    with pytest.raises(KeyError, match="never registered"):
        db.ingest_outcome("c1", _outcome(7, ["a"]))


def test_a_refused_ingest_leaves_no_transaction_open(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 1)])
    db.claim_chunk("c1", 0)
    with pytest.raises(KeyError):
        db.ingest_outcome("c1", _outcome(7, ["a"]))
    # The failed ingest rolled back: the next one opens its own transaction.
    assert db.ingest_outcome("c1", _outcome(0, ["a"])) is True
    assert db.done_chunk_indices("c1") == {0}


def test_a_chunk_past_the_page_cache_lands_whole_or_not_at_all(db):
    """Rows past the bounded page cache spill to the WAL mid-transaction; a
    chunk whose update then fails still leaves no row behind."""
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 400)])
    db.claim_chunk("c1", 0)
    outcome = _outcome(0, [f"w{n}" for n in range(400)], reports=1)
    cache = statedb.CACHE_KIB * 1024
    assert sum(len(row) for row in outcome.packed().rows) > 4 * cache
    wal_before = os.path.getsize(db.path + "-wal")
    # The chunk's UPDATE is the transaction's last statement: make it fail.
    db._conn.execute("CREATE TRIGGER refuse BEFORE UPDATE OF status ON chunks "
                     "BEGIN SELECT RAISE(ABORT, 'disk gone'); END")
    with pytest.raises(sqlite3.IntegrityError, match="disk gone"):
        db.ingest_outcome("c1", outcome)
    assert os.path.getsize(db.path + "-wal") - wal_before > cache  # the cache spilled
    assert not db._conn.in_transaction
    assert db._conn.execute("SELECT COUNT(*) FROM results").fetchone() == (0,)
    assert db.chunk_states("c1") == {api.PROCESSING: (1, 400)}
    db._conn.execute("DROP TRIGGER refuse")
    assert db.ingest_outcome("c1", outcome) is True
    assert len(db.campaign_result("c1").results) == 400


def test_every_connection_the_store_opens_has_the_bounded_page_cache(tmp_path, monkeypatch):
    opened, read_back = [], []

    class Observed(sqlite3.Connection):
        def close(self):
            read_back.append(self.execute("PRAGMA cache_size").fetchone()[0])
            super().close()

    def connect(*args, **kwargs):
        opened.append(args[0])
        return sqlite_connect(*args, factory=Observed, **kwargs)

    sqlite_connect = sqlite3.connect
    monkeypatch.setattr(statedb.sqlite3, "connect", connect)
    path = str(tmp_path / "state.sqlite")
    with CampaignStateDB(path) as writer:
        writer.create_campaign("c1", CONFIG)
        writer.register_chunks("c1", [(0, "k0", 2)])
        writer.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1))
        results = writer.campaign_result("c1").results
    with CampaignStateDB.existing(path) as existing:
        existing.status("c1")
    # Each pass over the stored results is a connection of its own.
    assert len(results) == 2
    assert [test.workload.name for test in results] == ["a", "b"]
    assert results[-1].workload.name == "b"
    assert len(results.failing_only()) == 2
    # The writer, ``existing`` and five passes (``results[-1]`` counts first).
    assert len(opened) == 7
    assert read_back == [-statedb.CACHE_KIB] * 7


def test_results_are_kept_per_campaign(db):
    for campaign_id, names in (("c1", ["a", "b"]), ("c2", ["x"])):
        db.create_campaign(campaign_id, CONFIG)
        db.register_chunks(campaign_id, [(0, "k0", len(names))])
        db.claim_chunk(campaign_id, 0)
        db.ingest_outcome(campaign_id, _outcome(0, names))
    assert [r.workload.name for r in db.campaign_result("c1").results] == ["a", "b"]
    assert [r.workload.name for r in db.campaign_result("c2").results] == ["x"]
    assert len(db.campaign_result("c2").results) == 1  # a COUNT of c2's rows alone


def test_campaign_result_reconstructs_in_stream_order(db):
    db.create_campaign("c1", CONFIG, fs_name="btrfs", fs_model="btrfs-sim",
                       label="seq-1")
    db.register_chunks("c1", [(0, "k0", 2), (1, "k1", 1)])
    # Completion order (chunk 1 first) must not leak into the result order.
    db.claim_chunk("c1", 1)
    db.ingest_outcome("c1", _outcome(1, ["w2"]))
    db.claim_chunk("c1", 0)
    db.ingest_outcome("c1", _outcome(0, ["w0", "w1"]))
    result = db.campaign_result("c1")
    assert [r.workload.name for r in result.results] == ["w0", "w1", "w2"]
    assert result.label == "seq-1"
    assert sum(r.scenarios_tested for r in result.results) == 6


# ---------------------------------------------------------------------- views

def test_status_view(db):
    db.create_campaign("c1", CONFIG, label="seq-1")
    db.register_chunks("c1", [(0, "k0", 2), (1, "k1", 2)])
    status = db.status("c1")
    assert (status.chunks_done, status.chunks_total) == (0, 2)
    assert not status.complete
    db.claim_chunk("c1", 0)
    db.ingest_outcome("c1", _outcome(0, ["a", "b"], reports=1))
    status = db.status("c1")
    assert (status.chunks_done, status.workloads_done) == (1, 2)
    assert status.raw_reports == 2
    assert status.describe().startswith("c1")
    db.claim_chunk("c1", 1)
    db.ingest_outcome("c1", _outcome(1, ["c", "d"]))
    # Every registered chunk done is not yet the campaign done: the table may
    # hold only a prefix of the census until a session has drained the stream.
    assert not db.status("c1").complete
    db.finish_census("c1", invalid_workloads=0, generation_seconds=0.0)
    assert db.status("c1").complete


def test_the_lifecycle_word_is_derived_from_the_chunks(db):
    db.create_campaign("c1", CONFIG)
    assert db.status("c1").status == api.QUEUED
    db.register_chunks("c1", [(0, "k0", 2), (1, "k1", 2)])
    assert db.status("c1").status == api.RUNNING
    db.finish_census("c1", invalid_workloads=0, generation_seconds=0.0)
    for index in (0, 1):
        assert db.status("c1").status == api.RUNNING
        db.claim_chunk("c1", index)
        db.ingest_outcome("c1", _outcome(index, ["a", "b"]))
    assert db.status("c1").status == api.DONE
    assert db.status("c1").describe().startswith("c1               done     chunks 2/2,")
    # A drained stream with no workload in it is a finished campaign.
    db.create_campaign("empty", CONFIG)
    db.finish_census("empty", invalid_workloads=0, generation_seconds=0.0)
    assert (db.status("empty").status, db.status("empty").complete) == (api.DONE, True)


def test_status_counts_chunks_in_flight(db):
    db.create_campaign("c1", CONFIG)
    db.register_chunks("c1", [(0, "k0", 2), (1, "k1", 2)])
    assert db.status("c1").chunks_processing == 0
    assert "in flight" not in db.status("c1").describe()
    db.claim_chunk("c1", 1)
    status = db.status("c1")
    assert status.chunks_processing == 1
    assert "chunks 0/2 (+1 in flight)," in status.describe()


def test_statuses_list_campaigns_in_creation_order(db):
    db.create_campaign("b1", CONFIG)
    db.create_campaign("a1", CONFIG)
    assert [s.campaign_id for s in db.statuses()] == ["b1", "a1"]


def test_store_reopens_from_disk(tmp_path):
    path = str(tmp_path / "state.sqlite")
    with CampaignStateDB(path) as store:
        store.create_campaign("c1", CONFIG)
        store.register_chunks("c1", [(0, "k0", 1)])
        store.claim_chunk("c1", 0)
        store.ingest_outcome("c1", _outcome(0, ["a"]))
    with CampaignStateDB(path) as store:
        assert store.done_chunk_indices("c1") == {0}
        assert store.campaign_result("c1").workloads_tested == 1
