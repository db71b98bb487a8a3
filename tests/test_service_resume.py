"""Crash-resume: a SIGKILLed durable campaign finishes with identical results.

The acceptance bar for the campaign service is the paper's own bar applied to
ourselves: kill the tester mid-campaign, resume, and the final report must be
the one an uninterrupted run produces.  Identity is compared via
``CampaignResult.canonical_dict()`` — everything that was *tested* (reports,
scenario and dedup counters, recorded profiles, result order) must match;
wall-clock timing and prefix/replay sharing telemetry legitimately differ
between schedules (see ``CrashTestResult.SESSION_FIELDS``).
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from dataclasses import replace

import pytest

from repro.ace import (
    seq1_bounds,
    seq2_bounds,
    seq3_data_bounds,
    seq3_metadata_bounds,
    seq3_nested_bounds,
)
from repro.cli.main import main
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.core.results import CampaignResult
from repro.crashmonkey import CrashMonkey
from repro.crashmonkey.report import CrashTestResult
from repro.errors import CampaignDriftError, UnknownCampaignError
from repro.service import CampaignStateDB, DurableCampaignRunner, default_campaign_id

from conftest import assert_reads_as_held, reopen_tail, run_until

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def _config(**options) -> CampaignConfig:
    # A slice of seq-2 with real bug reports in it, so resume identity
    # covers report reconstruction, not just counters.
    return CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(),
                          max_workloads=40, sample=True,
                          chunk_size=4, **options)


@pytest.fixture(scope="module")
def uninterrupted():
    result = B3Campaign(_config()).run()
    assert result.failing_workloads > 0, "need failing workloads to compare reports"
    return result


def _run_victim(db_path: str, crash_after: int, processes: int) -> subprocess.CompletedProcess:
    """The durable CLI campaign in its own process, SIGKILLed by
    ``crashpoints.py`` right after its ``crash_after``-th ingest."""
    args = [
        sys.executable, os.path.join(TESTS, "crashpoints.py"),
        "--after", str(crash_after), "--at", "ingest_outcome", "--",
        "campaign", "--state-db", db_path,
        "--campaign-id", "victim",
        "--preset", "seq-2", "--limit", "40", "--sample", "--chunk-size", "4",
        "--processes", str(processes),
    ]
    return subprocess.run(args, env=dict(os.environ, PYTHONPATH=SRC),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=300)


def _survivors(db_path: str, wait_s: float = 5.0) -> list:
    """Pids of live processes whose command line names ``db_path``, once
    none is left or ``wait_s`` has passed."""
    deadline = time.monotonic() + wait_s
    while True:
        alive = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if db_path.encode() in handle.read():
                        alive.append(int(pid))
            except OSError:
                continue  # gone while we looked
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
def test_sigkilled_campaign_resumes_to_identical_results(tmp_path, uninterrupted,
                                                         processes):
    db_path = str(tmp_path / "state.sqlite")
    victim = _run_victim(db_path, crash_after=3, processes=processes)
    assert victim.returncode == -signal.SIGKILL
    # A pool's workers go down with the campaign, not idle on as orphans.
    assert _survivors(db_path) == []

    with CampaignStateDB(db_path) as db:
        status = db.status("victim")
        # The victim died mid-campaign with durable progress on disk — and
        # (registration being lazy) possibly only a prefix of the census,
        # which is exactly why completion requires the census_done flag.
        assert status.chunks_done > 0
        assert not status.complete
        assert not (status.census_done and status.chunks_done == status.chunks_total)

    runner = DurableCampaignRunner.from_db(db_path, "victim", processes=processes)
    try:
        resumed = runner.run()
        session = runner.last_session
    finally:
        runner.close()

    assert resumed is not None
    assert session.chunks_skipped > 0  # durable progress was honoured
    assert session.chunks_skipped + session.chunks_executed >= \
        len(resumed.results) // 4  # every chunk accounted for
    assert resumed.canonical_dict() == uninterrupted.canonical_dict()
    assert resumed.describe().splitlines()[0].split("generation")[0] \
        .startswith("campaign seq-2")


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
def test_a_campaign_killed_after_its_last_ingest_is_done(tmp_path, uninterrupted, processes):
    """The chunks are the campaign's one record of progress, and the census
    completes when the last chunk is registered, before it is dispatched, so
    a session SIGKILLed right after its last ingest leaves a finished
    campaign: readable, no resume.  Each ingest stores the session's testing
    time since the one before, so the victim's time is stored too."""
    db_path = str(tmp_path / "state.sqlite")
    chunks = 10  # the 40 workloads in family-affine chunks of 4
    victim = _run_victim(db_path, crash_after=chunks, processes=processes)
    assert victim.returncode == -signal.SIGKILL
    with CampaignStateDB.existing(db_path) as db:
        status = db.status("victim")
        assert (status.status, status.chunks_done, status.chunks_total) == ("done", chunks, chunks)
        assert status.complete
        assert status.testing_seconds > 0
        result = db.campaign_result("victim")
    assert result.canonical_dict() == uninterrupted.canonical_dict()


def test_a_pool_mechanism_session_builds_no_harness_in_the_parent(tmp_path, monkeypatch):
    """The mechanism summary is derived when a result is read, so a pool
    session's parent profiles nothing and stores no summary."""
    built = []
    init = CrashMonkey.__init__
    monkeypatch.setattr(CrashMonkey, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    db_path = str(tmp_path / "state.sqlite")
    config = CampaignConfig(fs_name="logfs", bounds=seq1_bounds(), max_workloads=8,
                            chunk_size=4, crash_plan="mechanism", processes=2)
    result, _ = _session(config, db_path, "m")
    assert built == []
    assert len(result.results) == 8
    with closing(sqlite3.connect(db_path)) as conn:
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    assert "mechanism_reports" not in tables


def _session(config, db_path, campaign_id, crash_after=None, progress=None):
    """One durable session; crashed in-process after ``crash_after`` chunks."""
    runner = DurableCampaignRunner(config, db_path, campaign_id=campaign_id)
    try:
        if crash_after is None:
            return runner.run(progress=progress), runner.last_session
        return run_until(runner, crash_after, progress), runner.last_session
    finally:
        runner.close()


def test_interrupted_sessions_in_process(tmp_path, uninterrupted):
    """Sessions crashed in-process after two chunks each finish the campaign."""
    db_path = str(tmp_path / "state.sqlite")
    sessions = []
    result = None
    for _ in range(100):
        result, session = _session(_config(), db_path, "interrupted", crash_after=2)
        sessions.append(session)
        if result is not None:
            break
    assert result is not None
    assert len(sessions) > 2  # genuinely ran as many separate sessions
    assert all(s.chunks_executed <= 2 for s in sessions)
    assert sessions[1].chunks_skipped == 2  # each resumes where the last stopped
    assert result.canonical_dict() == uninterrupted.canonical_dict()


def test_every_session_reports_where_the_whole_campaign_stands(tmp_path):
    """A fresh durable session already has the space index's workload total
    (hence an ETA) from its first event; a resumed one adds what the store
    holds, and once the census is stored, its chunk total."""
    config = _config()
    total = B3Campaign(config).workloads_total()
    db_path = str(tmp_path / "state.sqlite")
    first, second, third = [], [], []
    assert _session(config, db_path, "eta", 3, first.append)[0] is None
    assert first[0].workloads_total == total == 40
    assert first[0].chunks_total is None  # no census stored yet
    assert first[0].eta_seconds is not None
    assert [event.chunks_done for event in first] == [1, 2, 3]
    result, _ = _session(config, db_path, "eta", progress=second.append)
    assert [event.chunks_done for event in second] == list(range(4, 4 + len(second)))
    assert {event.chunks_total for event in second} == {None}  # the crash left no census
    assert {event.workloads_total for event in second} == {total}
    assert second[0].workloads_done == \
        first[-1].workloads_done + second[0].session_workloads
    assert second[-1].workloads_done == total
    assert second[-1].failing_workloads == result.failing_workloads

    # Killed in its last in-flight window, a session leaves the census stored.
    chunks = len(first) + len(second)
    reopen_tail(db_path, "eta", 3)
    assert _session(config, db_path, "eta", progress=third.append)[0].canonical_dict() == \
        result.canonical_dict()
    assert [event.chunks_done for event in third] == list(range(4, chunks + 1))
    assert {event.chunks_total for event in third} == {chunks}
    assert {event.workloads_total for event in third} == {total}
    assert third[0].workloads_done == \
        first[-1].workloads_done + third[0].session_workloads
    assert third[-1].failing_workloads == result.failing_workloads


def test_an_unlabelled_campaign_is_labelled_alike_fresh_or_resumed(tmp_path):
    """A fresh durable run and an interrupted-then-resumed one both label an
    unlabelled campaign ``seq-<n>``, as a plain campaign does."""
    config = CampaignConfig(fs_name="btrfs", bounds=replace(seq1_bounds(), label=""),
                            max_workloads=12, chunk_size=4)
    db_path = str(tmp_path / "state.sqlite")
    results = {"fresh": _session(config, db_path, "fresh")[0]}
    assert _session(config, db_path, "resumed", crash_after=1)[0] is None
    results["resumed"] = _session(config, db_path, "resumed")[0]
    assert results["fresh"].canonical_dict() == results["resumed"].canonical_dict()
    assert results["fresh"].label == B3Campaign(config).run().label == "seq-1"


@pytest.mark.parametrize("bounds", (seq1_bounds, seq2_bounds, seq3_data_bounds,
                                    seq3_metadata_bounds, seq3_nested_bounds))
def test_an_unlabelled_campaign_is_named_by_its_sequence_length(bounds):
    unlabelled = replace(bounds(), label="")
    campaign = B3Campaign(CampaignConfig(fs_name="btrfs", bounds=unlabelled))
    assert campaign.label == f"seq-{unlabelled.seq_length}"


def test_a_labelled_campaign_keeps_its_label():
    bounds = replace(seq1_bounds(), label="nightly")
    assert B3Campaign(CampaignConfig(fs_name="btrfs", bounds=bounds)).label == "nightly"


def test_completed_campaign_resumes_without_replaying_chunks(tmp_path, uninterrupted):
    db_path = str(tmp_path / "state.sqlite")
    runner = DurableCampaignRunner(_config(), db_path, campaign_id="oneshot")
    try:
        first = runner.run()
    finally:
        runner.close()
    assert first is not None

    runner = DurableCampaignRunner.from_db(db_path, "oneshot")
    try:
        again = runner.run()
        session = runner.last_session
    finally:
        runner.close()
    assert session.chunks_executed == 0
    assert session.workloads_executed == 0
    assert session.chunks_skipped > 0
    assert again.canonical_dict() == first.canonical_dict()


@pytest.mark.parametrize("processes", [1, 2])
def test_a_session_charges_its_generation_seconds_once(tmp_path, processes):
    """A serial session pulls its chunks from the generator inside the
    engine's wall clock, so its testing seconds are what generation left of
    it; a pool overlaps the two, so its testing seconds are that wall clock."""
    config = CampaignConfig(fs_name="flashfs", bounds=seq3_data_bounds(), max_workloads=60,
                            sample=True, processes=processes)
    runner = DurableCampaignRunner(config, str(tmp_path / "state.sqlite"), campaign_id="timed")
    try:
        start = time.perf_counter()
        result = runner.run()
        wall = time.perf_counter() - start
        row = runner.db.campaign_row("timed")
    finally:
        runner.close()
    assert result.generation_seconds > 0
    assert (row["generation_seconds"], row["testing_seconds"]) == \
        (result.generation_seconds, result.testing_seconds)
    if processes == 1:
        assert result.generation_seconds + result.testing_seconds <= wall
    else:
        assert result.generation_seconds <= result.testing_seconds <= wall


def test_recovery_resets_orphaned_chunks(tmp_path):
    """A chunk claimed but never committed is re-dispatched on resume."""
    db_path = str(tmp_path / "state.sqlite")
    # The pool's in-flight window claims chunks ahead of ingest (the serial
    # backend claims one at a time, leaving nothing to orphan), so when the
    # victim dies after the second commit the store still holds claimed
    # `processing` rows for the recovery path to reset.
    victim = _run_victim(db_path, crash_after=2, processes=2)
    assert victim.returncode == -signal.SIGKILL
    runner = DurableCampaignRunner.from_db(db_path, "victim")
    try:
        result = runner.run()
        session = runner.last_session
    finally:
        runner.close()
    assert result is not None
    assert session.chunks_recovered > 0
    assert session.duplicate_ingests == 0


def test_resume_with_changed_config_is_rejected(tmp_path):
    db_path = str(tmp_path / "state.sqlite")
    assert _session(_config(), db_path, "fixed", crash_after=1)[0] is None
    drifted = CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(),
                             max_workloads=12, sample=True, chunk_size=4)
    runner = DurableCampaignRunner(drifted, db_path, campaign_id="fixed")
    try:
        with pytest.raises(ValueError, match="different"):
            runner.run()
    finally:
        runner.close()


# ------------------------------------------- stores written by an older version


def _old_store(db_path: str, **stored) -> None:
    """A store as an older version left it: a campaigns table with a
    ``tenant`` column holding two owners' campaigns, ``old`` with a config
    that has keys this version has no option for, a chunks table with a
    ``cross_deduped`` column, and the cross-workload dedup table."""
    payloads = {"old": {**_config().to_dict(), **stored},
                "other": _config(torn_bound=1).to_dict()}
    with closing(sqlite3.connect(db_path)) as conn, conn:
        conn.executescript(
            "CREATE TABLE campaigns (campaign_id TEXT PRIMARY KEY,"
            " tenant TEXT NOT NULL DEFAULT 'default', label TEXT NOT NULL DEFAULT '',"
            " fs_name TEXT NOT NULL DEFAULT '', fs_model TEXT NOT NULL DEFAULT '',"
            " status TEXT NOT NULL DEFAULT 'queued', config_json TEXT NOT NULL,"
            " census_done INTEGER NOT NULL DEFAULT 0,"
            " invalid_workloads INTEGER NOT NULL DEFAULT 0,"
            " generation_seconds REAL NOT NULL DEFAULT 0,"
            " testing_seconds REAL NOT NULL DEFAULT 0);"
        )
        campaign = B3Campaign(_config())
        conn.executemany(
            "INSERT INTO campaigns (campaign_id, tenant, label, fs_name, fs_model, config_json)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            [(campaign_id, tenant, campaign.label, campaign.fs_name, campaign.fs_model,
              json.dumps(payloads[campaign_id], sort_keys=True))
             for campaign_id, tenant in (("old", "default"), ("other", "alice"))])
        conn.executescript(
            "CREATE TABLE chunks (campaign_id TEXT NOT NULL, chunk_index INTEGER NOT NULL,"
            " chunk_key TEXT NOT NULL, workloads INTEGER NOT NULL,"
            " status TEXT NOT NULL DEFAULT 'pending', seconds REAL NOT NULL DEFAULT 0,"
            " worker TEXT NOT NULL DEFAULT '', failing INTEGER NOT NULL DEFAULT 0,"
            " raw_reports INTEGER NOT NULL DEFAULT 0, crash_points INTEGER NOT NULL DEFAULT 0,"
            " scenarios INTEGER NOT NULL DEFAULT 0, deduped INTEGER NOT NULL DEFAULT 0,"
            " cross_deduped INTEGER NOT NULL DEFAULT 0,"
            " prefix_hits INTEGER NOT NULL DEFAULT 0, replay_hits INTEGER NOT NULL DEFAULT 0,"
            " cpu_seconds REAL NOT NULL DEFAULT 0, PRIMARY KEY (campaign_id, chunk_index));"
            "CREATE TABLE dedup_sightings (scope TEXT NOT NULL, key TEXT NOT NULL,"
            " chunk_index INTEGER NOT NULL, PRIMARY KEY (scope, key));"
            "INSERT INTO dedup_sightings VALUES ('old', 'k', 0);"
        )


def test_a_campaign_created_with_cross_workload_dedup_is_refused(tmp_path):
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, cross_workload_dedup=True, global_dedup_cache=None)
    runner = DurableCampaignRunner.from_db(db_path, "old")
    try:
        with pytest.raises(CampaignDriftError) as refused:
            runner.run()
    finally:
        runner.close()
    assert str(refused.value) == (
        "campaign 'old' was created with cross_workload_dedup=True, an option this "
        "version no longer has — a different campaign; pick another campaign id")


def test_a_campaign_created_with_share_replay_resumes_without_it(tmp_path):
    """``share_replay`` was an execution option, on by default, so every store
    written while it existed holds ``share_replay: true``.  It never changed
    a result: such a campaign resumes to the result it would have had, and
    its row keeps the configuration it was created with."""
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, share_replay=True)
    runner = DurableCampaignRunner.from_db(db_path, "old")
    try:
        resumed = runner.run()
    finally:
        runner.close()
    assert resumed.canonical_dict() == B3Campaign(_config()).run().canonical_dict()
    with CampaignStateDB(db_path) as db:
        assert db.load_config("old")["share_replay"] is True


@pytest.mark.parametrize("stored, refused", [
    ({"cross_workload_dedup": True}, True),
    ({"cross_workload_dedup": False}, False),
    ({"global_dedup_cache": None}, False),
    ({"dedup_scope": None}, False),
    ({"share_replay": True}, False),
    ({"share_replay": True, "cross_workload_dedup": True}, True),
    ({"analyze_mechanisms": None}, False),
    ({"analyze_mechanisms": True}, True),
    ({"kernel_version": "4.16"}, False),
    ({"kernel_version": "5.0"}, True),
], ids=["cross-dedup-on", "cross-dedup-off", "no-sighting-db", "no-scope", "share-replay-on",
        "share-replay-and-cross-dedup-on", "analysis-auto", "analysis-forced",
        "kernel-as-every-campaign-had-it", "kernel-relabelled"])
def test_only_a_removed_option_that_was_set_is_drift(tmp_path, stored, refused):
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, **stored)
    with CampaignStateDB(db_path) as db:
        def resume():
            return db.create_campaign("old", _config().to_dict(), label="seq-2",
                                      fs_name="btrfs", fs_model="btrfs")
        if refused:
            with pytest.raises(CampaignDriftError, match="no longer has"):
                resume()
        else:
            assert resume() is False


def test_a_campaign_created_with_another_kernel_label_is_refused_in_one_line(tmp_path, capsys):
    """Every configuration held ``kernel_version: "4.16"`` while the option
    existed; a store naming another label holds another campaign."""
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, kernel_version="5.0")
    assert main(["resume", "--state-db", db_path, "old"]) == 2
    assert capsys.readouterr().err == (
        "error: campaign 'old' was created with kernel_version='5.0', an option this "
        "version no longer has — a different campaign; pick another campaign id\n")


def test_recovery_on_an_old_store_leaves_its_dedup_table_alone(tmp_path):
    """Nothing reads the old sighting table any more, so recovery, which
    used to purge it, now only hands in-flight chunks back."""
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path)
    with CampaignStateDB(db_path) as db:
        db.register_chunks("old", [(0, "key0", 1), (1, "key1", 1)])
        assert db.claim_chunk("old", 0) and db.claim_chunk("old", 1)
        assert db.recover_from_crash("old") == 2
        assert db.status("old").chunks_done == 0
        assert db.claim_chunk("old", 0)
    with closing(sqlite3.connect(db_path)) as conn:
        assert conn.execute("SELECT * FROM dedup_sightings").fetchall() == [("old", "k", 0)]


def test_an_old_store_resumes_a_default_campaign(tmp_path, capsys, uninterrupted):
    """Both of an old store's campaigns are listed, whatever their owner, and
    one of them resumes to the uninterrupted result."""
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, cross_workload_dedup=False, global_dedup_cache=None,
               dedup_scope=None)
    assert main(["status", "--state-db", db_path]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in listed] == [["old", "queued"], ["other", "queued"]]
    assert main(["resume", "--state-db", db_path, "old"]) == 0
    result_json = tmp_path / "old.json"
    assert main(["results", "--state-db", db_path, "old", "--json-out", str(result_json)]) == 0
    resumed = CampaignResult.from_dict(json.loads(result_json.read_text()))
    assert resumed.canonical_dict() == uninterrupted.canonical_dict()
    with CampaignStateDB(db_path) as db:
        assert [(status.campaign_id, status.complete) for status in db.statuses()] == \
            [("old", True), ("other", False)]
        assert db.status("old").workloads_done == 40


def _unrolled_chunks(db_path: str) -> int:
    with closing(sqlite3.connect(db_path)) as conn:
        return conn.execute("SELECT COUNT(*) FROM chunks WHERE roll_ups IS NULL").fetchone()[0]


@pytest.mark.parametrize("older", ["every-other-chunk", "whole-store"])
def test_chunks_done_without_stored_roll_ups_read_back_from_their_rows(tmp_path, uninterrupted,
                                                                        older, monkeypatch):
    """Chunks an older version ingested carry no roll-ups (a store from before
    the column has none at all): opening the store computes theirs from their
    rows and stores them, once, so every read merges stored roll-ups and
    decodes nothing, and the result reads as the uninterrupted run."""
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path)
    runner = DurableCampaignRunner.from_db(db_path, "old")
    try:
        runner.run()
    finally:
        runner.close()
    with closing(sqlite3.connect(db_path)) as conn, conn:
        if older == "whole-store":
            conn.execute("ALTER TABLE chunks DROP COLUMN roll_ups")
            unrolled_rows = 40
        else:
            conn.execute("UPDATE chunks SET roll_ups = NULL WHERE chunk_index % 2 = 0")
            assert conn.execute(
                "SELECT COUNT(*) FROM chunks WHERE roll_ups IS NULL").fetchone() == (5,)
            unrolled_rows = conn.execute(
                "SELECT COUNT(*) FROM results WHERE chunk_index % 2 = 0").fetchone()[0]
        # Only a version before this schema leaves a done chunk without roll-ups.
        conn.execute(f"PRAGMA user_version = {0 if older == 'whole-store' else 1}")
    decoded = []
    from_row = CrashTestResult.from_row.__func__
    monkeypatch.setattr(CrashTestResult, "from_row", classmethod(
        lambda cls, row: decoded.append(row) or from_row(cls, row)))
    with CampaignStateDB.existing(db_path) as db:
        assert _unrolled_chunks(db_path) == 0
        assert len(decoded) == unrolled_rows  # each unrolled chunk's rows, once
        result = db.campaign_result("old")
        for aggregate in CrashTestResult.AGGREGATES:
            getattr(result, aggregate)
        result.roll_ups(), result.failing_workloads, result.mounted_scenarios
        assert len(decoded) == unrolled_rows  # the read decoded nothing
    with CampaignStateDB.existing(db_path) as db:
        assert db._conn.total_changes == 0  # the second open finds nothing to migrate
    assert result.canonical_dict() == uninterrupted.canonical_dict()
    assert_reads_as_held(result)


def test_a_runner_leaves_a_borrowed_store_open(tmp_path):
    with CampaignStateDB(str(tmp_path / "state.sqlite")) as db:
        runner = DurableCampaignRunner(replace(_config(), max_workloads=8), db,
                                       campaign_id="borrowed")
        runner.run()
        runner.close()  # must not close the borrowed handle
        assert db.status("borrowed").complete
        runner = DurableCampaignRunner.from_db(db, "borrowed")
        runner.close()
        assert db.status("borrowed").workloads_done == 8


def test_resuming_from_a_missing_store_creates_none(tmp_path):
    path = tmp_path / "typo.sqlite"
    with pytest.raises(UnknownCampaignError, match="no campaign state store"):
        DurableCampaignRunner.from_db(str(path), "victim")
    assert not path.exists()


def test_resuming_an_unknown_campaign_leaves_a_borrowed_store_usable(tmp_path):
    with CampaignStateDB(str(tmp_path / "state.sqlite")) as db:
        with pytest.raises(UnknownCampaignError, match="unknown campaign 'ghost'"):
            DurableCampaignRunner.from_db(db, "ghost")
        runner = DurableCampaignRunner(replace(_config(), max_workloads=4), db,
                                       campaign_id="next")
        runner.run()
        assert db.status("next").complete


def test_default_campaign_id_is_config_deterministic():
    a = default_campaign_id(_config())
    assert a == default_campaign_id(_config())
    # Execution options are not identity: the same campaign under another
    # worker count resumes itself; another bound is another campaign.
    assert a == default_campaign_id(_config(processes=2))
    assert a != default_campaign_id(_config(torn_bound=1))


def test_default_campaign_ids_are_the_ones_older_stores_hold():
    """Re-running an ad-hoc durable ``campaign`` written by an older version
    resumes its campaign instead of starting a twin under a new id."""
    assert default_campaign_id(_config()) == "dur-3d1c60257256"
    assert default_campaign_id(CampaignConfig()) == "dur-5ad77329fc72"
