"""Crash-resume: a SIGKILLed durable campaign finishes with identical results.

The acceptance bar for the campaign service is the paper's own bar applied to
ourselves: kill the tester mid-campaign, resume, and the final report must be
the one an uninterrupted run produces.  Identity is compared via
``CampaignResult.canonical_dict()`` — everything that was *tested* (reports,
scenario and dedup counters, recorded profiles, result order) must match;
wall-clock timing and prefix/replay sharing telemetry legitimately differ
between schedules (see ``CrashTestResult.SESSION_FIELDS``).
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time
from contextlib import closing

import pytest

from repro.ace import seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.errors import CampaignDriftError
from repro.service import CampaignStateDB, DurableCampaignRunner
from repro.service.api import config_to_dict
from repro.service.runner import SELFCRASH_ENV

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def _durable_cli_args(db_path: str) -> list:
    return [
        sys.executable, "-m", "repro.cli.main",
        "campaign", "--durable", "--state-db", db_path,
        "--campaign-id", "victim",
        "--preset", "seq-2", "--limit", "40", "--sample", "--chunk-size", "4",
    ]


def _run_victim(db_path: str, crash_after: int, processes: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env[SELFCRASH_ENV] = str(crash_after)
    args = _durable_cli_args(db_path) + ["--processes", str(processes)]
    return subprocess.run(args, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=300)


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
        assert not (db.census_complete("victim")
                    and status.chunks_done == status.chunks_total)

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


def test_interrupted_slices_in_process(tmp_path, uninterrupted):
    """max_chunks slicing (the service path) is just a voluntary interrupt."""
    db_path = str(tmp_path / "state.sqlite")
    sessions = []
    result = None
    for _ in range(100):
        runner = DurableCampaignRunner(_config(), db_path, campaign_id="sliced")
        try:
            result = runner.run(max_chunks=2)
            sessions.append(runner.last_session)
        finally:
            runner.close()
        if result is not None:
            break
    assert result is not None
    assert len(sessions) > 2  # genuinely ran as many separate sessions
    assert all(s.chunks_executed <= 2 for s in sessions)
    assert result.canonical_dict() == uninterrupted.canonical_dict()


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


def test_recovery_resets_orphaned_chunks(tmp_path):
    """A chunk claimed but never committed is re-dispatched on resume."""
    db_path = str(tmp_path / "state.sqlite")
    # The pool's in-flight window claims chunks ahead of ingest (the serial
    # backend claims one at a time, leaving nothing to orphan), so when the
    # selfcrash fires after the second commit the store still holds claimed
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
    runner = DurableCampaignRunner(_config(), db_path, campaign_id="fixed")
    try:
        runner.run(max_chunks=1)
    finally:
        runner.close()
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
    """A store as an older version left it: a campaign row whose config has
    keys this version has no option for, a chunks table with a
    ``cross_deduped`` column, and the cross-workload dedup table."""
    with closing(sqlite3.connect(db_path)) as conn:
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
    with CampaignStateDB(db_path) as db:
        payload = {**config_to_dict(_config()), **stored}
        db.create_campaign("old", payload, label="seq-2", fs_name="btrfs", fs_model="btrfs")


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
], ids=["cross-dedup-on", "cross-dedup-off", "no-sighting-db", "no-scope", "share-replay-on",
        "share-replay-and-cross-dedup-on"])
def test_only_a_removed_option_that_was_set_is_drift(tmp_path, stored, refused):
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, **stored)
    with CampaignStateDB(db_path) as db:
        def resume():
            return db.create_campaign("old", config_to_dict(_config()), label="seq-2",
                                      fs_name="btrfs", fs_model="btrfs")
        if refused:
            with pytest.raises(CampaignDriftError, match="no longer has"):
                resume()
        else:
            assert resume() is False


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


def test_an_old_store_resumes_a_default_campaign(tmp_path, uninterrupted):
    db_path = str(tmp_path / "state.sqlite")
    _old_store(db_path, cross_workload_dedup=False, global_dedup_cache=None,
               dedup_scope=None)
    runner = DurableCampaignRunner.from_db(db_path, "old")
    try:
        resumed = runner.run()
    finally:
        runner.close()
    assert resumed.canonical_dict() == uninterrupted.canonical_dict()
    with CampaignStateDB(db_path) as db:
        assert db.status("old").complete
        assert db.tenant_usage()[0].workloads == 40


def test_default_campaign_id_is_config_deterministic():
    from repro.service import default_campaign_id

    a = default_campaign_id("alice", _config())
    assert a == default_campaign_id("alice", _config())
    assert a != default_campaign_id("bob", _config())
    # Execution options are not identity: the same campaign under another
    # worker count resumes itself; another bound is another campaign.
    assert a == default_campaign_id("alice", _config(processes=2))
    assert a != default_campaign_id("alice", _config(torn_bound=1))
