"""Crash-resume: a SIGKILLed durable campaign finishes with identical results.

The acceptance bar for the campaign service is the paper's own bar applied to
ourselves: kill the tester mid-campaign, resume, and the final report must be
the one an uninterrupted run produces.  Identity is compared via
``CampaignResult.canonical_dict()`` — everything that was *tested* (reports,
scenario and dedup counters, recorded profiles, result order) must match;
wall-clock timing and prefix/replay sharing telemetry legitimately differ
between schedules (see ``CrashTestResult.SESSION_FIELDS``).
"""

import dataclasses
import os
import signal
import subprocess
import sys

import pytest

from repro.ace import seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.service import CampaignStateDB, DurableCampaignRunner
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


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
def test_sigkilled_campaign_resumes_to_identical_results(tmp_path, uninterrupted,
                                                         processes):
    db_path = str(tmp_path / "state.sqlite")
    victim = _run_victim(db_path, crash_after=3, processes=processes)
    assert victim.returncode == -signal.SIGKILL

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


# ------------------------------------------------------- durable dedup sightings


def _dedup_config() -> CampaignConfig:
    # A contiguous seq-2 prefix: sibling families share persistence-point
    # keys, so the cross-workload cache genuinely skips checkpoints (a
    # sampled slice scatters the families and never hits the cache).
    return dataclasses.replace(_config(), sample=False, cross_workload_dedup=True)


def test_resumed_dedup_campaign_matches_the_uninterrupted_run(tmp_path):
    """Sliced sessions see exactly the sightings their committed chunks left.

    Before the sighting cache was persisted through the state store, every
    resumed session restarted it empty: how many times a campaign was
    interrupted changed which checkpoints were skipped, so the scenario and
    dedup counters were history-dependent.  Now they must be identical.
    """
    reference = DurableCampaignRunner(_dedup_config(), str(tmp_path / "ref.sqlite"),
                                      campaign_id="ref")
    try:
        uninterrupted = reference.run()
    finally:
        reference.close()
    assert uninterrupted is not None
    assert sum(r.cross_deduped_scenarios for r in uninterrupted.results) > 0, (
        "need cross-workload dedup hits for the comparison to mean anything"
    )

    db_path = str(tmp_path / "sliced.sqlite")
    sliced = None
    sessions = 0
    for _ in range(100):
        runner = DurableCampaignRunner(_dedup_config(), db_path, campaign_id="sliced")
        try:
            sliced = runner.run(max_chunks=2)
        finally:
            runner.close()
        sessions += 1
        if sliced is not None:
            break
    assert sliced is not None and sessions > 2
    assert sliced.canonical_dict() == uninterrupted.canonical_dict()


def test_recovery_purges_sightings_of_uncommitted_chunks(tmp_path):
    """An in-flight chunk's sightings die with it; a committed chunk's persist."""
    from repro.crashmonkey import ScopedDedupCache
    from repro.engine.backends import ChunkOutcome
    from repro.service.api import config_to_dict

    db_path = str(tmp_path / "state.sqlite")
    with CampaignStateDB(db_path) as db:
        db.create_campaign("camp", config_to_dict(_config()), tenant="default",
                           label="seq-2", fs_name="btrfs", fs_model="logfs")
        db.register_chunks("camp", [(0, "key0", 1), (1, "key1", 1)])
        db.claim_chunk("camp", 0)
        db.claim_chunk("camp", 1)

        cache = ScopedDedupCache(db.path, "camp")
        cache.set_chunk(0)
        assert cache.first_sighting(("committed", 1))
        cache.set_chunk(1)
        assert cache.first_sighting(("in-flight", 2))
        cache.close()

        # Chunk 0 commits; chunk 1 is still processing when the session dies.
        db.ingest_outcome("camp", ChunkOutcome(index=0, results=[], seconds=0.0))
        assert db.recover_from_crash("camp") == 1

        cache = ScopedDedupCache(db.path, "camp")
        # The committed chunk's sighting survived recovery ...
        assert not cache.first_sighting(("committed", 1))
        # ... the uncommitted chunk's was purged: its re-run must re-test.
        cache.set_chunk(1)
        assert cache.first_sighting(("in-flight", 2))
        cache.close()


def test_default_campaign_id_is_config_deterministic():
    from repro.service import default_campaign_id

    a = default_campaign_id("alice", _config())
    assert a == default_campaign_id("alice", _config())
    assert a != default_campaign_id("bob", _config())
    # Execution options are not identity: the same campaign under another
    # worker count resumes itself; another bound is another campaign.
    assert a == default_campaign_id("alice", _config(processes=2))
    assert a != default_campaign_id("alice", _config(torn_bound=1))
