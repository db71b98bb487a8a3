"""B3 on the durable runner: crash it at every one of its persistence points.

B3 crashes a file system at each persistence point of a bounded workload and
checks what recovers.  Here the system under test is the campaign runner and
its store, the bounded workload a small seq-2 campaign, and the persistence
points its store writes and spill writes (``tests/crashpoints.py``).  A
session is SIGKILLed right after its k-th point, for every k, in a serial
lane, a ``-j 2`` lane and a serial zero-budget spill lane; each crash is
resumed under another lane's execution options, and the finished campaign
must be the uninterrupted run's, canonically and in its grouped report.
"""

import collections
import signal
import time

import pytest

from repro.ace import seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.service import CampaignStateDB, DurableCampaignRunner

from crashpoints import SPILL, count, crash_at, crash_each

#: execution options of each lane, and the lane a crash in it resumes under
LANES = {
    "serial": ({}, "pool"),
    "pool": ({"processes": 2}, "spill"),
    "spill": ({"spine_memory_budget": 0}, "serial"),
}


def _config(**execution) -> CampaignConfig:
    # seq-2 --limit 24 --sample --chunk-size 4: six chunks with failing workloads in them
    return CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(), max_workloads=24,
                          sample=True, chunk_size=4, **execution)


def _groups(result) -> str:
    """The ``report groups:`` block of the result's text."""
    return result.describe().partition("report groups:")[2]


def _session(db_path: str, **execution):
    runner = DurableCampaignRunner(_config(**execution), db_path, campaign_id="victim")
    try:
        return runner.run()
    finally:
        runner.close()


@pytest.fixture(scope="module")
def uninterrupted():
    result = B3Campaign(_config()).run()
    assert result.failing_workloads > 0, "need failing workloads to compare reports"
    return result


@pytest.mark.parametrize("lane", sorted(LANES))
def test_a_session_killed_at_any_persistence_point_resumes_to_the_same_result(
        tmp_path, lane, uninterrupted):
    execution, resumed_under = LANES[lane]
    started = time.monotonic()
    with count() as passed:
        whole = _session(str(tmp_path / "whole.sqlite"), **execution)
    assert whole.canonical_dict() == uninterrupted.canonical_dict()
    assert whole.workloads_tested == 24
    chunks = 6
    assert collections.Counter(passed) == {
        "create_campaign": 1, "recover_from_crash": 1, "finish_census": 1,
        "register_chunks": chunks, "claim_chunk": chunks, "ingest_outcome": chunks,
        **({SPILL: whole.spine_spills} if whole.spine_spills else {}),
    }
    assert (whole.spine_spills > 0) == (lane == "spill")
    points = len(passed)
    # The count is every point there is: a crash one past the last never fires.
    assert crash_at(points + 1, lambda: _session(str(tmp_path / "past.sqlite"),
                                                 **execution)) == 0

    def victim(k):
        return lambda: _session(str(tmp_path / f"{k}.sqlite"), **execution)

    crashed = 0
    for k, code in crash_each(range(1, points + 1), victim):
        assert code == -signal.SIGKILL, k
        crashed += 1
        db_path = str(tmp_path / f"{k}.sqlite")
        runner = DurableCampaignRunner.from_db(db_path, "victim", **LANES[resumed_under][0])
        try:
            resumed = runner.run()
        finally:
            runner.close()
        with CampaignStateDB.existing(db_path) as db:
            status = db.status("victim")
        assert status.status == "done" and status.testing_seconds > 0, (k, status)
        assert resumed.canonical_dict() == uninterrupted.canonical_dict(), k
        assert _groups(resumed) == _groups(uninterrupted), k
    assert crashed == points
    print(f"{lane}: crashed at each of K={points} points, resumed {resumed_under}, "
          f"{time.monotonic() - started:.1f}s")
