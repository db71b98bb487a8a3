"""The Figure-5 grouped report is a roll-up of per-chunk group partials.

Each chunk's partial — per (skeleton, consequence): its raw report count, its
first report's position and that report — is computed where the chunk ran;
partials merge by summing counts and taking the earliest first position.
These tests pin that any split of a campaign's failing results into chunks
merges to exactly what grouping every report in stream order gives, that a
wrong merge is caught, and that a stored result reads its groups from the
store's partials: one row per group, for its representative.
"""

import sqlite3
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ace import seq1_bounds
from repro.core.campaign import CampaignConfig
from repro.core.dedup import KnownBugDatabase, deduplicate, group_reports
from repro.core.results import CampaignResult
from repro.crashmonkey.report import (
    BugReport,
    CrashTestResult,
    Mismatch,
    merge_partials,
    partial_of,
)
from repro.service import CampaignStateDB, DurableCampaignRunner, statedb
from repro.workload import parse_workload

#: skeletons whose operation sets collide (link/rename in either order), so
#: known-bug signatures span groups
WORKLOADS = [parse_workload(text, name=f"w{index}") for index, text in enumerate((
    "creat foo\nfsync foo",
    "creat foo\nlink foo bar\nrename bar baz\nsync",
    "creat foo\nrename foo bar\nlink bar baz\nsync",
    "mkdir A\ncreat A/foo\nfsync A",
    "creat foo\nlink foo bar\nsync",
))]
CONSEQUENCES = ["persisted data lost", "persisted file missing", "file system unmountable"]

#: a result: its reports, each a (workload, consequence) choice
RESULTS = st.lists(st.lists(st.tuples(st.integers(0, len(WORKLOADS) - 1),
                                      st.integers(0, len(CONSEQUENCES) - 1)), max_size=3),
                   min_size=1, max_size=24)


def _result(reports) -> CrashTestResult:
    result = CrashTestResult(workload=WORKLOADS[0], fs_type="btrfs", fs_model="btrfs")
    for workload, consequence in reports:
        result.bug_reports.append(BugReport(
            workload=WORKLOADS[workload], fs_type="btrfs", fs_model="btrfs",
            checkpoint_id=0, crash_point="cp",
            mismatches=[Mismatch(check="content", consequence=CONSEQUENCES[consequence],
                                 path="/foo", expected="x", actual="")]))
    return result


def _chunked(results, cuts):
    """``results`` split at ``cuts``, each chunk's partial computed on its own."""
    bounds = [0, *sorted({cut % len(results) for cut in cuts} - {0}), len(results)]
    return [partial_of([(position, result) for position, result
                        in enumerate(results[start:end]) if not result.passed], index)
            for index, (start, end) in enumerate(zip(bounds, bounds[1:]))]


def _rows(groups):
    return [(group.skeleton, group.consequence, len(group), id(group.representative),
             [id(report) for report in group.reports]) for group in groups]


def _agree(merge, specs, cuts, known):
    """The merged partials of any chunking read as grouping every report."""
    results = [_result(reports) for reports in specs]
    failing = [result for result in results if not result.passed]
    merged = CampaignResult("btrfs", "btrfs", results=results, totals={},
                            failing_workloads=len(failing), failing_results=failing,
                            groups=merge(_chunked(results, cuts), {}))
    reports = [report for result in failing for report in result.bug_reports]
    assert _rows(merged.grouped_reports()) == _rows(group_reports(reports))
    assert list(merged.consequences().items()) == \
        list(Counter(report.consequence for report in reports).items())
    assert _rows(merged.unique_reports()) == _rows(deduplicate(reports))
    seeded = {(tuple(sorted(set(WORKLOADS[w].skeleton()))), CONSEQUENCES[c]) for w, c in known}
    ours, theirs = KnownBugDatabase(set(seeded)), KnownBugDatabase(set(seeded))
    assert _rows(merged.unique_reports(ours)) == _rows(deduplicate(reports, theirs))
    assert ours.entries == theirs.entries


KNOWN = st.lists(st.tuples(st.integers(0, len(WORKLOADS) - 1),
                           st.integers(0, len(CONSEQUENCES) - 1)), max_size=3)


@settings(max_examples=200, deadline=None)
@given(RESULTS, st.lists(st.integers(0, 64), max_size=6), KNOWN)
def test_any_chunking_merges_to_the_grouped_report(specs, cuts, known):
    _agree(merge_partials, specs, cuts, known)


def _latest_wins(parts, into):
    """A seeded wrong merge: the latest first position wins, not the earliest."""
    merged = into
    for part in parts:
        for key, (count, first, report) in part.items():
            entry = merged.get(key)
            if entry is None:
                merged[key] = [count, first, report]
            else:
                entry[0] += count
                if first > entry[1]:
                    entry[1], entry[2] = first, report
    return merged


def test_a_merge_that_keeps_the_latest_first_report_is_rejected():
    @settings(max_examples=200, deadline=None, database=None)
    @given(RESULTS, st.lists(st.integers(0, 64), max_size=6), KNOWN)
    def wrong(specs, cuts, known):
        _agree(_latest_wins, specs, cuts, known)

    with pytest.raises(AssertionError):
        wrong()


# ------------------------------------------------------------------ the store


def _seq1(processes: int = 1) -> CampaignConfig:
    # Exhaustive seq-1 on btrfs: 37 failing workloads in 3 groups.
    return CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(), chunk_size=16,
                          processes=processes)


@pytest.fixture(scope="module")
def pooled(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("groups") / "state.sqlite")
    runner = DurableCampaignRunner(_seq1(processes=2), path, campaign_id="seq1")
    try:
        runner.run()
    finally:
        runner.close()
    return path


def _decoded_rows(monkeypatch):
    rows = []
    from_row = CrashTestResult.from_row.__func__
    monkeypatch.setattr(CrashTestResult, "from_row", classmethod(
        lambda cls, row: rows.append(row) or from_row(cls, row)))
    return rows


def test_a_stored_report_decodes_one_row_per_group(pooled, monkeypatch):
    rows = _decoded_rows(monkeypatch)
    with CampaignStateDB.existing(pooled) as db:
        result = db.campaign_result("seq1")
    groups = result.grouped_reports()
    assert rows == []
    text = result.describe()
    assert 0 < len(rows) <= len(groups) < result.failing_workloads
    assert text.splitlines()[-len(groups):] == ["  " + group.describe() for group in groups]
    # group.reports still reads every report of the group, in stream order.
    assert sum(len(group.reports) for group in groups) == sum(len(group) for group in groups)


def test_a_store_stamped_2_gets_its_partials_once_on_open(pooled, tmp_path, monkeypatch):
    with CampaignStateDB.existing(pooled) as db:
        expected = db.campaign_result("seq1").describe()
        failing = db.status("seq1").failing_workloads
    path = str(tmp_path / "old.sqlite")
    with closing(sqlite3.connect(pooled)) as source, closing(sqlite3.connect(path)) as old:
        source.backup(old)
        old.execute("ALTER TABLE chunks DROP COLUMN groups")
        old.execute("PRAGMA user_version = 2")
        old.commit()
    rows = _decoded_rows(monkeypatch)
    with CampaignStateDB.existing(path) as db:
        assert len(rows) == failing  # each failing row, once: no passing one
        del rows[:]
        assert db.campaign_result("seq1").describe() == expected
        assert len(rows) <= expected.count("\n  [")
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA user_version").fetchone() == (statedb.SCHEMA_VERSION,)
        assert conn.execute("SELECT COUNT(*) FROM chunks WHERE groups IS NULL").fetchone() == (0,)
    with CampaignStateDB.existing(path) as db:
        assert db._conn.total_changes == 0  # the second open finds nothing to migrate
