"""A durable campaign's result is read from its state store, not held.

The engine hands each chunk's results to the store as it lands and keeps
only the chunk's record; the runner returns ``CampaignStateDB.campaign_result``,
whose ``results`` are read from the store on each pass, whose aggregates are
the chunks' roll-ups merged, and whose reports come from the failing rows
alone.  These tests pin that the parent holds no row and, since each chunk
arrives packed as row text, encodes or unpickles no result; and that the
stored result reads exactly as the plain in-memory run of the same
configuration.
"""

import gc
import json
import sqlite3
import sys
import tracemalloc
from contextlib import closing

import pytest

from repro.ace import seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.core.results import CampaignResult
from repro.crashmonkey import report
from repro.crashmonkey.report import CrashTestResult
from repro.engine import backends
from repro.engine.engine import family_chunks
from repro.service import CampaignStateDB, DurableCampaignRunner, statedb
from repro.service.statedb import StoredResults

from conftest import assert_reads_as_held, reopen_tail


def _config(**options) -> CampaignConfig:
    # A seq-2 slice with failing workloads, so reports are read back too.
    options = {"max_workloads": 40, **options}
    return CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(), sample=True,
                          chunk_size=4, **options)


@pytest.fixture(scope="module")
def in_memory():
    result = B3Campaign(_config()).run()
    assert result.failing_workloads > 0
    return result


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "pool"])
def stored(request, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("stored") / "state.sqlite")
    runner = DurableCampaignRunner(_config(processes=request.param), path,
                                   campaign_id="parity")
    try:
        result = runner.run()
    finally:
        runner.close()
    return result


# ------------------------------------------------------------------ the engine


def test_a_sink_owns_each_chunks_results():
    campaign = B3Campaign(_config())
    workloads = campaign.generate_workloads()
    events, sunk = [], []
    run = campaign.engine(events.append).run_indexed(
        enumerate(family_chunks(workloads, 4)), lambda outcome, _: sunk.append(outcome))
    # Each chunk reaches the sink packed: row text, roll-ups and partial, no result.
    assert all(outcome.results == [] for outcome in sunk)
    assert sum(len(outcome.rows) for outcome in sunk) == len(workloads)
    # The run keeps every chunk's record, and nothing else of it, in stream order.
    assert run.chunks == sorted((outcome.record for outcome in sunk),
                                key=lambda record: record.index)
    assert [record.workloads for record in run.chunks] == \
        [len(chunk) for chunk in family_chunks(workloads, 4)]
    # Progress still counts the session's workloads and failing workloads.
    failing = sum(outcome.record.failing_workloads for outcome in sunk)
    assert failing > 0
    assert (events[-1].workloads_done, events[-1].failing_workloads) == (len(workloads), failing)
    assert [event.workloads_done for event in events] == \
        sorted(event.workloads_done for event in events)


# ------------------------------------------------------------- the parent's work


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
def test_the_durable_parent_touches_no_passing_result(tmp_path, monkeypatch, processes):
    """Each chunk is packed by the code that ran it: the parent encodes and
    unpickles no result, and decodes only the failing rows reports are read from."""
    calls = {"encoded": 0, "encoded_by_chunks": 0, "unpickled": 0, "decoded": 0}
    running_a_chunk, old_rows = [], []
    to_dict, from_dict = CrashTestResult.to_dict, CrashTestResult.from_dict.__func__
    test_chunk, packed = backends._test_chunk, backends.ChunkOutcome.packed

    def counting_to_dict(self):
        calls["encoded_by_chunks" if running_a_chunk else "encoded"] += 1
        return to_dict(self)

    def counting_from_dict(cls, payload):
        calls["decoded"] += 1
        return from_dict(cls, payload)

    def unpickling(self, state):
        # A slotted instance pickles its state as ``(None, {slot: value})``.
        calls["unpickled"] += 1
        for name, value in state[1].items():
            setattr(self, name, value)

    def observed_test_chunk(*args):
        running_a_chunk.append(True)
        try:
            return test_chunk(*args)
        finally:
            running_a_chunk.pop()

    def observed_packed(self):
        # What the store wrote before rows were packed, for the same results.
        old_rows.extend(json.dumps(to_dict(test), separators=(",", ":"))
                        for test in self.results)
        return packed(self)

    monkeypatch.setattr(CrashTestResult, "to_dict", counting_to_dict)
    monkeypatch.setattr(CrashTestResult, "from_dict", classmethod(counting_from_dict))
    monkeypatch.setattr(CrashTestResult, "__setstate__", unpickling, raising=False)
    monkeypatch.setattr(backends, "_test_chunk", observed_test_chunk)
    monkeypatch.setattr(backends.ChunkOutcome, "packed", observed_packed)
    path = str(tmp_path / "state.sqlite")
    runner = DurableCampaignRunner(_config(processes=processes), path)
    try:
        result = runner.run()
    finally:
        runner.close()
    # A pool's workers do their own counting, out of the parent's sight.
    assert calls == {"encoded": 0, "encoded_by_chunks": 40 if processes == 1 else 0,
                     "unpickled": 0, "decoded": 0}
    # The groups are the chunks' partials merged: grouping decodes no row,
    # and the representatives one row each.
    groups = result.grouped_reports()
    assert groups and calls["decoded"] == 0
    assert all(group.representative.workload for group in groups)
    assert 0 < calls["decoded"] <= len(groups) <= result.failing_workloads

    with sqlite3.connect(path) as conn:
        rows = [text for (text,) in conn.execute(
            "SELECT result_json FROM results ORDER BY chunk_index, position")]
    conn.close()
    assert len(rows) == 40
    if processes == 1:
        assert rows == old_rows
    assert rows == [json.dumps(to_dict(CrashTestResult.from_row(text)), separators=(",", ":"))
                    for text in rows]


# --------------------------------------------------------------- the memory bound


#: the synthesizer's space index memoises what a sample walked through: that is
#: the campaign's generator, not its result
NOT_ACE = [tracemalloc.Filter(False, "*/repro/ace/*")]


def _owned_by_a_finished_runner(tmp_path, workloads: int):
    """Bytes a finished runner and its result hold (what dropping them frees),
    and the encoded size of the campaign's failing rows."""
    tracemalloc.start()
    try:
        runner = DurableCampaignRunner(_config(max_workloads=workloads),
                                       str(tmp_path / f"{workloads}.sqlite"))
        result = runner.run()
        runner.close()
        assert sum(1 for _ in result.results) == len(result.results) == workloads
        failing_bytes = sum(len(json.dumps(test.to_dict()))
                            for test in result.results.failing_only())
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(NOT_ACE)
        del runner, result
        gc.collect()
        freed = tracemalloc.take_snapshot().filter_traces(NOT_ACE)
    finally:
        tracemalloc.stop()
    return sum(stat.size_diff for stat in held.compare_to(freed, "filename")), failing_bytes


def test_a_finished_runner_holds_no_rows(tmp_path):
    """Four times the workloads, no more memory held: holding every result
    (about 3 KB each) would grow by far more than the failing rows alone."""
    small, _ = _owned_by_a_finished_runner(tmp_path, 40)
    large, failing_bytes = _owned_by_a_finished_runner(tmp_path, 160)
    assert failing_bytes > 0
    assert large - small < failing_bytes
    assert large < failing_bytes


# ---------------------------------------------------------------- parity


def test_a_stored_result_reads_as_the_plain_run(stored, in_memory):
    assert isinstance(stored.results, StoredResults)
    assert stored.canonical_dict() == in_memory.canonical_dict()
    assert [report.to_dict() for report in stored.all_reports()] == \
        [report.to_dict() for report in in_memory.all_reports()]
    for aggregate, name in CrashTestResult.AGGREGATES.items():
        if name not in CrashTestResult.SESSION_FIELDS:
            assert getattr(stored, aggregate) == getattr(in_memory, aggregate), aggregate
    # Session counters and timings are this run's own: compare them with the
    # same rows held in memory.
    assert_reads_as_held(stored)


def test_describing_a_stored_result_decodes_no_passing_row(stored, monkeypatch):
    decoded = []
    from_dict = CrashTestResult.from_dict.__func__

    def counting(cls, payload):
        decoded.append(payload)
        return from_dict(cls, payload)

    monkeypatch.setattr(CrashTestResult, "from_dict", classmethod(counting))
    with CampaignStateDB.existing(stored.results.path) as db:
        fresh = db.campaign_result("parity")
    text = fresh.describe()
    assert "report groups:" in text
    # One row per group, for its representative: no other failing row either,
    # and a representative read once is held.
    assert 0 < len(decoded) <= len(fresh.grouped_reports()) <= stored.failing_workloads
    assert all(payload["bug_reports"] for payload in decoded)
    assert fresh.describe() == text == stored.describe()
    assert len(decoded) <= len(fresh.grouped_reports())
    decoded.clear()
    assert stored.workloads_tested == 40 and stored.scenarios_tested > 0
    assert decoded == []


# ------------------------------------------------------------ one CampaignResult


def _spy(monkeypatch, function):
    """Count calls of ``function`` from every ``repro`` module that imported it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, function.__name__, None) is function):
            monkeypatch.setattr(module, function.__name__, spy)
    return calls


def test_a_stored_result_is_a_plain_campaign_result(stored):
    with CampaignStateDB.existing(stored.results.path) as db:
        assert type(db.campaign_result("parity")) is CampaignResult
    assert type(stored) is CampaignResult


def test_reading_every_aggregate_rolls_up_no_result(stored, in_memory, monkeypatch):
    calls = _spy(monkeypatch, report.roll_up)
    for result in (in_memory, stored):
        for aggregate in CrashTestResult.AGGREGATES:
            getattr(result, aggregate)
        result.roll_ups(), result.failing_workloads, result.mounted_scenarios
        result.phase_seconds(), result.mean_test_seconds(), result.recording_seconds_saved()
    assert calls == []
    # A result built from bare results computes its totals, once, there.
    CampaignResult("btrfs", "btrfs", results=list(in_memory.results))
    assert len(calls) == len(CrashTestResult.AGGREGATES)


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "pool"])
def test_a_plain_run_rolls_up_each_chunk_where_it_ran(monkeypatch, processes):
    """The serial backend runs its chunks in the parent, a pool in its workers:
    the parent rolls up results only for the chunks it ran itself."""
    calls = _spy(monkeypatch, report.roll_ups_of)
    campaign = B3Campaign(_config(processes=processes))
    result = campaign.run()
    assert len(campaign.last_run.chunks) > 1 and result.failing_workloads > 0
    assert len(calls) == (len(campaign.last_run.chunks) if processes == 1 else 0)
    # The chunks' totals merged: a float sum agrees with the flat one up to rounding.
    assert result.roll_ups() == pytest.approx(report.roll_ups_of(result.results))


# ------------------------------------------------------- the store-backed sequence


def test_stored_results_read_in_stream_order_and_outlive_the_runner(stored, in_memory):
    # ``stored``'s runner is closed: every pass reopens the store by path.
    names = [test.workload.name for test in in_memory.results]
    results = stored.results
    assert len(results) == len(names)
    assert [test.workload.name for test in results] == names
    assert (results[0].workload.name, results[-1].workload.name) == (names[0], names[-1])
    with pytest.raises(IndexError):
        results[len(names)]
    failing = results.failing_only()
    assert [test.workload.name for test in failing] == \
        [test.workload.name for test in in_memory.results if not test.passed]
    assert len(failing) == stored.failing_workloads
    # Nothing is cached: each pass decodes afresh, and the sequence is read-only.
    assert next(iter(results)) is not next(iter(results))
    with pytest.raises(TypeError):
        del results[0]


# ------------------------------------------------------------ the failing flag


def _flags(path: str):
    """Each stored row's ``failing`` flag, and whether its text holds bug reports."""
    with closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT failing, json_array_length(result_json, '$.bug_reports') > 0 "
            "FROM results ORDER BY campaign_id, chunk_index, position").fetchall()


def _traced_statements(monkeypatch):
    """Every statement the store's connections run from now on, parameters bound."""
    statements, connect = [], statedb._connect

    def tracing(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(statedb, "_connect", tracing)
    return statements


def test_failing_only_decodes_exactly_the_flagged_rows(stored, monkeypatch):
    flags = _flags(stored.results.path)
    assert all(failing == has_reports for failing, has_reports in flags)
    assert sum(failing for failing, _ in flags) == stored.failing_workloads > 0
    decoded = []
    from_dict = CrashTestResult.from_dict.__func__

    def counting(cls, payload):
        decoded.append(payload)
        return from_dict(cls, payload)

    monkeypatch.setattr(CrashTestResult, "from_dict", classmethod(counting))
    failing = list(stored.results.failing_only())
    assert len(decoded) == len(failing) == stored.failing_workloads
    assert all(not test.passed for test in failing)


def test_the_failing_read_is_served_by_its_partial_index(stored, monkeypatch):
    statements = _traced_statements(monkeypatch)
    failing = stored.results.failing_only()
    assert len(failing) == len(list(failing)) == stored.failing_workloads
    reads = {sql for sql in statements if sql.startswith("SELECT")}
    assert len(reads) == 2  # the count and the rows
    with closing(sqlite3.connect(stored.results.path)) as conn:
        for sql in reads:
            plan = " | ".join(row[-1] for row in conn.execute(f"EXPLAIN QUERY PLAN {sql}"))
            # One search of the index, which also gives the stream order: no
            # scan of the table and no sort.
            assert "USING INDEX results_failing (campaign_id=?)" in plan, (sql, plan)
            assert "|" not in plan and "SCAN" not in plan and "B-TREE" not in plan, (sql, plan)


def test_a_store_from_before_the_failing_column_reads_back_the_same(tmp_path, in_memory,
                                                                     monkeypatch):
    """An older store's rows get their flags once, from their own reports, when
    a session opens it; the chunks that session ingests are flagged at ingest."""
    path = str(tmp_path / "state.sqlite")
    runner = DurableCampaignRunner(_config(), path, campaign_id="old")
    try:
        runner.run()
    finally:
        runner.close()
    reopen_tail(path, "old", 5)
    with closing(sqlite3.connect(path)) as conn, conn:
        conn.execute("DROP INDEX results_failing")
        conn.execute("ALTER TABLE results DROP COLUMN failing")
        conn.execute("PRAGMA user_version = 0")  # written before the stamp, too
    runner = DurableCampaignRunner.from_db(path, "old")
    try:
        resumed = runner.run()
    finally:
        runner.close()
    assert resumed.canonical_dict() == in_memory.canonical_dict()
    assert [report.to_dict() for report in resumed.all_reports()] == \
        [report.to_dict() for report in in_memory.all_reports()]
    assert_reads_as_held(resumed)
    flags = _flags(path)
    assert len(flags) == 40 and all(failing == has_reports for failing, has_reports in flags)
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA user_version").fetchone() == (statedb.SCHEMA_VERSION,)
    # The backfill ran once: opening the store again writes no flag.
    statements = _traced_statements(monkeypatch)
    CampaignStateDB.existing(path).close()
    assert statements and not any("UPDATE results" in sql for sql in statements)


def test_a_missing_store_is_not_created_by_a_read(tmp_path):
    path = tmp_path / "gone.sqlite"
    with pytest.raises(sqlite3.OperationalError):
        len(StoredResults(str(path), "c1"))
    assert not path.exists()


def test_a_memory_store_is_refused():
    with pytest.raises(ValueError, match="on disk"):
        DurableCampaignRunner(_config(), ":memory:")
    with CampaignStateDB(":memory:") as db:
        with pytest.raises(ValueError, match="on disk"):
            DurableCampaignRunner(_config(), db)
