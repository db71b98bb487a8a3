"""A durable campaign's result is read from its state store, not held.

The engine hands each chunk's results to the store as it lands and keeps
only the chunk's stats; the runner returns ``CampaignStateDB.campaign_result``,
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
import tracemalloc

import pytest

from repro.ace import seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.crashmonkey.report import CrashTestResult
from repro.engine import backends
from repro.engine.engine import family_chunks
from repro.service import CampaignStateDB, DurableCampaignRunner
from repro.service.statedb import StoredResults

from conftest import assert_reads_as_held


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
        enumerate(family_chunks(workloads, 4)), on_outcome=sunk.append)
    assert run.result.results == []
    # Each chunk reaches the sink packed: row text and stats, no result.
    assert all(outcome.results == [] for outcome in sunk)
    assert sum(len(outcome.rows) for outcome in sunk) == len(workloads)
    # The run keeps every chunk's stats, in stream order.
    assert [stats.index for stats in run.chunks] == sorted(outcome.index for outcome in sunk)
    assert [stats.workloads for stats in run.chunks] == \
        [len(chunk) for chunk in family_chunks(workloads, 4)]
    # Progress still counts the session's workloads and failing workloads.
    failing = sum(outcome.failing_workloads for outcome in sunk)
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
        calls["unpickled"] += 1
        self.__dict__.update(state)

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
    assert result.grouped_reports()
    assert calls["decoded"] == result.failing_workloads > 0

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
    text = stored.describe()
    assert "report groups:" in text
    assert len(decoded) == stored.failing_workloads > 0
    assert all(payload["bug_reports"] for payload in decoded)
    decoded.clear()
    assert stored.workloads_tested == 40 and stored.scenarios_tested > 0
    assert decoded == []


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
