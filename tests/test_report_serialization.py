"""JSON round-trips for reports and results (the state store's wire format)."""

import dataclasses
import gc
import json
import pickle
import tracemalloc

import pytest

from repro.ace import AceSynthesizer, seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.crashmonkey.report import (
    SESSION, BugReport, CrashTestResult, Mismatch, counted, counter, roll_up, roll_ups_of,
)
from repro.workload import parse_workload

from conftest import run_workload_text

FIGURE1 = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n"


def _failing_result() -> CrashTestResult:
    result = run_workload_text("btrfs", FIGURE1)
    assert result.bug_reports, "figure-1 workload must reproduce on buggy btrfs"
    return result


def test_scalar_fields_match_the_dataclass():
    # Every dataclass field is either structured (handled explicitly by
    # to_dict) or a declared counter — the codec's scalar keys are derived
    # from the declarations, so nothing can be a field and miss the store
    # (tests/test_telemetry.py pins the declarations themselves).
    structured = {"workload", "fs_type", "fs_model", "bug_reports", "check_timings"}
    declared = {f.name for f in dataclasses.fields(CrashTestResult)} - structured
    assert set(CrashTestResult.COUNTERS) == declared
    assert set(run_workload_text("btrfs", "creat foo\nfsync foo\n").to_dict()) == (
        declared | structured)


def test_session_fields_are_scalar_fields():
    assert set(CrashTestResult.SESSION_FIELDS) < set(CrashTestResult.COUNTERS)
    assert set(CrashTestResult.SESSION_FIELDS) == {
        f.name for f in dataclasses.fields(CrashTestResult)
        if f.metadata.get("tag") == "session"}


def test_mismatch_round_trip():
    result = _failing_result()
    mismatch = result.bug_reports[0].mismatches[0]
    clone = Mismatch.from_dict(json.loads(json.dumps(mismatch.to_dict())))
    assert clone == mismatch


def test_bug_report_round_trip():
    report = _failing_result().bug_reports[0]
    clone = BugReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert clone.to_dict() == report.to_dict()
    assert clone.workload.prefix_key() == report.workload.prefix_key()
    assert clone.consequence == report.consequence
    assert clone.describe() == report.describe()


def test_crash_test_result_round_trip_is_exact():
    result = _failing_result()
    clone = CrashTestResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone.to_dict() == result.to_dict()
    assert clone.passed == result.passed
    assert clone.consequences() == result.consequences()
    assert clone.check_timings == result.check_timings


def test_crash_test_result_round_trip_of_a_passing_result():
    result = run_workload_text("btrfs", "creat foo\nfsync foo\n")
    assert result.passed
    clone = CrashTestResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone.to_dict() == result.to_dict()


def test_a_stored_row_is_the_compact_json_of_to_dict():
    for result in (_failing_result(), run_workload_text("btrfs", "creat foo\nfsync foo\n")):
        row = result.to_row()
        assert row == json.dumps(result.to_dict(), separators=(",", ":"))
        assert CrashTestResult.from_row(row).to_row() == row


def test_canonical_dict_drops_session_telemetry():
    result = _failing_result()
    canonical = result.canonical_dict()
    for name in CrashTestResult.SESSION_FIELDS:
        assert name not in canonical
    assert "check_timings" not in canonical
    # What was tested stays.
    assert canonical["scenarios_tested"] == result.scenarios_tested
    assert len(canonical["bug_reports"]) == len(result.bug_reports)


# ------------------------------------------------------------------ footprint

#: bytes a held tested result may own, its workload aside.  Slotted, a seq-2
#: result owns ~1.1 KiB, its reports and timings included; with an instance
#: dict of its own (38 attributes, past what CPython shares a dict's keys
#: for) it owned ~2.4 KiB.
HELD_RESULT_BYTES = 1536


@counted
class WithMountRetries(CrashTestResult):
    mount_retries: int = counter("mount retries (a counter a subclass adds)", tag=SESSION)


def test_records_carry_no_instance_dict():
    result = _failing_result()
    report = result.bug_reports[0]
    for record in (result, report, report.mismatches[0]):
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(AttributeError):
        result.undeclared = 1


def test_a_counted_subclass_stays_slotted_and_round_trips():
    base = _failing_result()
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(CrashTestResult)}
    results = [WithMountRetries(**fields, mount_retries=retries) for retries in (2, 5)]
    assert not hasattr(results[0], "__dict__")
    assert WithMountRetries.COUNTERS == (*CrashTestResult.COUNTERS, "mount_retries")
    assert "mount_retries" not in CrashTestResult.COUNTERS
    for result in results:
        row = result.to_row()
        assert json.loads(row)["mount_retries"] == result.mount_retries
        clone = WithMountRetries.from_row(row)
        assert type(clone) is WithMountRetries and clone.to_row() == row
        pickled = pickle.loads(pickle.dumps(result))
        assert type(pickled) is WithMountRetries and pickled.to_row() == row
        assert "mount_retries" not in result.canonical_dict()
    assert roll_up(results, "mount_retries") == 7
    assert roll_ups_of(results)["mount_retries"] == 7


def test_a_held_result_costs_under_its_bound():
    """What holding 200 tested results costs, their workloads held elsewhere."""
    tracemalloc.start()
    try:
        config = CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(), sample=True,
                                max_workloads=200)
        results = B3Campaign(config).run().results
        workloads = [result.workload for result in results]
        assert len(results) == 200 and not all(result.passed for result in results)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del results
        gc.collect()
        freed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(workloads) == 200
    assert (held - freed) / 200 < HELD_RESULT_BYTES


@pytest.fixture(scope="module")
def campaign_result():
    config = CampaignConfig(fs_name="btrfs", bounds=seq2_bounds(),
                            max_workloads=20, sample=True, chunk_size=8)
    return B3Campaign(config).run()


def test_campaign_result_round_trip(campaign_result):
    from repro.core.results import CampaignResult

    payload = json.loads(json.dumps(campaign_result.to_dict()))
    clone = CampaignResult.from_dict(payload)
    assert clone.to_dict() == campaign_result.to_dict()
    assert clone.describe() == campaign_result.describe()
    # The derived block is advisory: from_dict recomputes it from results.
    payload["derived"]["failing_workloads"] = 10 ** 6
    assert (CampaignResult.from_dict(payload).failing_workloads
            == campaign_result.failing_workloads)


def test_campaign_canonical_dict_is_timing_free(campaign_result):
    canonical = json.dumps(campaign_result.canonical_dict())
    assert "seconds" not in canonical
    assert "prefix_shared" not in canonical


def test_workload_survives_the_round_trip(campaign_result):
    # The workload inside each result must stay replayable: same identity
    # keys and the same rendered program.
    from repro.core.results import CampaignResult

    clone = CampaignResult.from_dict(json.loads(json.dumps(campaign_result.to_dict())))
    for original, copied in zip(campaign_result.results, clone.results):
        assert copied.workload.prefix_key() == original.workload.prefix_key()
        assert copied.workload.family_key() == original.workload.family_key()


def test_generated_workload_to_json_round_trip():
    from repro.workload.workload import Workload

    workload = next(iter(AceSynthesizer(seq2_bounds()).generate(limit=1)))
    clone = Workload.from_json(json.loads(json.dumps(workload.to_json())))
    assert clone.prefix_key() == workload.prefix_key()


def test_parsed_workload_to_json_round_trip():
    from repro.workload.workload import Workload

    workload = parse_workload(FIGURE1, name="figure1")
    clone = Workload.from_json(workload.to_json())
    assert clone.prefix_key() == workload.prefix_key()
