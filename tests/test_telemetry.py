"""The counter registry: one declaration per counter, everything else derived.

These tests are the registry's way to fail: literal goldens copied from the
commit before the registry existed pin the wire format, an independent table
of hand-written aggregates pins every roll-up, and a throwaway subclass
proves that adding a counter is one field.
"""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.ace import seq1_bounds
from repro.core import results as results_module
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.core.results import CampaignResult
from repro.crashmonkey import CrashMonkey, CrashStateGenerator, MechanismPlanner, WorkloadProfile
from repro.crashmonkey.report import (
    CANONICAL,
    COUNT,
    GENERATOR,
    MAX,
    PLAN,
    PROFILE,
    SESSION,
    SUM,
    CrashTestResult,
    counted,
    counter,
    roll_up,
)
from repro.engine import CampaignEngine, ChunkOutcome, ChunkStats
from repro.options import HarnessSpec
from repro.workload import parse_workload

import differential
from differential import ALL_FS

#: what was tested on what, and the structured payloads: the only fields
#: that are not counters
STRUCTURED = {"workload", "fs_type", "fs_model", "bug_reports", "check_timings"}

# ---------------------------------------------------------------- goldens
# Copied from the parent commit (PR 17), where they were hand-written
# literals.  The derivation must reproduce them exactly.

TO_DICT_KEYS = {
    "audit_demotions", "bug_reports", "check_seconds", "check_timings",
    "checkpoints_tested", "crash_state_overlay_bytes", "cross_deduped_scenarios",
    "deduped_scenarios", "executed_ops", "fs_model", "fs_type", "fsck_seconds",
    "inherited_verdicts", "mechanism_checkpoints", "mechanism_demoted_checkpoints",
    "mechanism_fallback_checkpoints", "memoized_scenarios", "mount_seconds",
    "prefix_ops_reused", "prefix_seconds_saved", "prefix_shared",
    "prefix_writes_reused", "profile_seconds", "recorded_bytes", "recorded_requests",
    "replay_seconds", "replay_seconds_saved", "replay_shared", "replay_writes_reused",
    "replayed_write_requests", "scenarios_tested", "skipped_ops",
    "spine_peak_resident_bytes", "spine_rehydrations", "spine_resident_bytes",
    "spine_spilled_bytes", "spine_spills", "workload",
}

SESSION_KEYS = {
    "check_seconds", "fsck_seconds", "inherited_verdicts", "mount_seconds",
    "prefix_ops_reused", "prefix_seconds_saved", "prefix_shared",
    "prefix_writes_reused", "profile_seconds", "replay_seconds",
    "replay_seconds_saved", "replay_shared", "replay_writes_reused",
    "replayed_write_requests", "spine_peak_resident_bytes", "spine_rehydrations",
    "spine_resident_bytes", "spine_spilled_bytes", "spine_spills",
}

DERIVED_KEYS = [
    "workloads_tested", "crash_points_tested", "failing_workloads", "raw_reports",
    "report_groups", "deduped_scenarios", "cross_deduped_scenarios",
    "memoized_scenarios", "inherited_verdicts", "prefix_hits", "replay_hits",
]
CANONICAL_DERIVED_KEYS = DERIVED_KEYS[:8]

#: a ``results.result_json`` row as the parent commit wrote it, every one of
#: the 35 scalars at a non-default value
PARENT_RESULT_JSON = """
{"audit_demotions": 30, "bug_reports": [{"checkpoint_id": 2, "crash_point": "fsync(bar)",
"fs_model": "btrfs", "fs_type": "logfs", "kernel_version": "4.16", "mismatches": [{"actual":
"mount failed: log replay: stale removal record for 'bar' (entry already removed); fsck:
 repaired", "check": "mount", "consequence": "unmountable file system", "expected": "file
 system mounts and recovers after the crash", "path": "", "scenario": "prefix"}], "notes": "",
"scenario": "prefix", "workload": {"name": "figure1", "ops": [{"args": ["foo"], "dependency":
false, "kwargs": {}, "op": "creat"}, {"args": ["bar"], "dependency": false, "kwargs": {},
"op": "fsync"}], "seq_length": null, "source": "language"}}], "check_seconds": 13.5,
"check_timings": {"mount": 0.125, "read": 0.25}, "checkpoints_tested": 3,
"crash_state_overlay_bytes": 17, "cross_deduped_scenarios": 6, "deduped_scenarios": 5,
"executed_ops": 18, "fs_model": "btrfs", "fs_type": "logfs", "fsck_seconds": 12.5,
"inherited_verdicts": 8, "mechanism_checkpoints": 27, "mechanism_demoted_checkpoints": 29,
"mechanism_fallback_checkpoints": 28, "memoized_scenarios": 7, "mount_seconds": 11.5,
"prefix_ops_reused": 21, "prefix_seconds_saved": 23.5, "prefix_shared": true,
"prefix_writes_reused": 22, "profile_seconds": 9.5, "recorded_bytes": 16,
"recorded_requests": 15, "replay_seconds": 10.5, "replay_seconds_saved": 26.5,
"replay_shared": true, "replay_writes_reused": 25, "replayed_write_requests": 14,
"scenarios_tested": 4, "skipped_ops": 19, "spine_peak_resident_bytes": 32,
"spine_rehydrations": 35, "spine_resident_bytes": 31, "spine_spilled_bytes": 33,
"spine_spills": 34, "workload": {"name": "figure1", "ops": [{"args": ["foo"], "dependency":
false, "kwargs": {}, "op": "creat"}, {"args": ["bar"], "dependency": false, "kwargs": {},
"op": "fsync"}], "seq_length": null, "source": "language"}}
""".replace("\n", "")


def count_true(values):
    return sum(1 for value in values if value)


def highest(values):
    return max(values, default=0)


#: aggregate name -> (counter, hand-written aggregation), spelt out here so
#: the roll-ups are compared against something the declarations cannot move
HAND_ROLL_UPS = {
    "crash_points_tested": ("checkpoints_tested", sum),
    "scenarios_tested": ("scenarios_tested", sum),
    "deduped_scenarios": ("deduped_scenarios", sum),
    "cross_deduped_scenarios": ("cross_deduped_scenarios", sum),
    "memoized_scenarios": ("memoized_scenarios", sum),
    "inherited_verdicts": ("inherited_verdicts", sum),
    "profile_seconds": ("profile_seconds", sum),
    "replay_seconds": ("replay_seconds", sum),
    "mount_seconds": ("mount_seconds", sum),
    "fsck_seconds": ("fsck_seconds", sum),
    "check_seconds": ("check_seconds", sum),
    "replayed_write_requests": ("replayed_write_requests", sum),
    "recorded_requests": ("recorded_requests", sum),
    "recorded_bytes": ("recorded_bytes", sum),
    "crash_state_overlay_bytes": ("crash_state_overlay_bytes", highest),
    "executed_ops": ("executed_ops", sum),
    "skipped_ops": ("skipped_ops", sum),
    "prefix_hits": ("prefix_shared", count_true),
    "prefix_ops_reused": ("prefix_ops_reused", sum),
    "prefix_writes_reused": ("prefix_writes_reused", sum),
    "prefix_seconds_saved": ("prefix_seconds_saved", sum),
    "replay_hits": ("replay_shared", count_true),
    "replay_writes_reused": ("replay_writes_reused", sum),
    "replay_seconds_saved": ("replay_seconds_saved", sum),
    "mechanism_checkpoints": ("mechanism_checkpoints", sum),
    "mechanism_fallback_checkpoints": ("mechanism_fallback_checkpoints", sum),
    "mechanism_demoted_checkpoints": ("mechanism_demoted_checkpoints", sum),
    "audit_demotions": ("audit_demotions", sum),
    "spine_resident_bytes": ("spine_resident_bytes", highest),
    "spine_peak_resident_bytes": ("spine_peak_resident_bytes", highest),
    "spine_spilled_bytes": ("spine_spilled_bytes", sum),
    "spine_spills": ("spine_spills", sum),
    "spine_rehydrations": ("spine_rehydrations", sum),
}

FIGURE1 = parse_workload(
    "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar\n", name="figure1")


# ------------------------------------------------------------ (i) declarations


def test_every_scalar_field_is_a_declared_counter():
    declared = {f.name: f for f in dataclasses.fields(CrashTestResult)}
    assert set(declared) - STRUCTURED == set(CrashTestResult.COUNTERS)
    for name in CrashTestResult.COUNTERS:
        meta = declared[name].metadata
        assert meta["tag"] in (CANONICAL, SESSION), name
        assert meta["rollup"] in (SUM, MAX, COUNT), name
        assert meta["help"].strip(), name
        assert meta["source"] in (None, PROFILE, GENERATOR, PLAN), name
    for name in STRUCTURED:
        assert not declared[name].metadata, name


def test_a_declaration_without_help_or_with_an_unknown_rule_is_refused():
    with pytest.raises(ValueError):
        counter("")
    with pytest.raises(ValueError):
        counter("x", tag="sometimes")
    with pytest.raises(ValueError):
        counter("x", rollup="median")


def test_gathered_counters_exist_on_their_producers():
    # A renamed producer attribute must fail here, not read as a silent zero.
    gathered = CrashTestResult.GATHERED
    assert set(gathered[PROFILE]) <= {f.name for f in dataclasses.fields(WorkloadProfile)}
    profile = CrashMonkey("btrfs", device_blocks=4096).profile(FIGURE1)
    generator = vars(CrashStateGenerator(profile))
    assert set(gathered[GENERATOR]) <= set(generator)
    # The mechanism plan is the one plan that keeps counters.
    assert set(gathered[PLAN]) <= set(vars(MechanismPlanner().for_profile(profile)))
    assert set(gathered[PLAN]) == {
        "mechanism_checkpoints", "mechanism_fallback_checkpoints",
        "mechanism_demoted_checkpoints", "audit_demotions"}
    sources = [set(gathered[source]) for source in (PROFILE, GENERATOR, PLAN)]
    assert sum(map(len, sources)) == len(set.union(*sources))


# ------------------------------------------------------------------ (ii) goldens


def test_the_wire_format_is_the_parent_commits():
    result = CrashMonkey("btrfs", device_blocks=4096).test_workload(FIGURE1)
    assert set(result.to_dict()) == TO_DICT_KEYS
    assert set(CrashTestResult.SESSION_FIELDS) == SESSION_KEYS
    assert set(result.canonical_dict()) == TO_DICT_KEYS - SESSION_KEYS - {"check_timings"}
    campaign = CampaignResult("logfs", "btrfs", results=[result])
    assert list(campaign.to_dict()["derived"]) == DERIVED_KEYS
    assert list(campaign.canonical_dict()["derived"]) == CANONICAL_DERIVED_KEYS
    assert set(campaign.to_dict()) == {
        "derived", "fs_model", "fs_name", "generation_seconds", "invalid_workloads",
        "label", "results", "testing_seconds"}
    assert set(campaign.canonical_dict()) == {
        "derived", "fs_model", "fs_name", "invalid_workloads", "label", "results"}


def test_the_aggregate_names_are_the_historical_ones():
    assert set(CrashTestResult.AGGREGATES) == set(HAND_ROLL_UPS)
    assert CrashTestResult.AGGREGATES == {
        aggregate: name for aggregate, (name, _) in HAND_ROLL_UPS.items()}


# ----------------------------------------------------- (iii) parent-era payloads


def test_a_parent_era_result_row_round_trips():
    payload = json.loads(PARENT_RESULT_JSON)
    assert set(payload) == TO_DICT_KEYS
    result = CrashTestResult.from_dict(payload)
    assert result.to_dict() == payload
    assert result.spine_rehydrations == 35 and result.prefix_shared is True
    assert result.total_seconds == 9.5 + 10.5 + 11.5 + 12.5 + 13.5


def test_a_counter_the_payload_predates_loads_as_its_default():
    payload = json.loads(PARENT_RESULT_JSON)
    for name in ("memoized_scenarios", "inherited_verdicts", "replay_seconds_saved",
                 "prefix_shared"):
        del payload[name]
    result = CrashTestResult.from_dict(payload)
    assert (result.memoized_scenarios, result.inherited_verdicts) == (0, 0)
    assert result.replay_seconds_saved == 0.0 and result.prefix_shared is False
    assert set(result.to_dict()) == TO_DICT_KEYS


# ------------------------------------------------------------- (iv) equivalence


@pytest.fixture(scope="module", params=[
    (fs_name, processes)
    for fs_name in ALL_FS for processes in (1, 2)
], ids=lambda param: f"{param[0]}-j{param[1]}")
def seq1_run(request):
    fs_name, processes = request.param
    campaign = B3Campaign(CampaignConfig(fs_name=fs_name, bounds=seq1_bounds(),
                                         processes=processes, chunk_size=64))
    result = campaign.run()
    return result, campaign.last_run.chunks


def test_every_aggregate_equals_its_hand_written_sum(seq1_run):
    campaign, chunks = seq1_run
    assert campaign.workloads_tested > 400 and len(chunks) > 4
    totals = campaign.roll_ups()
    for aggregate, (name, by_hand) in HAND_ROLL_UPS.items():
        expected = by_hand([getattr(result, name) for result in campaign.results])
        assert getattr(campaign, aggregate) == expected, aggregate
        assert roll_up(campaign.results, name) == expected, aggregate
        assert totals[aggregate] == expected, aggregate
        # Chunks partition the campaign: their aggregates combine to its own.
        per_chunk = [getattr(stats, aggregate) for stats in chunks]
        combined = max(per_chunk) if by_hand is highest else sum(per_chunk)
        assert combined == pytest.approx(expected), aggregate
    assert campaign.failing_workloads == sum(1 for r in campaign.results if r.bug_reports)
    assert campaign.failing_workloads == sum(stats.failing_workloads for stats in chunks)
    assert campaign.phase_seconds() == tuple(
        sum(getattr(result, name) for result in campaign.results)
        for name in ("profile_seconds", "replay_seconds", "mount_seconds",
                     "fsck_seconds", "check_seconds"))
    assert campaign.recording_seconds_saved() == campaign.prefix_seconds_saved
    assert campaign.mounted_scenarios == (
        campaign.scenarios_tested - campaign.memoized_scenarios - campaign.inherited_verdicts)


def test_an_empty_holder_rolls_up_to_zero():
    empty = CampaignResult("logfs", "btrfs")
    assert set(empty.roll_ups().values()) == {0}
    assert empty.prefix_hits == 0 and empty.spine_peak_resident_bytes == 0
    assert empty.phase_seconds() == (0, 0, 0, 0, 0)


# ----------------------------------------------- (v) the one-line-diff property


@counted
class WithRetries(CrashTestResult):
    retries: int = counter("mount retries (a counter added in one line)", tag=SESSION)


@counted
class WithDeepest(CrashTestResult):
    deepest_window: int = counter("largest in-flight window seen", rollup=MAX)


def test_adding_a_counter_is_one_field():
    def results(cls, name, values):
        return [cls(workload=FIGURE1, fs_type="logfs", fs_model="btrfs", **{name: value})
                for value in values]

    session = results(WithRetries, "retries", (2, 0, 5))
    assert session[0].to_dict()["retries"] == 2
    assert "retries" not in session[0].canonical_dict()
    assert WithRetries.from_dict(session[2].to_dict()).retries == 5
    assert CampaignResult("logfs", "btrfs", results=session).retries == 7
    outcome = ChunkOutcome(index=0, results=session, seconds=0.1)
    assert outcome.retries == 7 and outcome.stats().retries == 7
    assert roll_up(session, "retries") == 7

    canonical = results(WithDeepest, "deepest_window", (3, 9, 4))
    assert canonical[1].canonical_dict()["deepest_window"] == 9
    assert CampaignResult("logfs", "btrfs", results=canonical).deepest_window == 9
    assert ChunkOutcome(index=0, results=canonical, seconds=0.1).stats().deepest_window == 9
    # The parent class is untouched by its subclasses' declarations.
    assert "retries" not in CrashTestResult.COUNTERS
    assert not hasattr(CampaignResult("logfs", "btrfs"), "retries")


# -------------------------------------------------------- (vi) pickle and copies


def test_roll_ups_survive_pickling_and_deep_copies(seq1_run):
    campaign, chunks = seq1_run
    outcome = ChunkOutcome(index=3, results=campaign.results[:40], seconds=0.5,
                           worker="pid-1")
    for clone in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome)):
        assert clone.roll_ups() == outcome.roll_ups()
        assert clone.prefix_hits == outcome.prefix_hits > 0
        assert clone.stats() == outcome.stats()
    stats = pickle.loads(pickle.dumps(chunks[0]))
    assert stats == chunks[0] and stats.prefix_hits == chunks[0].prefix_hits
    duplicate = copy.deepcopy(campaign)
    assert duplicate.to_dict() == campaign.to_dict()
    assert duplicate.crash_points_tested == campaign.crash_points_tested > 0


def test_an_unknown_attribute_is_still_an_attribute_error():
    campaign = CampaignResult("logfs", "btrfs")
    outcome = ChunkOutcome(index=0, results=[], seconds=0.0)
    for holder in (campaign, outcome, outcome.stats()):
        assert not hasattr(holder, "no_such_counter")
        with pytest.raises(AttributeError, match="no_such_counter"):
            holder.no_such_counter
    # The per-workload flag is not an aggregate: only its declared name is.
    assert not hasattr(campaign, "prefix_shared") and not hasattr(campaign, "checkpoints_tested")
    # A holder that never got its fields (what unpickling starts from) must not recurse.
    assert not hasattr(ChunkStats.__new__(ChunkStats), "prefix_hits")
    assert not hasattr(CampaignResult.__new__(CampaignResult), "prefix_hits")


# ------------------------------------------ the aggregations the roll-up exposed


def test_progress_events_do_not_rescan_the_campaign(monkeypatch):
    from repro.ace import AceSynthesizer, seq2_bounds

    calls = []
    passed = CrashTestResult.passed
    monkeypatch.setattr(CrashTestResult, "passed", property(
        lambda self: calls.append(1) or passed.fget(self)))
    workloads = list(AceSynthesizer(seq2_bounds()).stream(limit=48))
    events = []
    engine = CampaignEngine(HarnessSpec(fs_name="btrfs", device_blocks=4096),
                            progress=events.append)
    run = engine.run_indexed(enumerate([workload] for workload in workloads))
    assert len(events) == len(workloads) >= 20
    assert [event.failing_workloads for event in events][-1] == run.result.failing_workloads
    tallies = [event.failing_workloads for event in events]
    assert tallies == sorted(tallies)
    # One look per result (when its chunk is summarised), not one per result per event.
    assert len(calls) <= 2 * len(workloads)


def test_a_resumed_tally_starts_from_the_offset():
    events = []
    campaign = B3Campaign(CampaignConfig(fs_name="btrfs", device_blocks=4096))
    progress = campaign.track_progress(events.append, done=(3, 40, 5), census=(9, 100))
    campaign.engine(progress).run_indexed([(7, [FIGURE1])])
    assert [(event.chunks_done, event.workloads_done, event.failing_workloads,
             event.session_workloads, event.chunks_total, event.workloads_total)
            for event in events] == [(4, 41, 6, 1, 9, 100)]


def test_describe_and_the_payloads_group_reports_once(monkeypatch, seq1_run):
    campaign, _ = seq1_run
    expected = campaign.describe()
    calls = []
    group_reports = results_module.group_reports
    monkeypatch.setattr(results_module, "group_reports",
                        lambda reports: calls.append(1) or group_reports(reports))
    for render in (campaign.describe, campaign.summary, campaign.to_dict,
                   campaign.canonical_dict):
        del calls[:]
        render()
        assert len(calls) == 1, render.__name__
    assert campaign.describe() == expected
    assert expected.splitlines()[0] == campaign.summary()
    assert f"{len(campaign.all_reports())} raw reports" in campaign.summary()
    assert campaign.to_dict()["derived"]["raw_reports"] == len(campaign.all_reports())


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_cross_deduped_scenarios_stays_declared_and_zero(fs_name):
    """Nothing skips scenarios across workloads any more; the counter keeps
    the payloads' shape for their readers and no producer fills it."""
    assert not any("cross_deduped_scenarios" in gathered
                   for gathered in CrashTestResult.GATHERED.values())
    run = differential.reference(fs_name, crash_plan="torn")
    assert run.results and run.total("cross_deduped_scenarios") == 0
    campaign = CampaignResult(fs_name, fs_name, results=run.results)
    assert campaign.canonical_dict()["derived"]["cross_deduped_scenarios"] == 0
    assert all(result.canonical_dict()["cross_deduped_scenarios"] == 0
               for result in run.results)
