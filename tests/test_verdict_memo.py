"""Content-addressed crash-state verdicts: one mount + check per distinct state.

Within one checkpoint the generator mounts each *distinct* device content
once; a scenario whose device is byte-identical to an earlier one of the same
checkpoint is yielded as its twin and takes that state's verdict.  What this
file pins:

* **Differential parity** — over the full seq-1 space of all four file
  systems under every multi-state plan, ``test_workload`` reports exactly
  what an always-mount loop (written here, as a test helper — there is no
  such mode in ``src/``) reports, apart from the new counter.
* **The key is content, exactly** — key equality iff the two scenario
  devices are ``content_equal`` (Hypothesis, random windows and scenarios).
* **Accounting** — ``mounted + memoized + inherited == scenarios_tested``
  per workload and per campaign; nothing is memoized under the prefix plan.
* **Scope** — a verdict never crosses a checkpoint boundary.
* **Unmountable twins** — report UNMOUNTABLE under their own scenario id
  while fsck runs once.
* **Schedules** — serial, process-pool and SIGKILL-resumed durable
  campaigns agree on the counter.
* **Inheritance** — the memo lives on the checkpoint record, so a sibling
  that shares the record *and* the oracle / tracker view objects takes the
  verdicts the earlier workload filed: same reports as a harness that cannot
  inherit, a rebuilt oracle or view forces a recompute, an unfiled verdict
  is never taken, and the count is session telemetry, not a canonical field.
"""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ace import AceSynthesizer, seq1_bounds, seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.crashmonkey import CrashMonkey, CrashStateGenerator
from repro.crashmonkey.crashplan import CrashScenario
from repro.crashmonkey.replayer import _CheckpointRecord
from repro.crashmonkey.report import BugReport, CrashTestResult
from repro.fs import fsck
from repro.fs.bugs import BugConfig, Consequence
from repro.service.runner import DurableCampaignRunner
from repro.storage import BLOCK_SIZE, BlockDevice, CowDevice, IOKind, IORequest
from repro.storage.block import SECTORS_PER_BLOCK
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS

ALL_FS = ["logfs", "seqfs", "flashfs", "verifs"]
MULTI_STATE_PLANS = ["reorder", "torn", "mechanism"]

#: default-bug logfs cannot recover the rename-over at the last fsync: the
#: baseline and every tear inside the in-flight log entries' zero padding
#: are byte-identical, unmountable states
UNMOUNTABLE_WORKLOAD = "creat foo\ncreat bar\nfsync foo\nrename bar foo\nfsync foo"


#: the inheritance tests assert that verdicts *are* inherited, which needs
#: both spines on and resident whatever the environment's budget says (the
#: spill CI lane sets REPRO_SPINE_BUDGET)
SHARING = dict(share_prefixes=True, share_replay=True, spine_memory_budget=1 << 28)


def _without_counter(canonical: dict) -> dict:
    canonical = dict(canonical)
    canonical.pop("memoized_scenarios")
    return canonical


# --------------------------------------------------------------- (1) differential parity


def always_mount_reference(harness: CrashMonkey, workload) -> CrashTestResult:
    """What ``test_workload`` must report, computed the slow way: every
    planner scenario is constructed, mounted and checked on its own."""
    profile = harness.recorder.profile(workload)
    generator = CrashStateGenerator(profile, planner=harness.planner,
                                    analyze=harness.spec.analyze_mechanisms)
    result = CrashTestResult(workload=workload, fs_type=harness.fs_name,
                             fs_model=harness.fs_model)
    result.recorded_requests = len(profile.io_log)
    result.recorded_bytes = profile.recorded_bytes
    result.executed_ops = profile.executed_ops
    result.skipped_ops = profile.skipped_ops
    checkpoints = profile.checkpoints()
    result.checkpoints_tested = len(checkpoints)
    for scenario in generator.scenario_plan(checkpoints):
        record = generator._record_for(scenario.checkpoint_id)
        state = generator._construct(record, scenario)
        assert not state.is_twin and state.mount_seconds > 0
        result.scenarios_tested += 1
        result.crash_state_overlay_bytes = max(result.crash_state_overlay_bytes,
                                               state.overlay_bytes)
        mismatches = harness.checker.check(profile, state)
        if mismatches:
            result.bug_reports.append(BugReport(
                workload=workload, fs_type=harness.fs_name, fs_model=harness.fs_model,
                checkpoint_id=state.checkpoint_id, crash_point=state.crash_point,
                mismatches=[replace(m, scenario=state.scenario_id) for m in mismatches],
                kernel_version=harness.spec.kernel_version, scenario=state.scenario_id,
            ))
    for checkpoint_id in checkpoints:
        generator._count_mechanism_window(generator._record_for(checkpoint_id).window)
    result.mechanism_checkpoints = generator.mechanism_checkpoints
    result.mechanism_fallback_checkpoints = generator.mechanism_fallback_checkpoints
    result.mechanism_demoted_checkpoints = generator.mechanism_demoted_checkpoints
    result.audit_demotions = generator.audit_demotions
    return result


@pytest.mark.parametrize("plan", MULTI_STATE_PLANS)
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_memoized_results_equal_the_always_mount_loop_on_full_seq1(fs_name, plan):
    # Cross-checkpoint dedup skips whole checkpoints before any state exists;
    # it is off on both sides so the reference loop stays the plain planner
    # enumeration (the accounting tests below run with it on).
    harness = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                          dedup_scenarios=False)
    reference = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                            dedup_scenarios=False)
    memoized = reports = 0
    for workload in AceSynthesizer(seq1_bounds()).stream():
        result = harness.test_workload(workload)
        expected = always_mount_reference(reference, workload)
        assert _without_counter(result.canonical_dict()) == \
            _without_counter(expected.canonical_dict()), workload.display_name()
        memoized += result.memoized_scenarios
        reports += len(result.bug_reports)
    if fs_name != "verifs":  # bug-free and envelope-free: no reports, no repeats
        assert reports > 0, "the comparison must cover failing states"
        if plan != "reorder" or fs_name == "flashfs":
            assert memoized > 0, "the comparison must cover twins"


# --------------------------------------------------------------- (2) the key is content


def _window_and_scenarios(draw):
    """A random small checkpoint: prior content, window writes, two scenarios."""
    blocks = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    payload = st.one_of(
        st.integers(0, BLOCK_SIZE).map(lambda n: b"\xab" * n),      # short / full / empty
        st.integers(1, 64).map(lambda n: b"\xab" * n + bytes(BLOCK_SIZE - n)),
        st.binary(min_size=0, max_size=24),
    )
    base = BlockDevice(num_blocks=8)
    stable = CowDevice(base, name="stable")
    for block in range(6):
        prior = draw(st.sampled_from([None, b"", b"\xab" * BLOCK_SIZE, b"\xab" * 700, b"\x01"]))
        if prior is not None:
            stable.write_block(block, prior)
    window = tuple(
        IORequest(seq=seq, kind=IOKind.WRITE, block=block, data=draw(payload))
        for seq, block in enumerate(blocks, start=1)
    )

    def scenario():
        dropped = tuple(sorted(draw(st.sets(st.sampled_from([r.seq for r in window])))))
        survivors = [r.seq for r in window if r.seq not in dropped]
        torn = ()
        if survivors and draw(st.booleans()):
            torn = ((draw(st.sampled_from(survivors)),
                     draw(st.integers(1, SECTORS_PER_BLOCK - 1))),)
        return CrashScenario(checkpoint_id=1, plan="torn", dropped_seqs=dropped, torn=torn)

    return stable, window, scenario(), scenario()


@functools.lru_cache(maxsize=None)
def _device_builder() -> CrashStateGenerator:
    """Any generator will do: ``_scenario_device`` reads only its arguments."""
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS)
    return CrashStateGenerator(harness.profile(parse_workload("creat foo\nfsync foo", name="stub")))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_key_equality_iff_scenario_devices_are_content_equal(data):
    stable, window, first, second = _window_and_scenarios(data.draw)
    baseline = stable.snapshot(name="cursor")
    for request in window:
        baseline.write_block(request.block, request.data)
    record = _CheckpointRecord(checkpoint_id=1, baseline=baseline.snapshot(),
                               stable=stable.snapshot(), window=window)
    generator = _device_builder()
    memo = record.memo
    devices = [generator._scenario_device(record, scenario) for scenario in (first, second)]
    keys = [memo.key(device) for device in devices]
    assert (keys[0] == keys[1]) == devices[0].content_equal(devices[1])
    # The baseline scenario is the same equivalence relation's third point.
    base_device = generator._scenario_device(record, None)
    assert (keys[0] == memo.key(base_device)) == devices[0].content_equal(base_device)


# --------------------------------------------------------------- (3) accounting


@pytest.mark.parametrize("sample", [True, False], ids=["sampled", "contiguous"])
@pytest.mark.parametrize("plan", ["prefix"] + MULTI_STATE_PLANS)
def test_mounted_plus_memoized_plus_inherited_is_scenarios_tested(plan, sample, monkeypatch):
    mounts = []
    original = CrashStateGenerator._construct

    def counting(self, record, scenario, fresh=None):
        state = original(self, record, scenario, fresh)
        mounts.append(not state.is_twin)
        return state

    monkeypatch.setattr(CrashStateGenerator, "_construct", counting)
    workloads = list(AceSynthesizer(seq2_bounds()).stream(limit=40, sample=sample))
    campaign = B3Campaign(CampaignConfig(fs_name="flashfs", device_blocks=SMALL_DEVICE_BLOCKS,
                                         crash_plan=plan, **SHARING))
    result = campaign.run(workloads=workloads)
    per_workload = 0
    for outcome in result.results:
        assert 0 <= outcome.memoized_scenarios <= outcome.scenarios_tested
        assert 0 <= outcome.inherited_verdicts <= outcome.scenarios_tested
        per_workload += outcome.memoized_scenarios
    assert result.memoized_scenarios == per_workload
    assert result.scenarios_tested == len(mounts)
    assert (sum(mounts) + result.memoized_scenarios + result.inherited_verdicts
            == result.scenarios_tested)
    assert result.mounted_scenarios == sum(mounts)
    assert result.canonical_dict()["derived"]["memoized_scenarios"] == per_workload
    if not sample:
        assert result.inherited_verdicts > 0, "adjacent siblings re-reach shared checkpoints"
    if plan == "prefix":
        assert result.memoized_scenarios == 0, "one state per checkpoint: nothing repeats"
    elif sample:
        assert result.memoized_scenarios > 0
        assert f"{result.memoized_scenarios} memoized of {result.scenarios_tested} tested" \
            in result.describe()


# --------------------------------------------------------------- (4) never across checkpoints


def test_equal_content_under_a_different_oracle_is_mounted_again():
    """Two fdatasyncs with no write in between leave byte-identical windows,
    but the second promises the falloc'ed size: its states must be checked
    against *its* oracle, so each checkpoint mounts its own representative."""
    workload = parse_workload(
        "creat foo\nwrite foo 0 8192\nfsync foo\n"
        "falloc foo 8192 8192 keep_size\nfdatasync foo\nfdatasync foo", name="repeat")
    harness = CrashMonkey("ext4", bugs=BugConfig.only("falloc_keep_size_fdatasync"),
                          device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn",
                          dedup_scenarios=False)
    profile = harness.profile(workload)
    generator = CrashStateGenerator(profile, planner=harness.planner, dedup_scenarios=False)
    states = list(generator.generate_scenarios())
    by_checkpoint = {}
    for state in states:
        by_checkpoint.setdefault(state.checkpoint_id, []).append(state)
    last, previous = sorted(by_checkpoint)[-1], sorted(by_checkpoint)[-2]
    record_a, record_b = generator._record_for(previous), generator._record_for(last)
    assert record_a.stable is record_b.stable and record_a.window == record_b.window
    for checkpoint_id in (previous, last):
        first = by_checkpoint[checkpoint_id][0]
        assert not first.is_twin and first.mount_seconds > 0
    # Distinct verdict objects: nothing the first checkpoint concluded is
    # visible from the second.
    verdicts_a = {id(s.verdict) for s in by_checkpoint[previous]}
    verdicts_b = {id(s.verdict) for s in by_checkpoint[last]}
    assert not verdicts_a & verdicts_b


# --------------------------------------------------------------- (5) unmountable twins


def test_twin_of_an_unmountable_state_reports_under_its_own_id(monkeypatch):
    repairs = []
    original_repair = fsck.repair
    monkeypatch.setattr(fsck, "repair",
                        lambda *args, **kwargs: repairs.append(1) or original_repair(*args, **kwargs))
    workload = parse_workload(UNMOUNTABLE_WORKLOAD, name="rename-over")
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn")
    profile = harness.profile(workload)
    generator = CrashStateGenerator(profile, planner=harness.planner)
    states = list(generator.generate_scenarios())
    twins = [s for s in states if s.is_twin and not s.mountable]
    assert len(twins) > 5, "tears inside the padding must repeat the unmountable baseline"
    for twin in twins:
        assert twin.fs is None and twin.fsck_report is None
        assert (twin.mount_seconds, twin.fsck_seconds) == (0.0, 0.0)
        assert twin.overlay_bytes == twin.device.overlay_bytes() > 0
        assert "UNMOUNTABLE" in twin.describe()
    unmountable = [s for s in states if not s.mountable]
    assert len(repairs) == len(unmountable) - len(twins), "fsck runs once per distinct state"

    repairs.clear()
    result = harness.test_workload(workload)
    by_scenario = {report.scenario: report for report in result.bug_reports}
    for twin in twins:
        report = by_scenario[twin.scenario_id]
        assert report.consequence == Consequence.UNMOUNTABLE
        assert report.checkpoint_id == twin.checkpoint_id
        assert {m.scenario for m in report.mismatches} == {twin.scenario_id}
    assert len(repairs) == len(unmountable) - len(twins)
    assert result.memoized_scenarios >= len(twins)


# --------------------------------------------------------------- (6) schedules agree


def test_serial_pool_and_resumed_durable_campaigns_agree_on_the_counter(tmp_path):
    config = CampaignConfig(fs_name="flashfs", device_blocks=SMALL_DEVICE_BLOCKS,
                            crash_plan="torn", bounds=seq2_bounds(), max_workloads=48, sample=True,
                            chunk_size=6)
    serial = B3Campaign(config).run()
    assert serial.memoized_scenarios > 0

    pool_campaign = B3Campaign(replace(config, processes=2))
    pooled = pool_campaign.run()
    assert sum(chunk.memoized_scenarios for chunk in pool_campaign.last_run.chunks) \
        == serial.memoized_scenarios

    db_path = str(tmp_path / "state.sqlite")
    interrupted = DurableCampaignRunner(config, db_path, campaign_id="memo")
    interrupted.run(max_chunks=3)
    interrupted.close()
    resumed_runner = DurableCampaignRunner(config, db_path, campaign_id="memo")
    resumed = resumed_runner.run()
    resumed_runner.close()

    per_workload = [r.memoized_scenarios for r in serial.results]
    for name, result in (("pool", pooled), ("resumed", resumed)):
        assert result.memoized_scenarios == serial.memoized_scenarios, name
        assert sorted(r.memoized_scenarios for r in result.results) == sorted(per_workload), name
        assert result.canonical_dict() == serial.canonical_dict(), name


# --------------------------------------------------------------- (7) inheritance across siblings

#: three siblings sharing "creat foo; write; fsync foo" — checkpoint 1 is one
#: record, one oracle and one tracker view for all of them
SIBLINGS = [
    "creat foo\nwrite foo 0 8192\nfsync foo\ncreat bar\nfsync bar",
    "creat foo\nwrite foo 0 8192\nfsync foo\nlink foo baz\nfsync baz",
    "creat foo\nwrite foo 0 8192\nfsync foo\nrename foo qux\nsync",
]


def _report_dicts(results):
    return [[report.to_dict() for report in result.bug_reports] for result in results]


@pytest.mark.parametrize("plan", ["prefix", "torn"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_reports_equal_those_of_a_harness_that_cannot_inherit(fs_name, plan):
    """Without a replay trail no two workloads ever share a record, so
    ``share_replay=False`` is the no-inheritance reference."""
    workloads = list(AceSynthesizer(seq1_bounds()).stream())
    if fs_name == "logfs":
        workloads += list(AceSynthesizer(seq2_bounds()).stream(limit=150))
    inheriting = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                             **SHARING)
    reference = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                            share_replay=False)
    results = inheriting.test_workloads(workloads)
    expected = reference.test_workloads(workloads)
    assert _report_dicts(results) == _report_dicts(expected)
    assert [r.canonical_dict() for r in results] == [r.canonical_dict() for r in expected]
    assert sum(r.inherited_verdicts for r in expected) == 0
    if fs_name == "logfs":
        assert sum(r.inherited_verdicts for r in results) > 0
        assert any(r.inherited_verdicts and r.bug_reports for r in results), \
            "the comparison must cover an inherited failing state"


def _checked_pass(harness, text, name, *, file_verdicts=True, rebuild=None):
    """One workload's states through a generator on the harness's own trail,
    optionally without filing what the checker found, optionally with
    checkpoint 1's oracle / tracker view swapped for an equal new object."""
    profile = harness.recorder.profile(parse_workload(text, name=name))
    if rebuild == "oracle":
        profile.oracles[1] = replace(profile.oracles[1])
    elif rebuild == "view":
        profile.tracker_views[1] = replace(profile.tracker_views[1])
    generator = CrashStateGenerator(profile, planner=harness.planner,
                                    replay_cache=harness.replay_cache)
    states = []
    for state in generator.generate_scenarios():
        if file_verdicts and not state.is_twin:
            state.verdict.mismatches = harness.checker.check(profile, state)
        states.append(state)
    return states


@pytest.mark.parametrize("plan", ["prefix", "torn"])
def test_a_sibling_inherits_exactly_the_shared_checkpoints_filed_verdicts(plan):
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                          **SHARING)
    first = _checked_pass(harness, SIBLINGS[0], "a")
    assert not any(state.inherited for state in first)
    second = _checked_pass(harness, SIBLINGS[1], "b")
    shared = [state for state in second if state.checkpoint_id == 1]
    own = [state for state in second if state.checkpoint_id == 2]
    assert shared and own
    assert all(state.is_twin for state in shared)
    assert any(state.inherited for state in shared)
    assert not any(state.inherited for state in own), "checkpoint 2 is b's own record"
    # Only the first state of each distinct content is inherited; its repeats
    # within b's pass are b's own twins, exactly as without inheritance.
    seen = set()
    for state, reference in zip(shared, [s for s in first if s.checkpoint_id == 1]):
        assert state.scenario_id == reference.scenario_id
        assert state.verdict is reference.verdict
        assert state.inherited == (id(state.verdict) not in seen)
        seen.add(id(state.verdict))


@pytest.mark.parametrize("rebuild", ["oracle", "view"])
def test_a_rebuilt_oracle_or_view_forces_a_recompute(rebuild):
    """Equal content is not enough: a thawed spine node hands the sibling new
    expectation objects, and the memo is only trusted under the identical
    ones it was filled under."""
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, **SHARING)
    _checked_pass(harness, SIBLINGS[0], "a")
    second = _checked_pass(harness, SIBLINGS[1], "b", rebuild=rebuild)
    assert second[0].checkpoint_id == 1
    assert not second[0].is_twin and second[0].mount_seconds > 0
    # The recompute refilled the memo under b's objects: c, which holds the
    # originals again, must not see b's verdicts either.
    third = _checked_pass(harness, SIBLINGS[2], "c")
    assert not third[0].is_twin


def test_an_unfiled_verdict_is_mounted_again_never_inherited():
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn",
                          **SHARING)
    unchecked = _checked_pass(harness, SIBLINGS[0], "a", file_verdicts=False)
    assert any(state.is_twin for state in unchecked), "twins within a pass need no filing"
    second = _checked_pass(harness, SIBLINGS[1], "b")
    assert not any(state.inherited for state in second)
    assert not second[0].is_twin and second[0].mount_seconds > 0
    assert all(state.verdict.mismatches is not None for state in second)
    third = _checked_pass(harness, SIBLINGS[2], "c")
    assert third[0].inherited and third[0].verdict is second[0].verdict


def test_inherited_verdicts_are_session_telemetry_across_schedules(tmp_path):
    """Serial, pooled and zero-budget (every spine node spilled, so every
    oracle and record is rebuilt) campaigns inherit different amounts and
    agree on everything canonical."""
    config = CampaignConfig(fs_name="logfs", device_blocks=SMALL_DEVICE_BLOCKS,
                            bounds=seq2_bounds(), max_workloads=120, chunk_size=8, **SHARING)
    serial = B3Campaign(config).run()
    pooled = B3Campaign(replace(config, processes=2)).run()
    spilled = B3Campaign(replace(config, spine_memory_budget=0,
                                 spine_spill_dir=str(tmp_path / "spill"))).run()
    assert serial.inherited_verdicts > 0
    assert spilled.spine_rehydrations > 0
    assert spilled.inherited_verdicts < serial.inherited_verdicts
    for name, result in (("pool", pooled), ("spilled", spilled)):
        assert result.canonical_dict() == serial.canonical_dict(), name
        assert _report_dicts(result.results) == _report_dicts(serial.results), name
    assert "inherited_verdicts" in CrashTestResult.SESSION_FIELDS
    assert "inherited_verdicts" not in serial.results[0].canonical_dict()
    assert "inherited_verdicts" not in serial.canonical_dict()["derived"]
    for result in serial.results:
        mounted = result.scenarios_tested - result.memoized_scenarios - result.inherited_verdicts
        assert mounted >= 0
    assert f"{serial.inherited_verdicts} inherited" in serial.describe()
