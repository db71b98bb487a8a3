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
* **Accounting** — ``mounted + memoized == scenarios_tested`` per workload
  and per campaign; nothing is memoized under the prefix plan.
* **Scope** — a verdict never crosses a checkpoint boundary.
* **Unmountable twins** — report UNMOUNTABLE under their own scenario id
  while fsck runs once.
* **Schedules** — serial, process-pool and SIGKILL-resumed durable
  campaigns agree on the counter.
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
from repro.crashmonkey.replayer import _CheckpointRecord, _VerdictMemo
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
                                    analyze=harness.analyze_mechanisms)
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
                kernel_version=harness.kernel_version, scenario=state.scenario_id,
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
    memo = _VerdictMemo(record)
    devices = [generator._scenario_device(record, scenario) for scenario in (first, second)]
    keys = [memo.key(device) for device in devices]
    assert (keys[0] == keys[1]) == devices[0].content_equal(devices[1])
    # The baseline scenario is the same equivalence relation's third point.
    base_device = generator._scenario_device(record, None)
    assert (keys[0] == memo.key(base_device)) == devices[0].content_equal(base_device)


# --------------------------------------------------------------- (3) accounting


@pytest.mark.parametrize("plan", ["prefix"] + MULTI_STATE_PLANS)
def test_mounted_plus_memoized_is_scenarios_tested(plan, monkeypatch):
    mounts = []
    original = CrashStateGenerator._construct

    def counting(self, record, scenario, memo=None):
        state = original(self, record, scenario, memo)
        mounts.append(not state.is_twin)
        return state

    monkeypatch.setattr(CrashStateGenerator, "_construct", counting)
    workloads = list(AceSynthesizer(seq2_bounds()).stream(limit=40, sample=True))
    campaign = B3Campaign(CampaignConfig(fs_name="flashfs", device_blocks=SMALL_DEVICE_BLOCKS,
                                         crash_plan=plan))
    result = campaign.run(workloads=workloads)
    per_workload = 0
    for outcome in result.results:
        assert 0 <= outcome.memoized_scenarios <= outcome.scenarios_tested
        per_workload += outcome.memoized_scenarios
    assert result.memoized_scenarios == per_workload
    assert result.scenarios_tested == len(mounts)
    assert sum(mounts) + result.memoized_scenarios == result.scenarios_tested
    assert result.canonical_dict()["derived"]["memoized_scenarios"] == per_workload
    if plan == "prefix":
        assert result.memoized_scenarios == 0, "one state per checkpoint: nothing repeats"
    else:
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
