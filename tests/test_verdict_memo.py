"""Read-addressed crash-state verdicts: one mount + check per distinct recovery.

Within one checkpoint the generator mounts each state recovery can *tell
apart* once; a scenario that agrees with an earlier, checked one of the same
checkpoint on every block its recovery and checks read — byte-identical or
not — is yielded as its twin, without a device, and takes that state's
verdict.  What this file pins:

* **Differential parity** — over the full seq-1 space of all four file
  systems under every multi-state plan, ``test_workload`` reports exactly
  what an always-mount loop (written here, as a test helper — there is no
  such mode in ``src/``) reports, apart from the new counter.
* **The key is content, exactly** — key equality iff the two scenario
  devices are ``content_equal`` (Hypothesis, random windows and scenarios);
  the key and ``overlay_bytes`` folded from the scenario alone are those of
  the built device, for every scenario of full seq-1; a twin's device is
  built on first read and is the eager one.
* **Reads, exactly** — a state that differs only where nobody looked is a
  twin; a device read after the verdict was filed raises; an inspection
  mount refuses fsync; the checks' cached lookups are the live ones.
* **Seeded-unsound variants** — an incomplete read log, a key blind to
  tears, equivalence against an unfiled representative and a pass that
  forgets which verdicts it already took are each rejected by the tests
  above.
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

from repro.ace import AceSynthesizer, seq2_bounds
from repro.core.campaign import B3Campaign, CampaignConfig
from repro.crashmonkey import CheckContext, CrashMonkey, CrashStateGenerator
from repro.crashmonkey.crashplan import CrashScenario, make_planner
from repro.crashmonkey.report import PLAN, BugReport, CrashTestResult
from repro.crashmonkey.verdicts import _CheckpointRecord, _VerdictMemo, _VerdictTable
from repro.errors import FsReadOnlyError, HarnessError
from repro.fs import fsck, get_fs_class
from repro.fs.base import AbstractFileSystem
from repro.fs.bugs import BugConfig, Consequence
from repro.service.runner import DurableCampaignRunner
from repro.storage import BLOCK_SIZE, BlockDevice, CowDevice, IOKind, IORequest
from repro.storage.block import SECTORS_PER_BLOCK
from repro.workload import parse_workload

import differential
from conftest import SIBLING_A, SIBLING_B, SMALL_DEVICE_BLOCKS, run_until
from differential import ALL_FS

MULTI_STATE_PLANS = ["reorder", "torn", "mechanism"]

#: default-bug logfs cannot recover the rename-over at the last fsync: the
#: baseline and every tear inside the in-flight log entries' zero padding
#: are byte-identical, unmountable states
UNMOUNTABLE_WORKLOAD = "creat foo\ncreat bar\nfsync foo\nrename bar foo\nfsync foo"


#: the inheritance tests assert that verdicts *are* inherited, which needs
#: the prefix spine on
SHARING = dict(share_prefixes=True)


def _without_counter(result: CrashTestResult) -> dict:
    return {**result.canonical_dict(), "memoized_scenarios": None}


# --------------------------------------------------------------- (1) differential parity


def always_mount_reference(harness: CrashMonkey, workload) -> CrashTestResult:
    """What ``test_workload`` must report, computed the slow way: every
    planner scenario is constructed, mounted and checked on its own."""
    profile = harness.recorder.profile(workload)
    generator = CrashStateGenerator(profile, planner=harness.planner)
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
    # The plan counted every checkpoint's window while it enumerated them.
    for name in CrashTestResult.GATHERED[PLAN]:
        setattr(result, name, getattr(generator.plan, name, 0))
    return result


def assert_memoized_equals_always_mount(fs_name, plan):
    # Cross-checkpoint dedup skips whole checkpoints before any state exists;
    # it is off on both sides so the reference loop stays the plain planner
    # enumeration (the accounting tests below run with it on).
    options = dict(crash_plan=plan, dedup_scenarios=False)
    memoized = differential.run(fs_name, **options)
    expected = differential.reference(fs_name, test=always_mount_reference, **options)
    differential.assert_same(memoized, expected, project=_without_counter)
    return memoized.total("memoized_scenarios"), sum(len(r.bug_reports) for r in memoized.results)


@pytest.mark.parametrize("plan", MULTI_STATE_PLANS)
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_memoized_results_equal_the_always_mount_loop_on_full_seq1(fs_name, plan):
    memoized, reports = assert_memoized_equals_always_mount(fs_name, plan)
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
    record = _CheckpointRecord(checkpoint_id=1, marker=0, baseline=baseline.snapshot(),
                               stable=stable.snapshot(), window=window)
    generator = _device_builder()
    memo = record.memo
    devices = [generator._scenario_device(record, scenario) for scenario in (first, second)]
    keys = [memo.key(device) for device in devices]
    assert (keys[0] == keys[1]) == devices[0].content_equal(devices[1])
    # The baseline scenario is the same equivalence relation's third point.
    base_device = generator._scenario_device(record, None)
    assert (keys[0] == memo.key(base_device)) == devices[0].content_equal(base_device)
    # What the generator really uses: key and overlay size folded from the
    # scenario alone, no device built.
    for scenario, device in ((first, devices[0]), (second, devices[1]), (None, base_device)):
        assert memo.fold(scenario) == (memo.key(device), device.overlay_bytes())


@pytest.mark.parametrize("plan", MULTI_STATE_PLANS)
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_folded_key_and_overlay_bytes_are_the_built_devices_on_full_seq1(fs_name, plan):
    compared = torn = 0
    for workload, profile in differential.profiles(fs_name):
        generator = CrashStateGenerator(profile, planner=make_planner(plan))
        for scenario in generator.scenario_plan():
            record = generator._record_for(scenario.checkpoint_id)
            device = generator._scenario_device(record, scenario)
            assert record.memo.fold(scenario) == \
                (record.memo.key(device), device.overlay_bytes()), \
                (workload.display_name(), scenario.scenario_id)
            compared += 1
            torn += bool(scenario.torn)
    assert compared > 400
    if fs_name != "verifs":  # every verifs commit is sealed: nothing in flight to tear
        assert (torn > 0) == (plan != "reorder")


# --------------------------------------------------------------- (2b) reads, exactly


def _filed_pass(harness, text, name="filed", *, file_verdicts=True, rebuild=None):
    """One workload's states through a generator over the harness's own
    recorder, each representative checked and filed at once — what
    ``test_workload`` does — unless ``file_verdicts`` is off; ``rebuild``
    swaps checkpoint 1's oracle or tracker view for an equal new object.
    Plus the generator."""
    profile = harness.recorder.profile(parse_workload(text, name=name))
    if rebuild == "oracle":
        profile.oracles[1] = replace(profile.oracles[1])
    elif rebuild == "view":
        profile.tracker_views[1] = replace(profile.tracker_views[1])
    generator = CrashStateGenerator(profile, planner=harness.planner)
    states = []
    for state in generator.generate_scenarios():
        if file_verdicts and not state.is_twin:
            state.verdict.mismatches = harness.checker.check(profile, state)
        states.append(state)
    return states, generator


def test_a_state_that_differs_only_where_nobody_looked_is_a_twin():
    """logfs appends its record, seals it, then rewrites the segment-usage
    summary — a block recovery never reads.  A crash that loses the summary
    is another device and the same recovery."""
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn")
    states, generator = _filed_pass(harness, SIBLINGS[0])
    record = generator._record_for(1)
    assert {request.tag for request in record.window} == {"segment", "segment_summary"}
    summary = next(r for r in record.window if r.tag == "segment_summary")
    baseline, lost_summary = states[0], next(
        s for s in states if s.scenario.dropped_seqs == (summary.seq,))
    assert not baseline.is_twin and lost_summary.is_twin
    assert lost_summary.verdict is baseline.verdict
    assert not lost_summary.device.content_equal(baseline.device)
    assert record.memo.fold(lost_summary.scenario)[0] != record.memo.fold(None)[0]
    assert "read-equivalent" in lost_summary.describe()
    # ... whereas losing the record itself is a recovery of its own.
    segment = next(r for r in record.window if r.tag == "segment")
    lost_record = next(s for s in states if s.scenario.dropped_seqs == (segment.seq,))
    assert not lost_record.is_twin and lost_record.verdict is not baseline.verdict
    # Only a *filed* representative is compared on its reads: the same pass
    # without filing finds byte-identical twins alone.  (Over a profile of its
    # own: one that shares these records would inherit their filed verdicts.)
    fresh = differential.recorder("logfs", share_prefixes=False).profile(generator.profile.workload)
    unfiled = list(CrashStateGenerator(fresh, planner=harness.planner).generate_scenarios())
    assert sum(s.is_twin for s in unfiled) < sum(s.is_twin for s in states)
    assert not next(s for s in unfiled if s.scenario.dropped_seqs == (summary.seq,)).is_twin


@pytest.mark.parametrize("fs_name", ["logfs", "flashfs"])
def test_a_twin_builds_no_device_until_asked_and_then_the_eager_one(fs_name, monkeypatch):
    built = []
    original = CrashStateGenerator._scenario_device

    def counting(self, record, scenario):
        built.append(scenario)
        return original(self, record, scenario)

    monkeypatch.setattr(CrashStateGenerator, "_scenario_device", counting)
    harness = CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn")
    states, generator = _filed_pass(harness, SIBLINGS[0])
    twins = [state for state in states if state.is_twin]
    assert len(twins) > len(states) // 3
    assert len(built) == len(states) - len(twins), "one device per mounted state, none per twin"
    for twin in twins:
        record = generator._record_for(twin.checkpoint_id)
        eager = original(generator, record, twin.scenario)
        assert twin.device.content_equal(eager)
        assert twin.device is twin.device, "built once"
        assert twin.overlay_bytes == eager.overlay_bytes()
        assert twin.device.read_log is None, "nobody mounts a twin: nothing to log"
    assert len(built) == len(states), "... plus one per explicit .device read"


def test_a_device_read_after_the_verdict_was_filed_is_caught():
    """The read log is what twins are compared on, so it has to be complete
    when the verdict is filed: a check (or anything else) that reads the
    device later raises instead of adding a dependency nobody compared."""
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn")
    profile = harness.recorder.profile(parse_workload(SIBLINGS[0], name="late"))
    generator = CrashStateGenerator(profile, planner=harness.planner)
    state = next(generator.generate_scenarios())
    assert state.verdict.reads.blocks, "the mount read the device"
    state.device.read_block(0)                        # before filing: logged, fine
    state.verdict.mismatches = harness.checker.check(profile, state)
    with pytest.raises(HarnessError, match="after its verdict was filed"):
        state.device.read_block(0)
    with pytest.raises(HarnessError, match="after its verdict was filed"):
        state.fs._load_data_from_extents(next(
            inode for inode in state.fs.inodes.values() if inode.block_map))
    # Outside any memo (``generate``: always mount) there is no log to keep complete.
    free = generator.generate(1)
    assert free.verdict.reads is None and free.device.read_log is None
    free.verdict.mismatches = []
    free.device.read_block(0)


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_a_persistence_operation_on_an_inspection_mount_raises(fs_name):
    profile = differential.recorder(fs_name).profile(parse_workload(SIBLINGS[0], name="inspect"))
    fs = CrashStateGenerator(profile).generate(1).fs
    assert fs.mounted and fs.exists("foo")
    fs.creat("probe")                                 # namespace and data operations work
    fs.write("probe", 0, b"x" * 100)
    for persist in (lambda: fs.fsync("foo"), lambda: fs.fdatasync("foo"),
                    lambda: fs.msync("foo"), lambda: fs.fsync("probe")):
        with pytest.raises(FsReadOnlyError, match="mounted for inspection"):
            persist()
    # A full sync reads no commit table and rebuilds both: from then on the
    # mount is an ordinary one.
    fs.sync()
    fs.fsync("probe")
    assert fs.committed_paths(fs._lookup("probe")) == {"probe"}
    # An ordinary mount of the same image tracks commits from the start.
    plain = get_fs_class(fs_name)(CrashStateGenerator(profile).generate(1).device, profile.bugs)
    plain.mount()
    plain.fsync("foo")


def test_an_inspection_mount_leaves_an_already_dirty_superblock_alone():
    profile = differential.recorder("logfs").profile(parse_workload(SIBLINGS[0], name="dirty"))
    generator = CrashStateGenerator(profile)
    fs_class = get_fs_class("logfs")
    untouched, rewritten = (generator.generate(1).device.snapshot() for _ in range(2))
    before = untouched.writes
    fs_class(untouched, profile.bugs).mount(inspect=True)
    fs_class(rewritten, profile.bugs).mount()
    assert untouched.writes == before and rewritten.writes == before + 1
    assert untouched.content_equal(rewritten), "the skipped write would have changed nothing"
    # A clean image is marked dirty by either mount.
    clean = BlockDevice(SMALL_DEVICE_BLOCKS)
    fs_class.mkfs(clean)
    inspected = CowDevice(clean)
    fs_class(inspected).mount(inspect=True)
    assert inspected.writes == 1


def _damaged_tree(fs_name):
    """A mounted fs whose tree holds what only a buggy recovery leaves: an
    entry whose inode is gone, a directory linked under two names, and a
    file with a stale link count."""
    device = BlockDevice(SMALL_DEVICE_BLOCKS)
    fs_class = get_fs_class(fs_name)
    fs_class.mkfs(device)
    fs = fs_class(device)
    fs.mount()
    fs.mkdir("A")
    fs.mkdir("A/sub")
    fs.creat("A/sub/deep")
    fs.creat("A/foo")
    fs.write("A/foo", 0, b"f" * 5000)
    fs.link("A/foo", "bar")
    fs.symlink("A/foo", "sym")
    fs.mkdir("B")
    root, a, b = fs.inodes[1], fs.inodes[fs._lookup("A")], fs.inodes[fs._lookup("B")]
    b.children["dangling"] = 9999                     # name present, inode missing
    root.children["ghost"] = 9998
    b.children["sub-again"] = a.children["sub"]       # one directory, two names
    fs.inodes[fs._lookup("bar")].nlink = 5            # stale link count
    return fs


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_cached_check_lookups_are_the_live_ones_on_a_damaged_tree(fs_name):
    class _State:
        def __init__(self, fs):
            self.fs = fs

    fs = _damaged_tree(fs_name)
    ctx = CheckContext(profile=None, crash_state=_State(fs), oracle=None, view=None)
    paths = ["", "A", "A/foo", "bar", "sym", "B", "B/dangling", "ghost", "B/sub-again",
             "B/sub-again/deep", "A/sub/deep", "A/sub", "missing", "A/missing/x", "/A//foo/"]
    for _ in range(2):                                # second round: every answer is cached
        for path in paths:
            assert ctx.lookup(path) == fs.lookup_state(path), path
    for path in paths:
        state = fs.lookup_state(path)
        if state is not None:
            assert ctx.names_of(state.ino) == fs.paths_of_inode(path), path
    assert ctx.lookup("B/dangling") is None and ctx.names_of(9999) == []
    assert ctx.names_of(fs._lookup("A/sub")) == ["A/sub", "B/sub-again"]
    assert ctx.names_of(fs._lookup("bar")) == ["A/foo", "bar"]
    # The cache is the state as recovered: what the write check does to the
    # tree afterwards is, by design, invisible through it.
    fs.unlink("bar")
    assert ctx.lookup("bar") is not None and fs.lookup_state("bar") is None


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
    # Recorded from scratch each time: ``test_workload`` below must not share
    # (and inherit from) the records of this first pass.
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn",
                          share_prefixes=False)
    profile = harness.profile(workload)
    generator = CrashStateGenerator(profile, planner=harness.planner)
    states = []
    for state in generator.generate_scenarios():
        if not state.is_twin:  # file it, as the harness does: later states may take it
            state.verdict.mismatches = harness.checker.check(profile, state)
        states.append(state)
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
    assert run_until(interrupted, 3) is None
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
SIBLINGS = [SIBLING_A, SIBLING_B, "creat foo\nwrite foo 0 8192\nfsync foo\nrename foo qux\nsync"]


def _report_dicts(results):
    return [[report.to_dict() for report in result.bug_reports] for result in results]


@pytest.mark.parametrize("plan", ["prefix", "torn"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_reports_equal_those_of_a_harness_that_cannot_inherit(fs_name, plan):
    """Without prefix-shared recording no two workloads ever share a record,
    so ``share_prefixes=False`` is the no-inheritance reference — and nothing
    it reports depends on what it tested before: it may come space by space."""
    spaces = ["seq-1", "seq-2"] if fs_name == "logfs" else ["seq-1"]
    inheriting = differential.run(fs_name, space="+".join(spaces), crash_plan=plan, **SHARING)
    expected = differential.Run([result for space in spaces for result in differential.reference(
        fs_name, space=space, crash_plan=plan, share_prefixes=False).results])
    assert _report_dicts(inheriting.results) == _report_dicts(expected.results)
    differential.assert_same(inheriting, expected)
    assert expected.total("inherited_verdicts") == 0
    if fs_name == "logfs":
        assert inheriting.total("inherited_verdicts") > 0
        assert any(r.inherited_verdicts and r.bug_reports for r in inheriting.results), \
            "the comparison must cover an inherited failing state"


@pytest.mark.parametrize("plan", ["prefix", "torn"])
def test_a_sibling_inherits_exactly_the_shared_checkpoints_filed_verdicts(plan):
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                          **SHARING)
    first, _ = _filed_pass(harness, SIBLINGS[0], "a")
    assert not any(state.inherited for state in first)
    second, _ = _filed_pass(harness, SIBLINGS[1], "b")
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
    _filed_pass(harness, SIBLINGS[0], "a")
    second, _ = _filed_pass(harness, SIBLINGS[1], "b", rebuild=rebuild)
    assert second[0].checkpoint_id == 1
    assert not second[0].is_twin and second[0].mount_seconds > 0
    # The recompute refilled the memo under b's objects: c, which holds the
    # originals again, must not see b's verdicts either.
    third, _ = _filed_pass(harness, SIBLINGS[2], "c")
    assert not third[0].is_twin


def test_an_unfiled_verdict_is_mounted_again_never_inherited():
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn",
                          **SHARING)
    unchecked, _ = _filed_pass(harness, SIBLINGS[0], "a", file_verdicts=False)
    assert any(state.is_twin for state in unchecked), "twins within a pass need no filing"
    second, _ = _filed_pass(harness, SIBLINGS[1], "b")
    assert not any(state.inherited for state in second)
    assert not second[0].is_twin and second[0].mount_seconds > 0
    assert all(state.verdict.mismatches is not None for state in second)
    third, _ = _filed_pass(harness, SIBLINGS[2], "c")
    assert third[0].inherited and third[0].verdict is second[0].verdict


def assert_schedules_agree_on_everything_canonical(tmp_path, plan):
    """Serial, pooled and zero-budget (every spine node spilled, so every
    oracle and record is rebuilt) campaigns inherit different amounts and
    agree on everything canonical.  A chunk's plan hands each workload its
    resume nodes in memory, so the zero-budget campaign runs twice: in the
    serial chunks, and one workload per chunk, where every resume reads a
    thawed node."""
    config = CampaignConfig(fs_name="logfs", device_blocks=SMALL_DEVICE_BLOCKS, crash_plan=plan,
                            bounds=seq2_bounds(), max_workloads=120, chunk_size=8, **SHARING)
    serial = B3Campaign(config).run()
    pooled = B3Campaign(replace(config, processes=2)).run()
    spilled = B3Campaign(replace(config, spine_memory_budget=0,
                                 spine_spill_dir=str(tmp_path / "spill"))).run()
    unplanned = B3Campaign(replace(config, spine_memory_budget=0, chunk_size=1,
                                   spine_spill_dir=str(tmp_path / "spill-1"))).run()
    assert serial.inherited_verdicts > 0
    assert spilled.spine_rehydrations > 0 and unplanned.spine_rehydrations > 0
    assert unplanned.inherited_verdicts < serial.inherited_verdicts
    for name, result in (("pool", pooled), ("spilled", spilled), ("unplanned", unplanned)):
        assert result.canonical_dict() == serial.canonical_dict(), name
        assert _report_dicts(result.results) == _report_dicts(serial.results), name
    assert "inherited_verdicts" in CrashTestResult.SESSION_FIELDS
    assert "inherited_verdicts" not in serial.results[0].canonical_dict()
    assert "inherited_verdicts" not in serial.canonical_dict()["derived"]
    for result in serial.results:
        mounted = result.scenarios_tested - result.memoized_scenarios - result.inherited_verdicts
        assert mounted >= 0
    assert f"{serial.inherited_verdicts} inherited" in serial.describe()
    return serial


def test_inherited_verdicts_are_session_telemetry_across_schedules(tmp_path):
    assert_schedules_agree_on_everything_canonical(tmp_path, "prefix")


def test_memoized_scenarios_is_the_same_however_much_was_inherited(tmp_path):
    """Under a multi-state plan a pass both inherits and memoizes.  The first
    state of a read-equivalence class in a pass is mounted or inherited,
    every later one is memoized — so the canonical counter does not move with
    what the spine happened to hold."""
    serial = assert_schedules_agree_on_everything_canonical(tmp_path, "torn")
    assert serial.memoized_scenarios > 0
    assert any(r.inherited_verdicts and r.memoized_scenarios for r in serial.results)


# --------------------------------------------------------------- (8) seeded-unsound variants

# A proof harness that cannot fail proves nothing: each variant below breaks
# one thing the twins' soundness rests on, and a test above must object.


def unlogged_data_reads(patch):
    """Recovery reads metadata *and* file data; a log of the metadata reads
    alone calls two states equivalent that differ in a torn data block."""
    real = AbstractFileSystem._load_data_from_extents

    def unlogged(fs, inode):
        log = getattr(fs.device, "read_log", None)
        if log is None:
            return real(fs, inode)
        fs.device.read_log = None
        try:
            return real(fs, inode)
        finally:
            fs.device.read_log = log

    patch.setattr(AbstractFileSystem, "_load_data_from_extents", unlogged)


def tear_blind_fold(patch):
    real = _VerdictMemo.fold
    patch.setattr(_VerdictMemo, "fold",
                  lambda memo, scenario: real(memo, scenario and replace(scenario, torn=())))


def unfiled_representatives(patch):
    """In ``test_workload`` every representative is filed before the next
    state exists, so only a consumer that does not file can tell: it must
    never be handed a verdict nobody filled in."""
    def index_everything(table):
        for key, verdict in table._unindexed:
            positions = tuple(sorted(table._positions[block] for block in verdict.reads.blocks
                                     if block in table._positions))
            table._by_reads.setdefault(positions, {}).setdefault(
                tuple(key[position] for position in positions), verdict)
        table._unindexed = []

    patch.setattr(_VerdictTable, "_index_filed", index_everything)


def forgetful_inheritance(patch):
    original = CrashStateGenerator._construct

    def forgetful(self, record, scenario, fresh=None):
        state = original(self, record, scenario, fresh)
        if state.inherited:
            fresh.discard(state.verdict)  # ... so its next twin looks inherited too
        return state

    patch.setattr(CrashStateGenerator, "_construct", forgetful)


def test_a_read_log_that_misses_the_data_reads_is_caught():
    differential.rejects(unlogged_data_reads, assert_memoized_equals_always_mount,
                         "flashfs", "torn")


def test_a_key_fold_that_ignores_tears_is_caught():
    differential.rejects(tear_blind_fold, assert_memoized_equals_always_mount, "flashfs", "torn")


def test_equivalence_against_an_unfiled_representative_is_caught():
    test_an_unfiled_verdict_is_mounted_again_never_inherited()
    differential.rejects(unfiled_representatives,
                         test_an_unfiled_verdict_is_mounted_again_never_inherited)


def test_counting_a_second_twin_of_an_inherited_verdict_as_inherited_is_caught(tmp_path):
    differential.rejects(forgetful_inheritance, assert_schedules_agree_on_everything_canonical,
                         tmp_path, "torn")
