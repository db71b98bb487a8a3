"""The crash-plan subsystem: planners, incremental replay, reorder scenarios.

Covers the three guarantees the subsystem makes:

* the ``prefix`` plan reproduces the pre-refactor from-scratch replay byte
  for byte (proven against ``replay_until_checkpoint`` on the full seq-1
  space of every simulated file system),
* the ``reorder`` plan never violates flush/FUA barriers: it only drops
  non-FUA writes issued after the last flush preceding the crash point, and
  within the configured bound,
* crash plans thread through the engine: pool workers rebuild identical
  planners from the pickled :class:`HarnessSpec`.
"""

import pickle

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.core import B3Campaign, CampaignConfig
from repro.core.dedup import group_reports
from repro.crashmonkey import (
    PLAN_NAMES,
    CrashMonkey,
    CrashStateGenerator,
    CrashScenario,
    PrefixPlanner,
    ReorderPlanner,
    TornWritePlanner,
    WorkloadRecorder,
    make_planner,
)
from repro.errors import HarnessError, WorkloadError
from repro.engine import HarnessSpec, run_campaign
from repro.fs import BugConfig, Consequence
from repro.storage import (
    SECTORS_PER_BLOCK,
    IOFlag,
    IOKind,
    IORequest,
    replay_until_checkpoint,
)
from repro.workload import parse_workload

import differential
from conftest import SMALL_DEVICE_BLOCKS
from differential import ALL_FS

#: Workload hitting the flashfs missing-barrier mechanism: the data and the
#: fsync commit record stay in flight, so only reordering crash states see it.
BARRIER_BUG_WORKLOAD = "creat foo\nwrite foo 0 4096\nfsync foo"


def _write(seq, block, *flags, tag=""):
    return IORequest(seq=seq, kind=IOKind.WRITE, block=block, data=b"x",
                     flags=tuple(flags), tag=tag)


def _profile(fs_name, text, bugs=None):
    recorder = WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS)
    return recorder.profile(parse_workload(text))


# --------------------------------------------------------------------------- planners


class TestPrefixPlanner:
    def test_yields_exactly_the_baseline(self):
        window = [_write(1, 10), _write(2, 11)]
        scenarios = list(PrefixPlanner().scenarios(3, window))
        assert len(scenarios) == 1
        assert scenarios[0].is_baseline
        assert scenarios[0].scenario_id == "prefix"
        assert scenarios[0].checkpoint_id == 3


class TestReorderPlanner:
    def test_baseline_comes_first(self):
        scenarios = list(ReorderPlanner(bound=1).scenarios(1, [_write(1, 10)]))
        assert scenarios[0].is_baseline
        assert scenarios[0].scenario_id == "prefix"

    def test_empty_window_yields_only_the_baseline(self):
        assert len(list(ReorderPlanner(bound=3).scenarios(1, []))) == 1

    def test_drops_are_nonempty_suffixes_per_block(self):
        # Two writes to block 10: reachable non-baseline states are
        # "second write lost" and "block never written".
        window = [_write(1, 10), _write(2, 10)]
        dropped = {s.dropped_seqs for s in ReorderPlanner(bound=1).scenarios(1, window)}
        assert dropped == {(), (2,), (1, 2)}

    def test_bound_limits_deviating_blocks(self):
        window = [_write(1, 10), _write(2, 11), _write(3, 12)]
        one = [s for s in ReorderPlanner(bound=1).scenarios(1, window) if not s.is_baseline]
        two = [s for s in ReorderPlanner(bound=2).scenarios(1, window) if not s.is_baseline]
        assert len(one) == 3                       # one block deviates at a time
        assert len(two) == 3 + 3                   # plus every pair of blocks
        blocks = {10: (1,), 11: (2,), 12: (3,)}
        for scenario in two:
            deviating = {b for b, seqs in blocks.items() if set(seqs) & set(scenario.dropped_seqs)}
            assert 1 <= len(deviating) <= 2

    def test_fua_writes_are_never_dropped(self):
        window = [_write(1, 10), _write(2, 11, IOFlag.FUA)]
        for scenario in ReorderPlanner(bound=2).scenarios(1, window):
            assert 2 not in scenario.dropped_seqs

    def test_block_ending_in_a_fua_write_yields_no_duplicate_baseline(self):
        # Dropping a write that a later FUA write to the same block overwrites
        # reproduces the baseline state; the planner must not emit it twice.
        window = [_write(1, 10), _write(2, 10, IOFlag.FUA)]
        scenarios = list(ReorderPlanner(bound=2).scenarios(1, window))
        assert len(scenarios) == 1 and scenarios[0].is_baseline

    def test_only_the_suffix_after_a_fua_write_is_droppable(self):
        window = [_write(1, 10), _write(2, 10, IOFlag.FUA), _write(3, 10)]
        dropped = {s.dropped_seqs for s in ReorderPlanner(bound=2).scenarios(1, window)}
        assert dropped == {(), (3,)}

    def test_scenario_ids_are_stable_and_distinct(self):
        window = [_write(1, 10), _write(2, 11)]
        ids = [s.scenario_id for s in ReorderPlanner(bound=2).scenarios(1, window)]
        assert ids[0] == "prefix"
        assert len(ids) == len(set(ids))
        assert all(s.startswith("reorder[drop=") for s in ids[1:])

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ReorderPlanner(bound=0)

    def test_make_planner_factory(self):
        assert isinstance(make_planner("prefix"), PrefixPlanner)
        planner = make_planner("reorder", reorder_bound=3)
        assert isinstance(planner, ReorderPlanner)
        assert planner.bound == 3

    def test_make_planner_unknown_name_lists_the_registered_planners(self):
        with pytest.raises(WorkloadError) as excinfo:
            make_planner("chaos")
        message = str(excinfo.value)
        assert "chaos" in message
        for name in PLAN_NAMES:
            assert name in message


class TestTornWritePlanner:
    def test_is_a_strict_superset_of_the_reorder_plan(self):
        window = [_write(1, 10), _write(2, 11)]
        reorder = list(ReorderPlanner(bound=2).scenarios(1, window))
        torn = list(TornWritePlanner(torn_bound=2, reorder_bound=2).scenarios(1, window))
        assert torn[: len(reorder)] == [
            CrashScenario(checkpoint_id=s.checkpoint_id, plan="torn",
                          dropped_seqs=s.dropped_seqs, description=s.description)
            for s in reorder
        ]
        assert len(torn) > len(reorder)

    def test_tears_every_sector_cut_of_the_last_write_per_block(self):
        window = [_write(1, 10), _write(2, 10)]
        tears = [s.torn for s in TornWritePlanner(torn_bound=2).scenarios(1, window)
                 if s.torn]
        # Only the last write to the block is torn (tearing an earlier one is
        # unobservable under the later one), once per interior sector cut.
        assert tears == [((2, k),) for k in range(1, SECTORS_PER_BLOCK)]

    def test_empty_window_yields_only_the_baseline(self):
        scenarios = list(TornWritePlanner(torn_bound=2).scenarios(1, []))
        assert len(scenarios) == 1 and scenarios[0].is_baseline

    def test_fua_writes_are_never_torn(self):
        window = [_write(1, 10, IOFlag.FUA)]
        scenarios = list(TornWritePlanner(torn_bound=2).scenarios(1, window))
        assert len(scenarios) == 1 and scenarios[0].is_baseline

    def test_tear_budget_is_spent_on_commit_area_writes_first(self):
        window = [
            _write(1, 10, IOFlag.DATA, tag="data"),
            _write(2, 11, IOFlag.METADATA, tag="inode"),
            _write(3, 12, IOFlag.METADATA, tag="checkpoint"),
        ]
        torn_seqs = [s.torn[0][0]
                     for s in TornWritePlanner(torn_bound=1).scenarios(1, window)
                     if s.torn]
        assert set(torn_seqs) == {3}
        # With budget for two, the next pick is the remaining metadata write.
        torn_seqs = {s.torn[0][0]
                     for s in TornWritePlanner(torn_bound=2).scenarios(1, window)
                     if s.torn}
        assert torn_seqs == {3, 2}

    def test_torn_bound_caps_distinct_torn_writes(self):
        window = [_write(i, 10 + i) for i in range(1, 6)]
        torn_seqs = {s.torn[0][0]
                     for s in TornWritePlanner(torn_bound=2).scenarios(1, window)
                     if s.torn}
        assert len(torn_seqs) == 2

    def test_scenario_ids_are_stable_and_distinct(self):
        window = [_write(1, 10), _write(2, 11)]
        ids = [s.scenario_id
               for s in TornWritePlanner(torn_bound=2, reorder_bound=1).scenarios(1, window)]
        assert ids[0] == "prefix"
        assert len(ids) == len(set(ids))
        assert any(s.startswith("torn[tear=") for s in ids)
        assert any(s.startswith("torn[drop=") for s in ids)

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            TornWritePlanner(torn_bound=0)
        with pytest.raises(ValueError):
            TornWritePlanner(torn_bound=1, reorder_bound=0)

    def test_make_planner_factory(self):
        planner = make_planner("torn", reorder_bound=3, torn_bound=4)
        assert isinstance(planner, TornWritePlanner)
        assert planner.bound == 3
        assert planner.torn_bound == 4

    def test_torn_scenarios_pickle(self):
        window = [_write(1, 10, tag="checkpoint")]
        for scenario in TornWritePlanner(torn_bound=1).scenarios(1, window):
            assert pickle.loads(pickle.dumps(scenario)) == scenario


# --------------------------------------------------------------------------- parity


@pytest.mark.parametrize("fs_name", ALL_FS)
@pytest.mark.parametrize("bugs", [None, BugConfig.none()], ids=["buggy", "patched"])
def test_prefix_states_match_from_scratch_replay_on_full_seq1_space(fs_name, bugs):
    """Incremental construction is byte-for-byte the old per-checkpoint replay."""
    compared = 0
    for workload, profile in differential.profiles(fs_name, bugs):
        generator = CrashStateGenerator(profile)
        for checkpoint_id in profile.checkpoints():
            legacy = replay_until_checkpoint(profile.base_image, profile.io_log, checkpoint_id)
            state = generator.generate(checkpoint_id)
            assert dict(state.device.written_blocks()) == dict(legacy.written_blocks()), (
                f"{fs_name} {workload.display_name()} @ {checkpoint_id}"
            )
            assert state.device.overlay_bytes() == legacy.overlay_bytes()
            compared += 1
    assert compared > 0


def test_replayed_writes_are_the_kept_window_writes_of_built_states():
    """No recorded write is applied again to reach a checkpoint: a baseline
    state forks the recorded device at its marker and applies nothing, and a
    non-baseline state applies the window writes its scenario keeps — once
    its device is built, which a twin's never is."""
    profile = _profile("logfs", "creat a\nfsync a\ncreat b\nfsync b\ncreat c\nsync\ncreat d\nfsync d")
    generator = CrashStateGenerator(profile)
    assert len(list(generator.generate_all())) == len(profile.checkpoints())
    assert generator.replayed_write_requests == 0
    torn = CrashStateGenerator(profile, planner=make_planner("torn"))
    kept = built = 0
    for state in torn.generate_scenarios():
        if state.is_twin or state.scenario.is_baseline:
            continue
        built += 1
        window = torn._record_for(state.checkpoint_id).window
        kept += sum(1 for r in window if r.seq not in state.scenario.dropped_seqs)
    assert built > 0 and kept > 0
    assert torn.replayed_write_requests == kept


def test_unknown_checkpoint_raises_a_harness_error():
    # A stream with no marker for the requested persistence point is
    # truncated or corrupt: that is a harness failure (the test harness
    # wraps it into a HARNESS_ERROR report), never a silent skip.
    profile = _profile("logfs", "creat foo\nfsync foo")
    with pytest.raises(HarnessError):
        CrashStateGenerator(profile).generate(9)


def test_generated_states_are_independent_forks():
    profile = _profile("logfs", "creat foo\nfsync foo", bugs=BugConfig.none())
    generator = CrashStateGenerator(profile)
    first = generator.generate(1)
    second = generator.generate(1)
    # Mounting (which writes the dirty superblock) must not leak between forks.
    assert first.device is not second.device
    assert first.fs is not second.fs
    assert first.fs.exists("foo") and second.fs.exists("foo")


# --------------------------------------------------------------------------- barriers


class TestBarrierRespect:
    """Reorder scenarios never touch writes protected by flush/FUA barriers."""

    def _assert_barriers_respected(self, profile, bound):
        generator = CrashStateGenerator(profile, planner=ReorderPlanner(bound=bound))
        by_seq = {r.seq: r for r in profile.io_log}
        scenarios = list(generator.scenario_plan())
        for scenario in scenarios:
            last_flush = max(
                (r.seq for r in profile.io_log
                 if r.is_flush and r.seq < self._marker_seq(profile, scenario.checkpoint_id)),
                default=0,
            )
            dropped_blocks = set()
            for seq in scenario.dropped_seqs:
                request = by_seq[seq]
                assert request.is_write, "only writes may be dropped"
                assert not request.is_fua, "FUA writes are durable on completion"
                assert request.seq > last_flush, "writes before a flush are durable"
                dropped_blocks.add(request.block)
            assert len(dropped_blocks) <= bound
        return scenarios

    @staticmethod
    def _marker_seq(profile, checkpoint_id):
        for request in profile.io_log:
            if request.is_checkpoint and request.checkpoint_id == checkpoint_id:
                return request.seq
        raise AssertionError(f"no marker for checkpoint {checkpoint_id}")

    @pytest.mark.parametrize("fs_name", ALL_FS)
    def test_on_buggy_filesystems(self, fs_name):
        profile = _profile(fs_name, "creat foo\nwrite foo 0 8192\nfsync foo\nwrite foo 0 4096\nsync")
        self._assert_barriers_respected(profile, bound=2)

    def test_in_flight_window_exists_only_with_the_barrier_bug(self):
        buggy = _profile("flashfs", BARRIER_BUG_WORKLOAD,
                         bugs=BugConfig.only("fsync_no_flush"))
        scenarios = self._assert_barriers_respected(buggy, bound=2)
        assert any(not s.is_baseline for s in scenarios)

        patched = _profile("flashfs", BARRIER_BUG_WORKLOAD, bugs=BugConfig.none())
        assert all(
            s.is_baseline
            for s in CrashStateGenerator(patched, planner=ReorderPlanner(bound=2)).scenario_plan()
        )


# --------------------------------------------------------------------------- end to end


class TestReorderFindsWhatPrefixCannot:
    def test_prefix_plan_provably_misses_the_barrier_bug(self):
        bugs = BugConfig.only("fsync_no_flush")
        workload = parse_workload(BARRIER_BUG_WORKLOAD, name="barrier-bug")

        prefix = CrashMonkey("flashfs", bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS
                             ).test_workload(workload)
        assert prefix.passed  # ordered replay applies the commit record: no bug visible

        reorder = CrashMonkey("flashfs", bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS,
                              crash_plan="reorder", reorder_bound=1).test_workload(workload)
        assert not reorder.passed
        # Dropping the in-flight data write loses data; dropping the in-flight
        # commit record loses the file entirely.
        consequences = {report.consequence for report in reorder.bug_reports}
        assert Consequence.FILE_MISSING in consequences
        assert Consequence.DATA_LOSS in consequences
        for report in reorder.bug_reports:
            assert report.scenario.startswith("reorder[drop=")
            assert all(m.scenario == report.scenario for m in report.mismatches)

    def test_patched_filesystem_passes_under_reorder(self):
        result = CrashMonkey("flashfs", bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS,
                             crash_plan="reorder", reorder_bound=2
                             ).test_workload(parse_workload(BARRIER_BUG_WORKLOAD))
        assert result.passed
        assert result.scenarios_tested == result.checkpoints_tested

    def test_patched_seq1_sample_has_no_reorder_false_positives(self):
        for fs_name in ALL_FS:
            harness = CrashMonkey(fs_name, bugs=BugConfig.none(),
                                  device_blocks=SMALL_DEVICE_BLOCKS,
                                  crash_plan="reorder", reorder_bound=2)
            for workload in AceSynthesizer(seq1_bounds()).sample(25):
                result = harness.test_workload(workload)
                assert result.passed, f"{fs_name}: {workload.display_name()}"

    def test_reorder_is_a_superset_of_prefix_findings(self):
        workload = parse_workload(
            "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar", name="figure1"
        )
        prefix = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS).test_workload(workload)
        reorder = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS,
                              crash_plan="reorder", reorder_bound=2).test_workload(workload)
        prefix_findings = {(r.checkpoint_id, r.consequence) for r in prefix.bug_reports}
        reorder_findings = {(r.checkpoint_id, r.consequence)
                            for r in reorder.bug_reports if r.scenario == "prefix"}
        assert prefix_findings <= reorder_findings

    def test_dedup_groups_reorder_and_prefix_reports_together(self):
        # Same skeleton + consequence from different plans is one bug group.
        bugs = BugConfig.only("fsync_no_flush")
        workload = parse_workload(BARRIER_BUG_WORKLOAD, name="barrier-bug")
        reorder = CrashMonkey("flashfs", bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS,
                              crash_plan="reorder", reorder_bound=2).test_workload(workload)
        reports = reorder.bug_reports
        assert len(reports) >= 1
        groups = group_reports(reports * 2)  # duplicated reports must collapse
        assert len(groups) == len({r.group_key() for r in reports})


#: Workload hitting the flashfs/seqfs missing-flush-before-FUA mechanism: the
#: checkpoint blocks stay in flight under the FUA superblock that commits them.
FUA_BUG_WORKLOAD = "creat foo\nwrite foo 0 4096\nsync"


class TestTornFindsWhatReorderCannot:
    """The reference bug only sector-granular torn writes can reach.

    A cleanly dropped checkpoint block still carries its old generation's
    header: recovery detects the incomplete commit and safely falls back to
    the previous checkpoint, rolling forward from the log.  Only a sector-torn
    block — valid header sector, garbage payload tail — gets past the commit
    record, so ``prefix`` and ``reorder`` provably cannot see the bug.
    """

    @pytest.mark.parametrize("fs_name", ["flashfs", "seqfs"])
    def test_prefix_and_reorder_provably_miss_the_fua_bug(self, fs_name):
        bugs = BugConfig.only("missing_flush_before_fua")
        workload = parse_workload(FUA_BUG_WORKLOAD, name="fua-bug")
        for plan in ("prefix", "reorder"):
            result = CrashMonkey(fs_name, bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS,
                                 crash_plan=plan, reorder_bound=2).test_workload(workload)
            assert result.passed, f"{plan} must not see the FUA bug on {fs_name}"

    @pytest.mark.parametrize("fs_name", ["flashfs", "seqfs"])
    def test_torn_plan_detects_the_fua_bug(self, fs_name):
        bugs = BugConfig.only("missing_flush_before_fua")
        workload = parse_workload(FUA_BUG_WORKLOAD, name="fua-bug")
        result = CrashMonkey(fs_name, bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS,
                             crash_plan="torn", torn_bound=1).test_workload(workload)
        assert not result.passed
        consequences = {report.consequence for report in result.bug_reports}
        assert Consequence.UNMOUNTABLE in consequences
        for report in result.bug_reports:
            assert report.scenario.startswith("torn[tear=")

    @pytest.mark.parametrize("fs_name", ["flashfs", "seqfs"])
    def test_patched_filesystem_passes_the_same_workload_under_torn(self, fs_name):
        result = CrashMonkey(fs_name, bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS,
                             crash_plan="torn", torn_bound=2
                             ).test_workload(parse_workload(FUA_BUG_WORKLOAD))
        assert result.passed


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_patched_full_seq1_space_has_no_torn_false_positives(fs_name):
    """Soundness: correct file systems produce zero torn-plan reports.

    Runs the *full* seq-1 workload space — a correct commit protocol keeps
    every commit-critical block behind a flush or FUA barrier, so the torn
    planner finds nothing to tear and nothing to report.
    """
    patched = differential.run(fs_name, bugs=BugConfig.none(), crash_plan="torn",
                               reorder_bound=2, torn_bound=2)
    assert patched.results
    for result in patched.results:
        assert result.passed, f"{fs_name}: {result.workload.display_name()}"


# --------------------------------------------------------------------------- dedup


#: Workload whose last two persistence points are no-ops (the buggy fdatasync
#: skip path): identical stable fork, window, oracle, and tracker view.
DEDUP_WORKLOAD = (
    "creat foo\nwrite foo 0 8192\nfsync foo\n"
    "falloc foo 8192 8192 keep_size\nfdatasync foo\nfdatasync foo"
)


class TestCrossCheckpointDedup:
    def _run(self, dedup, crash_plan="torn"):
        harness = CrashMonkey("seqfs", bugs=BugConfig.only("falloc_keep_size_fdatasync"),
                              device_blocks=SMALL_DEVICE_BLOCKS,
                              crash_plan=crash_plan, dedup_scenarios=dedup)
        return harness.test_workload(parse_workload(DEDUP_WORKLOAD, name="dedup"))

    def test_identical_checkpoints_are_constructed_once(self):
        deduped = self._run(dedup=True)
        full = self._run(dedup=False)
        assert deduped.deduped_scenarios > 0
        assert full.deduped_scenarios == 0
        assert (deduped.scenarios_tested + deduped.deduped_scenarios
                == full.scenarios_tested)

    def test_dedup_does_not_double_count_bug_reports(self):
        deduped = self._run(dedup=True)
        full = self._run(dedup=False)
        # Both find the bug, but without dedup the byte-identical repeat
        # checkpoint re-reports it.
        assert not deduped.passed and not full.passed
        assert len(full.bug_reports) > len(deduped.bug_reports)
        assert ({r.group_key() for r in full.bug_reports}
                == {r.group_key() for r in deduped.bug_reports})

    def test_dedup_never_skips_a_checkpoint_with_new_expectations(self):
        # The falloc between fsync and the first fdatasync changes the oracle
        # without any block I/O: the first fdatasync checkpoint shares the
        # fsync checkpoint's fork and window but must still be checked.
        result = self._run(dedup=True)
        checked = {r.checkpoint_id for r in result.bug_reports}
        assert 2 in checked, "the no-I/O checkpoint with new expectations must be checked"

    def test_the_verdict_memo_does_not_subsume_the_skip(self):
        """README's measured row: a repeat checkpoint is its own record with
        its own memo, so without the skip its states are mounted again and
        their reports counted twice."""
        def row(result):
            mounted = (result.scenarios_tested - result.memoized_scenarios
                       - result.inherited_verdicts)
            return (result.deduped_scenarios, result.scenarios_tested, mounted,
                    len(result.bug_reports))

        assert row(self._run(dedup=True)) == (1, 2, 2, 1)
        assert row(self._run(dedup=False)) == (0, 3, 3, 2)

    def test_dedup_changes_no_outcome_across_plans(self):
        for plan in ("prefix", "reorder", "torn"):
            deduped = self._run(dedup=True, crash_plan=plan)
            full = self._run(dedup=False, crash_plan=plan)
            assert deduped.passed == full.passed
            assert ({r.group_key() for r in deduped.bug_reports}
                    == {r.group_key() for r in full.bug_reports})


# --------------------------------------------------------------------------- timing split


class TestTimingSplit:
    def test_mountable_state_has_no_fsck_time(self):
        profile = _profile("logfs", "creat foo\nfsync foo", bugs=BugConfig.none())
        state = CrashStateGenerator(profile).generate(1)
        assert state.mountable
        assert state.replay_seconds >= 0
        assert state.mount_seconds > 0
        assert state.fsck_seconds == 0

    def test_unmountable_state_attributes_fsck_time(self):
        profile = _profile(
            "logfs", "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar", bugs=None
        )
        state = CrashStateGenerator(profile).generate(2)
        assert not state.mountable
        assert state.mount_seconds > 0
        assert state.fsck_seconds > 0

    def test_result_aggregates_the_split_phases(self):
        result = CrashMonkey("logfs", bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS
                             ).test_workload(parse_workload("creat foo\nfsync foo"))
        assert result.mount_seconds > 0
        assert result.replay_seconds > 0
        assert result.replayed_write_requests == 0, "a prefix state applies no write"
        assert result.total_seconds >= (
            result.replay_seconds + result.mount_seconds + result.check_seconds
        )


# --------------------------------------------------------------------------- engine


class TestCrashPlanThroughTheEngine:
    def test_scenarios_and_specs_pickle(self):
        scenario = CrashScenario(checkpoint_id=2, plan="reorder", dropped_seqs=(4, 7))
        assert pickle.loads(pickle.dumps(scenario)) == scenario
        spec = HarnessSpec(fs_name="f2fs", crash_plan="reorder", reorder_bound=3,
                           device_blocks=SMALL_DEVICE_BLOCKS)
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        assert rebuilt.spec.crash_plan == "reorder"
        assert rebuilt.spec.reorder_bound == 3

    def test_pool_workers_rebuild_the_reorder_planner(self):
        spec = HarnessSpec(fs_name="f2fs", bugs=BugConfig.only("fsync_no_flush"),
                           device_blocks=SMALL_DEVICE_BLOCKS,
                           crash_plan="reorder", reorder_bound=1)
        workloads = [parse_workload(BARRIER_BUG_WORKLOAD, name=f"wl-{i}") for i in range(6)]
        serial = run_campaign(spec, iter(workloads), processes=1, chunk_size=2)
        pooled = run_campaign(spec, iter(workloads), processes=2, chunk_size=2)

        def findings(run):
            return [
                (r.checkpoint_id, r.consequence, r.scenario)
                for result in run.result.results for r in result.bug_reports
            ]

        assert findings(serial) == findings(pooled)
        assert findings(pooled), "reorder findings must survive the pool boundary"

    def test_campaign_config_threads_the_plan(self):
        config = CampaignConfig(fs_name="f2fs", bugs=BugConfig.only("fsync_no_flush"),
                                bounds=seq1_bounds(), max_workloads=5,
                                device_blocks=SMALL_DEVICE_BLOCKS,
                                crash_plan="reorder", reorder_bound=1)
        campaign = B3Campaign(config)
        assert campaign.spec.crash_plan == "reorder"
        assert campaign.spec.reorder_bound == 1
        assert campaign.harness.spec.crash_plan == "reorder"

    def test_torn_spec_pickles_and_rebuilds_the_planner(self):
        spec = HarnessSpec(fs_name="f2fs", crash_plan="torn", reorder_bound=3,
                           torn_bound=4, dedup_scenarios=False,
                           device_blocks=SMALL_DEVICE_BLOCKS)
        rebuilt = pickle.loads(pickle.dumps(spec)).build()
        assert isinstance(rebuilt.planner, TornWritePlanner)
        assert rebuilt.planner.bound == 3
        assert rebuilt.planner.torn_bound == 4
        assert rebuilt.spec.dedup_scenarios is False

    def test_pool_workers_rebuild_the_torn_planner(self):
        spec = HarnessSpec(fs_name="f2fs", bugs=BugConfig.only("missing_flush_before_fua"),
                           device_blocks=SMALL_DEVICE_BLOCKS,
                           crash_plan="torn", torn_bound=1)
        workloads = [parse_workload(FUA_BUG_WORKLOAD, name=f"wl-{i}") for i in range(6)]
        serial = run_campaign(spec, iter(workloads), processes=1, chunk_size=2)
        pooled = run_campaign(spec, iter(workloads), processes=2, chunk_size=2)

        def findings(run):
            return [
                (r.checkpoint_id, r.consequence, r.scenario)
                for result in run.result.results for r in result.bug_reports
            ]

        assert findings(serial) == findings(pooled)
        assert findings(pooled), "torn findings must survive the pool boundary"
        assert all(scenario.startswith("torn[tear=")
                   for _, _, scenario in findings(pooled))

    def test_campaign_config_threads_the_torn_plan(self):
        config = CampaignConfig(fs_name="f2fs", bounds=seq1_bounds(), max_workloads=5,
                                device_blocks=SMALL_DEVICE_BLOCKS,
                                crash_plan="torn", torn_bound=3, dedup_scenarios=False)
        campaign = B3Campaign(config)
        assert campaign.spec.torn_bound == 3
        assert campaign.spec.dedup_scenarios is False
        assert isinstance(campaign.harness.planner, TornWritePlanner)
        assert campaign.harness.planner.torn_bound == 3
