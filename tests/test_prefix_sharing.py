"""Prefix-shared recording.

Covers the three guarantees the subsystem makes:

* **Recording parity** — prefix-shared profiles are byte-for-byte identical
  (io_log, checkpoints, oracle snapshots, tracker views) to from-scratch
  recording, proven over the full seq-1 space of all four simulated file
  systems.
* **Campaign parity** — bug reports are identical with sharing on vs. off,
  under both the serial and the process-pool backend (sharing changes how
  fast profiles are produced, never what they contain).
* **Sibling repeat states** — a crash state an earlier sibling reached is
  tested again and reported again; the verdict memo spares its mounts and
  report grouping counts it once.
"""

import pytest

from repro.ace import AceSynthesizer, CrashMonkeyAdapter, group_siblings, seq1_bounds
from repro.cli.main import main
from repro.core import B3Campaign, CampaignConfig, CampaignResult
from repro.core.dedup import group_reports
from repro.crashmonkey import CrashMonkey
from repro.crashmonkey.recorder import PlanStep, plan_spine
from repro.engine import chunked_affine
from repro.fs import BugConfig
from repro.workload import parse_workload
from repro.workload.operations import Operation, OpKind, creat, sync, write
from repro.workload.workload import Workload

import differential
from conftest import SIBLING_A, SIBLING_B, SMALL_DEVICE_BLOCKS
from differential import ALL_FS


def _recorders(fs_name, bugs=None):
    return (differential.recorder(fs_name, bugs),
            differential.recorder(fs_name, bugs, share_prefixes=False))


# --------------------------------------------------------------------------- recording parity


@pytest.mark.parametrize("fs_name", ALL_FS)
@pytest.mark.parametrize("bugs", [None, BugConfig.none()], ids=["buggy", "patched"])
def test_shared_profiles_match_from_scratch_on_full_seq1_space(fs_name, bugs):
    """Byte-for-byte parity over the full seq-1 space (the ISSUE's tentpole bar)."""
    shared = differential.recorder(fs_name, bugs)
    differential.assert_profiles_match(shared, fs_name, bugs)
    # The whole point: most profiles resumed from the cache.
    assert shared.prefix_hits > len(differential.space()) // 2


def test_a_resume_that_inherits_a_sibling_s_log_is_caught():
    differential.rejects(differential.recording_fork_sharing("_log"),
                         test_shared_profiles_match_from_scratch_on_full_seq1_space, "logfs", None,
                         match="io_log")


def test_shared_profile_of_an_exact_prefix_workload_is_fully_inherited():
    """A workload equal to a prefix of the previous one records zero new writes."""
    shared, scratch = _recorders("logfs", BugConfig.none())
    long = parse_workload("creat foo\nfsync foo\ncreat bar\nfsync bar", name="long")
    short = parse_workload("creat foo\nfsync foo", name="short")
    shared.profile(long)
    shared_short = shared.profile(short)
    differential.assert_profiles_equal(shared_short, scratch.profile(short))
    assert shared_short.fresh_write_requests == 0
    assert shared_short.prefix_ops_reused == len(short.ops)


def test_prefix_cache_survives_divergence_and_reconvergence():
    shared, scratch = _recorders("seqfs")
    texts = [SIBLING_A, SIBLING_B, SIBLING_A, "creat other\nsync"]
    for index, text in enumerate(texts):
        workload = parse_workload(text, name=f"wl-{index}")
        differential.assert_profiles_equal(shared.profile(workload), scratch.profile(workload),
                                           context=text)
    assert shared.prefix_hits == len(texts) - 1
    assert shared.prefix_writes_reused > 0


def test_clear_prefix_cache_forces_a_cold_profile():
    shared, _ = _recorders("logfs")
    workload = parse_workload(SIBLING_A)
    shared.profile(workload)
    shared.clear_prefix_cache()
    profile = shared.profile(workload)
    assert not profile.prefix_shared
    assert profile.prefix_ops_reused == 0


def test_from_scratch_profiles_report_no_sharing():
    _, scratch = _recorders("logfs")
    profile = scratch.profile(parse_workload(SIBLING_A))
    assert not profile.prefix_shared
    assert profile.prefix_writes_reused == 0
    assert profile.fresh_write_requests == sum(
        1 for request in profile.io_log if request.is_write
    )


def test_shared_profiles_are_independent_of_each_other():
    """A later sibling must not mutate an earlier sibling's profile."""
    shared, _ = _recorders("logfs")
    first = shared.profile(parse_workload(SIBLING_A, name="A"))
    log_before = first.io_log
    oracles_before = dict(first.oracles)
    shared.profile(parse_workload(SIBLING_B, name="B"))
    assert first.io_log == log_before
    assert first.oracles == oracles_before


# --------------------------------------------------------------------------- spine plan


def _plan(kind, workloads):
    """The steps a caller hands over: the stream's plan, a wrong one, or none."""
    if kind == "planned":
        return plan_spine(workloads)
    if kind == "reversed":
        # a plan for the stream backwards: right keys, wrong hand and stored sets
        return plan_spine(workloads[::-1])[::-1]
    if kind == "empty":
        return [PlanStep(w, w.prefix_keys(), stored=frozenset()) for w in workloads]
    return [None] * len(workloads)


@pytest.mark.parametrize("kind", ["planned", "reversed", "empty", "none"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_no_plan_can_change_a_profile(fs_name, kind):
    """Whatever plan the caller hands over, the profile is the from-scratch one."""
    shared = differential.recorder(fs_name)
    space = "seq-1+seq-2" if fs_name == "logfs" else "seq-1"
    differential.assert_profiles_match(shared, fs_name, space_name=space,
                                       plan=lambda workloads: _plan(kind, workloads))
    if kind in ("planned", "none"):
        assert shared.prefix_hits > len(differential.space(space)) // 2
    if kind == "empty":
        # nothing is kept but the root every workload resumes from
        assert shared.prefix_ops_reused == 0 and len(shared._spine) == 1


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_the_plan_keeps_every_hit_and_freezes_less(fs_name):
    """Planned, the spine keeps only nodes a later workload resumes from:
    every profile reuses exactly what freeze-every-depth recording reuses."""
    every_depth, _ = _recorders(fs_name)
    planned, _ = _recorders(fs_name)
    workloads = differential.space("seq-1+seq-2")
    for step in plan_spine(workloads):
        told = planned.profile(step.workload, step=step)
        untold = every_depth.profile(step.workload)
        assert ((told.prefix_shared, told.prefix_ops_reused, told.prefix_writes_reused)
                == (untold.prefix_shared, untold.prefix_ops_reused,
                    untold.prefix_writes_reused)), step.workload.display_name()
    assert planned.prefix_hits == every_depth.prefix_hits == len(workloads) - 1
    executed = sum(len(w.ops) for w in workloads) - every_depth.prefix_ops_reused
    assert every_depth.spine_freezes == executed + 1   # one per executed op + the root
    assert planned.spine_freezes < every_depth.spine_freezes // 2


def test_the_plan_resumes_each_workload_at_its_shared_prefix_with_the_last():
    """Hand-checked on four siblings: ``hand`` is the next resume key, and a
    key is stored only when a workload after the next reads it from the spine
    — or when it lies on the last workload's path, for the next stream."""
    texts = ("creat foo\nwrite foo 0 4096\nfsync foo\nsync",
             "creat foo\nwrite foo 0 4096\nfsync foo\nfsync foo",
             "creat foo\nmkdir d\nsync",
             "creat foo\nwrite foo 0 4096\nsync")
    a, b, c, d = workloads = [parse_workload(text, name=str(n)) for n, text in enumerate(texts)]
    steps = plan_spine(workloads)
    assert [step.workload for step in steps] == workloads
    # b resumes after a's fsync (depth 3), c after creat (1), d after creat (1).
    assert [step.hand for step in steps] == [
        a.prefix_key(3), b.prefix_key(1), c.prefix_key(1), None]
    # c resumed shallower than b, so c reads "after creat" from the spine and a
    # pushes it; d finds c's resume node in hand.  d's path is the root,
    # "creat" and "creat write" (all a's, so a pushes them) and its own sync.
    on_d = {a.prefix_key(0), a.prefix_key(1), a.prefix_key(2)}
    assert [step.stored for step in steps] == [
        frozenset(on_d), frozenset(on_d), frozenset(on_d) - {a.prefix_key(2)}, None]


def test_test_stream_hands_each_workload_its_plan_step(monkeypatch):
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS)
    workloads = list(differential.space("seq-2", 12))
    seen = []
    real_profile = harness.recorder.profile

    def spying(workload, step=None):
        seen.append((workload, step))
        return real_profile(workload, step=step)

    monkeypatch.setattr(harness.recorder, "profile", spying)
    results = list(harness.test_stream(iter(workloads)))
    assert [r.workload for r in results] == workloads
    assert seen == [(step.workload, step) for step in plan_spine(workloads)]
    assert seen[-1][1].stored is None, "the last workload of a stream freezes every depth"
    # A direct call knows no plan.
    harness.test_workload(workloads[0])
    assert seen[-1] == (workloads[0], None)


# --------------------------------------------------------------------------- campaign parity


def test_campaign_reports_identical_with_sharing_on_and_off_both_backends():
    """Full seq-1 campaign on buggy logfs: sharing changes speed, not reports."""
    results = differential.assert_campaigns_agree("share_prefixes", (False, True))
    assert results[(True, 1)].prefix_hits > 0
    assert results[(False, 1)].prefix_hits == 0


# --------------------------------------------------------------------------- sibling repeat states


def _harness(fs_name="logfs", bugs=None, **options):
    return CrashMonkey(fs_name, bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS, **options)


def _from_scratch(fs_name, text, name, bugs=None):
    harness = _harness(fs_name, bugs, share_prefixes=False)
    return harness.test_workload(parse_workload(text, name=name))


class TestSiblingRepeatStates:
    """A state a sibling already reached is tested again, never skipped: the
    verdict memo spares its mounts, and report grouping does the counting."""

    @pytest.mark.parametrize("fs_name", ALL_FS)
    def test_a_sibling_repeat_checkpoint_inherits_its_verdicts(self, fs_name):
        harness = _harness(fs_name)
        harness.test_workload(parse_workload(SIBLING_A, name="A"))
        second = harness.test_workload(parse_workload(SIBLING_B, name="B"))
        scratch = _from_scratch(fs_name, SIBLING_B, "B")
        # B's checkpoint 1 repeats A's: tested in full, its verdict inherited.
        assert second.checkpoints_tested == scratch.checkpoints_tested == 2
        assert second.scenarios_tested == scratch.scenarios_tested
        assert second.inherited_verdicts > 0 == scratch.inherited_verdicts
        assert second.cross_deduped_scenarios == 0
        assert ([r.to_dict() for r in second.bug_reports]
                == [r.to_dict() for r in scratch.bug_reports])

    @pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "no-dedup"])
    def test_sibling_with_new_expectations_after_the_prefix_finds_the_bug(self, dedup):
        # The falloc after the shared prefix changes the oracle without any
        # block I/O (the buggy fdatasync skip path): the sibling's new
        # checkpoint must still be constructed and must still find the bug.
        bugs = BugConfig.only("falloc_keep_size_fdatasync")
        prefix = "creat foo\nwrite foo 0 8192\nfsync foo"
        sibling = prefix + "\nfalloc foo 8192 8192 keep_size\nfdatasync foo"
        harness = _harness("seqfs", bugs, dedup_scenarios=dedup)
        harness.test_workload(parse_workload(prefix, name="prefix"))
        result = harness.test_workload(parse_workload(sibling, name="sibling"))
        assert not result.passed
        assert {r.checkpoint_id for r in result.bug_reports} == {2}

    def test_every_workload_is_enumerated_in_full(self):
        harness = _harness()
        inherited = 0
        for text, name in [(SIBLING_A, "A"), (SIBLING_B, "B"), (SIBLING_A, "A2")]:
            result = harness.test_workload(parse_workload(text, name=name))
            scratch = _from_scratch("logfs", text, name)
            assert result.scenarios_tested == scratch.scenarios_tested, name
            assert result.checkpoints_tested == scratch.checkpoints_tested, name
            inherited += result.inherited_verdicts
        assert inherited > 0

    def test_a_repeated_failing_workload_is_reported_again_and_grouped_once(self):
        text = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar"
        harness = _harness()
        first = harness.test_workload(parse_workload(text, name="w1"))
        second = harness.test_workload(parse_workload(text, name="w2"))
        assert not first.passed and not second.passed
        # Every verdict of the repeat is inherited: no state is mounted again.
        assert second.inherited_verdicts == second.scenarios_tested > 0
        assert ({r.group_key() for r in second.bug_reports}
                == {r.group_key() for r in first.bug_reports})
        groups = group_reports(first.bug_reports + second.bug_reports)
        assert len(groups) == len(group_reports(first.bug_reports))
        for group in groups:
            assert {r.workload.name for r in group.reports} == {"w1", "w2"}


# --------------------------------------------------------------------------- engine affinity


class TestPrefixAffineChunking:
    def test_affine_chunks_preserve_stream_order(self):
        items = [f"{group}-{i}" for group in "abcde" for i in range(7)]
        chunks = list(chunked_affine(iter(items), 4, key=lambda s: s[0]))
        assert [x for chunk in chunks for x in chunk] == items

    def test_groups_are_not_split_below_the_cap(self):
        items = [(group, i) for group in range(5) for i in range(6)]
        chunks = list(chunked_affine(iter(items), 4, key=lambda t: t[0]))
        for chunk in chunks:
            # A group begins mid-chunk only if the whole group fits in it.
            starts = {t[0] for t in chunk}
            for group in starts:
                members = [t for t in items if t[0] == group]
                in_chunk = [t for t in chunk if t[0] == group]
                assert in_chunk == members, "group split across chunks"

    def test_oversized_groups_are_split_at_the_cap(self):
        items = [("g", i) for i in range(30)]
        chunks = list(chunked_affine(iter(items), 4, key=lambda t: t[0]))
        assert max(len(chunk) for chunk in chunks) <= 16  # 4 * chunk_size
        assert [x for chunk in chunks for x in chunk] == items

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            list(chunked_affine([], 0, key=lambda x: x))

    def test_engine_reports_chunk_prefix_hits(self):
        workloads = list(AceSynthesizer(seq1_bounds()).stream(limit=20))
        config = CampaignConfig(fs_name="btrfs", bugs=BugConfig.none(), chunk_size=8,
                                device_blocks=SMALL_DEVICE_BLOCKS, share_prefixes=True)
        outcomes = differential.chunk_outcomes(config, iter(workloads))
        assert len(outcomes) > 1
        whole = CampaignResult("btrfs", "btrfs",
                               results=[test for outcome in outcomes for test in outcome.results])
        assert sum(outcome.prefix_hits for outcome in outcomes) == whole.prefix_hits > 0


# --------------------------------------------------------------------------- adapter surfacing


class TestInvalidWorkloadSurfacing:
    def test_adapt_all_counts_and_records_drops(self):
        adapter = CrashMonkeyAdapter()
        good = parse_workload("creat foo\nfsync foo", name="good")
        bad = Workload(ops=[creat("x")], name="bad")  # no persistence point
        assert adapter.adapt_all([good, bad, good]) == [good, good]
        assert adapter.invalid_workloads == 1
        assert adapter.dropped[0][0] == "bad"
        assert "persistence" in adapter.dropped[0][1]

    def test_campaign_surfaces_dropped_workloads(self):
        good = parse_workload("creat foo\nfsync foo", name="good")
        bad = Workload(ops=[creat("x"), write("x", 0, 10)], name="bad")
        config = CampaignConfig(fs_name="btrfs", bugs=BugConfig.none(),
                                bounds=seq1_bounds(),
                                device_blocks=SMALL_DEVICE_BLOCKS)
        result = B3Campaign(config).run(workloads=[good, bad, good])
        assert result.workloads_tested == 2
        assert result.invalid_workloads == 1
        assert "+1 invalid" in result.summary()

    def test_a_malformed_operation_is_dropped_not_fatal(self):
        good = parse_workload("creat foo\nfsync foo", name="good")
        unknown = Workload(ops=[Operation("warpdrive", ("foo",)), sync()], name="unknown")
        short = Workload(ops=[creat("foo"), Operation(OpKind.WRITE, ("foo",)), sync()],
                         name="short")
        config = CampaignConfig(fs_name="btrfs", bounds=seq1_bounds(),
                                device_blocks=SMALL_DEVICE_BLOCKS)
        result = B3Campaign(config).run(workloads=[good, unknown, short])
        assert result.invalid_workloads == 2
        assert [test.workload.name for test in result.results] == ["good"]

    def test_ace_streams_have_no_invalid_workloads(self):
        config = CampaignConfig(fs_name="btrfs", bugs=BugConfig.none(),
                                bounds=seq1_bounds(), max_workloads=15,
                                device_blocks=SMALL_DEVICE_BLOCKS)
        result = B3Campaign(config).run()
        assert result.invalid_workloads == 0
        assert result.workloads_tested == 15


# --------------------------------------------------------------------------- sibling grouping


class TestSiblingGrouping:
    def test_groups_partition_the_stream_in_order(self):
        synthesizer = AceSynthesizer(seq1_bounds())
        flat = [w.display_name() for group in synthesizer.sibling_groups()
                for w in group]
        assert flat == [w.display_name()
                        for w in AceSynthesizer(seq1_bounds()).stream()]

    def test_groups_share_their_family_key(self):
        for group in AceSynthesizer(seq1_bounds()).sibling_groups(limit=60):
            keys = {w.family_key() for w in group}
            assert len(keys) == 1

    def test_grouping_plain_iterables(self):
        a = parse_workload("creat foo\nfsync foo", name="a")
        b = parse_workload("creat foo\nsync", name="b")
        c = parse_workload("creat bar\nfsync bar", name="c")
        groups = list(group_siblings([a, b, c]))
        assert [len(g) for g in groups] == [2, 1]


# --------------------------------------------------------------------------- results accounting


def test_campaign_result_aggregates_prefix_and_dedup_stats():
    config = CampaignConfig(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                            share_prefixes=True, chunk_size=8)
    workloads = [parse_workload(SIBLING_A, name="A"),
                 parse_workload(SIBLING_B, name="B")]
    result, _ = differential.engine_run(config, iter(workloads))
    assert result.prefix_hits == 1
    assert result.prefix_ops_reused > 0
    assert result.prefix_writes_reused > 0
    assert result.recording_seconds_saved() >= 0.0
    assert "prefix hits" in result.recording_summary()
    assert "repeat-checkpoint scenarios skipped" in result.describe()


# --------------------------------------------------------------------------- CLI


class TestCliFlags:
    def test_campaign_accepts_recording_flags(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--share-prefixes",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("recording:") == 1, "summary line exactly once"

    def test_campaign_no_share_prefixes(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--no-share-prefixes",
        ])
        assert code == 0

    def test_test_command_accepts_flags(self, tmp_path):
        workload_file = tmp_path / "wl.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        assert main(["test", str(workload_file), "--filesystem", "btrfs",
                     "--patched", "--no-share-prefixes"]) == 0

