"""Prefix-shared recording and cross-workload dedup.

Covers the three guarantees the subsystem makes:

* **Recording parity** — prefix-shared profiles are byte-for-byte identical
  (io_log, checkpoints, oracle snapshots, tracker views) to from-scratch
  recording, proven over the full seq-1 space of all four simulated file
  systems.
* **Campaign parity** — bug reports are identical with sharing on vs. off,
  under both the serial and the process-pool backend (sharing changes how
  fast profiles are produced, never what they contain).
* **Cross-workload dedup soundness** — a sibling that adds new expectations
  after the shared prefix is never skipped, and patched file systems still
  produce zero reports with dedup + sharing enabled.
"""

import pytest

from repro.ace import AceSynthesizer, CrashMonkeyAdapter, group_siblings, seq1_bounds
from repro.cli.main import main
from repro.core import B3Campaign, CampaignConfig
from repro.crashmonkey import CrashMonkey, CrossWorkloadCache
from repro.engine import HarnessSpec, chunked_affine, run_campaign
from repro.fs import BugConfig
from repro.workload import parse_workload
from repro.workload.operations import creat, sync, write
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


# --------------------------------------------------------------------------- lookahead


def _upcoming(kind, workload, true_next):
    """What the caller claims comes next: right, wrong, or nothing."""
    if kind == "next":
        return true_next
    if kind == "unrelated":
        return parse_workload("mkdir lookahead-unrelated\nsync", name="unrelated")
    if kind == "extension":
        return Workload(ops=list(workload.ops) + [creat("lookahead-extension"), sync()],
                        name="extension")
    return None


@pytest.mark.parametrize("kind", ["next", "unrelated", "extension", "none"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_no_lookahead_can_change_a_profile(fs_name, kind):
    """Whatever ``upcoming`` claims, the profile is the from-scratch one."""
    shared = differential.recorder(fs_name)
    space = "seq-1+seq-2" if fs_name == "logfs" else "seq-1"
    differential.assert_profiles_match(
        shared, fs_name, space_name=space,
        upcoming=lambda workload, true_next: _upcoming(kind, workload, true_next))
    if kind != "unrelated":
        assert shared.prefix_hits > len(differential.space(space)) // 2


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_true_lookahead_keeps_every_hit_and_freezes_less(fs_name):
    """Told the real next workload, the spine drops only nodes nobody reads:
    every profile reuses exactly what freeze-every-depth recording reuses."""
    every_depth, _ = _recorders(fs_name)
    lookahead, _ = _recorders(fs_name)
    workloads = differential.space("seq-1+seq-2")
    for workload, true_next in zip(workloads, workloads[1:] + (None,)):
        told = lookahead.profile(workload, upcoming=true_next)
        untold = every_depth.profile(workload)
        assert ((told.prefix_shared, told.prefix_ops_reused, told.prefix_writes_reused)
                == (untold.prefix_shared, untold.prefix_ops_reused,
                    untold.prefix_writes_reused)), workload.display_name()
    assert lookahead.prefix_hits == every_depth.prefix_hits == len(workloads) - 1
    executed = sum(len(w.ops) for w in workloads) - every_depth.prefix_ops_reused
    assert every_depth.spine_freezes == executed + 1   # one per executed op + the root
    assert lookahead.spine_freezes < every_depth.spine_freezes // 2


def test_test_stream_hands_each_workload_its_successor(monkeypatch):
    harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS)
    workloads = list(differential.space("seq-2", 12))
    seen = []
    real_profile = harness.recorder.profile

    def spying(workload, upcoming=None):
        seen.append((workload, upcoming))
        return real_profile(workload, upcoming=upcoming)

    monkeypatch.setattr(harness.recorder, "profile", spying)
    results = list(harness.test_stream(iter(workloads)))
    assert [r.workload for r in results] == workloads
    assert seen == list(zip(workloads, workloads[1:] + [None]))
    # A direct call knows no successor.
    harness.test_workload(workloads[0])
    assert seen[-1] == (workloads[0], None)


# --------------------------------------------------------------------------- campaign parity


def test_campaign_reports_identical_with_sharing_on_and_off_both_backends():
    """Full seq-1 campaign on buggy logfs: sharing changes speed, not reports."""
    results = differential.assert_campaigns_agree("share_prefixes", (False, True))
    assert results[(True, 1)].prefix_hits > 0
    assert results[(False, 1)].prefix_hits == 0


# --------------------------------------------------------------------------- cross-workload dedup


class TestCrossWorkloadDedup:
    def _harness(self, fs_name="logfs", bugs=None, dedup=True, **kwargs):
        kwargs.setdefault("share_prefixes", True)
        return CrashMonkey(fs_name, bugs=bugs, device_blocks=SMALL_DEVICE_BLOCKS,
                           cross_workload_dedup=dedup, **kwargs)

    def test_sibling_repeat_checkpoints_are_skipped_once(self):
        harness = self._harness()
        first = harness.test_workload(parse_workload(SIBLING_A, name="A"))
        second = harness.test_workload(parse_workload(SIBLING_B, name="B"))
        assert first.cross_deduped_scenarios == 0
        # B's checkpoint 1 is byte-identical to A's checkpoint 1 (same prefix,
        # same expectations): skipped, counted, never re-constructed.
        assert second.cross_deduped_scenarios == 1
        assert second.checkpoints_tested == 2
        assert harness.cross_cache.hits == 1

    def test_sibling_with_new_expectations_after_the_prefix_is_never_skipped(self):
        # The falloc after the shared prefix changes the oracle without any
        # block I/O (the buggy fdatasync skip path): the sibling's new
        # checkpoint must still be constructed and must still find the bug.
        bugs = BugConfig.only("falloc_keep_size_fdatasync")
        prefix = "creat foo\nwrite foo 0 8192\nfsync foo"
        sibling = prefix + "\nfalloc foo 8192 8192 keep_size\nfdatasync foo"
        for dedup in (True, False):
            harness = self._harness("seqfs", bugs=bugs, dedup=dedup)
            harness.test_workload(parse_workload(prefix, name="prefix"))
            result = harness.test_workload(parse_workload(sibling, name="sibling"))
            assert not result.passed, f"dedup={dedup}"
            assert {r.checkpoint_id for r in result.bug_reports} == {2}
        # Only the shared checkpoint was skipped, never the new one.
        assert result.cross_deduped_scenarios == 0

    def test_dedup_counts_add_up_to_the_full_enumeration(self):
        with_dedup = self._harness(dedup=True)
        without = self._harness(dedup=False)
        texts = [(SIBLING_A, "A"), (SIBLING_B, "B"), (SIBLING_A, "A2")]
        total_tested = total_skipped = total_full = 0
        for text, name in texts:
            result = with_dedup.test_workload(parse_workload(text, name=name))
            full = without.test_workload(parse_workload(text, name=name))
            total_tested += result.scenarios_tested
            total_skipped += result.cross_deduped_scenarios
            total_full += full.scenarios_tested
        assert total_skipped > 0
        assert total_tested + total_skipped == total_full

    def test_identical_recurring_states_are_counted_once_not_re_reported(self):
        # A repeated failing workload re-reports every bug without the cache
        # and reports it exactly once with it.
        workload_text = "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar"
        deduped = self._harness(dedup=True)
        first = deduped.test_workload(parse_workload(workload_text, name="w1"))
        second = deduped.test_workload(parse_workload(workload_text, name="w2"))
        assert not first.passed
        assert second.scenarios_tested == 0
        assert not second.bug_reports
        assert second.cross_deduped_scenarios == first.scenarios_tested

    @pytest.mark.parametrize("fs_name", ALL_FS)
    def test_patched_full_seq1_space_stays_silent_with_dedup_and_sharing(self, fs_name):
        """Soundness: dedup + sharing never invent a report on a correct fs."""
        patched = differential.run(fs_name, bugs=BugConfig.none(), cross_workload_dedup=True,
                                   crash_plan="torn", reorder_bound=2, torn_bound=2)
        for result in patched.results:
            assert result.passed, f"{fs_name}: {result.workload.display_name()}"
        assert patched.total("prefix_shared") > 0

    def test_cache_cap_degrades_to_fewer_hits_never_to_skipping(self):
        cache = CrossWorkloadCache(max_entries=1)
        assert cache.first_sighting(("a",))
        assert cache.first_sighting(("b",))  # over cap: still tested
        assert cache.first_sighting(("b",))  # not remembered -> re-tested
        assert not cache.first_sighting(("a",))
        assert len(cache) == 1


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
        spec = HarnessSpec(fs_name="btrfs", bugs=BugConfig.none(),
                           device_blocks=SMALL_DEVICE_BLOCKS, share_prefixes=True)
        run = run_campaign(spec, iter(workloads), processes=1, chunk_size=8)
        assert sum(stats.prefix_hits for stats in run.chunks) == run.result.prefix_hits
        assert run.result.prefix_hits > 0


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
    spec = HarnessSpec(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                       share_prefixes=True, cross_workload_dedup=True)
    workloads = [parse_workload(SIBLING_A, name="A"),
                 parse_workload(SIBLING_B, name="B")]
    run = run_campaign(spec, iter(workloads), processes=1, chunk_size=8)
    result = run.result
    assert result.prefix_hits == 1
    assert result.prefix_ops_reused > 0
    assert result.prefix_writes_reused > 0
    assert result.cross_deduped_scenarios == 1
    assert result.recording_seconds_saved() >= 0.0
    assert "prefix hits" in result.recording_summary()
    assert "cross-workload" in result.describe()


# --------------------------------------------------------------------------- CLI


class TestCliFlags:
    def test_campaign_accepts_recording_flags(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--share-prefixes",
            "--cross-workload-dedup",
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
        assert main(["test", str(workload_file), "--filesystem", "btrfs",
                     "--patched", "--cross-workload-dedup"]) == 0

