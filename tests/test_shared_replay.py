"""Shared crash-state replay across sibling workloads.

Covers the guarantees the replay-trie makes:

* **Construction parity** — crash-state builds resumed from the shared replay
  trail produce checkpoint records (baseline fork, stable fork, in-flight
  window) byte-for-byte identical to from-scratch
  construction, proven over the full seq-1 space of all four simulated file
  systems.
* **Campaign parity** — bug reports are identical with replay sharing on
  vs. off, under both the serial and the process-pool backend (sharing
  changes how fast crash states are built, never what they contain).
* **Cache discipline** — divergence drops only the stale suffix of the
  trail, a base-image change resets it, and sharing is
  strictly an optimization (a cold cache builds from scratch and still
  matches).
* **Trail admission** — a build stages its frozen nodes and the next
  sibling's ``begin`` admits only those inside the prefix it shares: under a
  zero budget no other trail node reaches a spill file, and resumes match an
  eager push exactly.  An admission that keeps the nodes past the prefix is
  rejected by the parity lanes above.
"""

import sys

import pytest

from repro.cli.main import main
from repro.crashmonkey import CrashMonkey, CrashStateGenerator, SharedReplayCache
from repro.crashmonkey.replay_cache import _ReplayNode, _ReplayStub
from repro.engine import HarnessSpec, run_campaign
from repro.fs import BugConfig
from repro.storage import SpineStore
from repro.workload import parse_workload

import differential
from conftest import SIBLING_A, SIBLING_B, SMALL_DEVICE_BLOCKS
from differential import ALL_FS


def _assert_records_equal(shared_records, scratch_records, context=""):
    """Byte-for-byte equality of two builds' checkpoint records."""
    assert shared_records.keys() == scratch_records.keys(), context
    for checkpoint_id, shared in shared_records.items():
        scratch = scratch_records[checkpoint_id]
        # Same base image content + equal merged overlays = identical visible
        # bytes on every fork any planner scenario can derive a state from.
        assert (shared.baseline._merged_overlay()
                == scratch.baseline._merged_overlay()), f"baseline {context}@{checkpoint_id}"
        assert (shared.stable._merged_overlay()
                == scratch.stable._merged_overlay()), f"stable {context}@{checkpoint_id}"
        assert shared.window == scratch.window, f"window {context}@{checkpoint_id}"


# ------------------------------------------------------------------ construction parity


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_shared_builds_match_from_scratch_on_full_seq1_space(fs_name):
    """Byte-for-byte parity over the full seq-1 space (the tentpole bar)."""
    cache = SharedReplayCache()
    compared = 0
    for workload, profile in differential.profiles(fs_name):
        shared = CrashStateGenerator(profile, replay_cache=cache)
        scratch = CrashStateGenerator(profile, replay_cache=None)
        _assert_records_equal(shared._ensure_built(), scratch._ensure_built(),
                              context=f"{fs_name} {workload.display_name()}")
        assert not scratch.replay_shared
        compared += 1
    assert compared > 0
    # The whole point: sibling builds resume from the trail.  The rate is
    # file-system dependent (a node is frozen only at flush barriers and
    # checkpoints, so an fs that batches writes until its first flush offers
    # few resume points inside short seq-1 prefixes); the bench asserts the
    # seq-2 write-reduction bar, here we prove the mechanism engages.
    assert cache.replay_hits > 0
    assert cache.replay_writes_reused > 0


def test_resumed_build_replays_only_the_divergent_suffix():
    recorder = differential.recorder("logfs")
    cache = SharedReplayCache()
    first = CrashStateGenerator(recorder.profile(parse_workload(SIBLING_A, name="A")),
                                replay_cache=cache)
    first._ensure_built()
    assert not first.replay_shared

    profile_b = recorder.profile(parse_workload(SIBLING_B, name="B"))
    shared = CrashStateGenerator(profile_b, replay_cache=cache)
    scratch = CrashStateGenerator(profile_b)
    _assert_records_equal(shared._ensure_built(), scratch._ensure_built())
    assert shared.replay_shared
    assert shared.replay_writes_reused > 0
    # Fresh applies + inherited writes = exactly one from-scratch build.
    assert (shared.replayed_write_requests + shared.replay_writes_reused
            == scratch.replayed_write_requests)


def test_exact_prefix_workload_inherits_every_write():
    """A stream that is a prefix of the cached one applies zero new writes."""
    recorder = differential.recorder("logfs", BugConfig.none())
    cache = SharedReplayCache()
    long_profile = recorder.profile(
        parse_workload("creat foo\nfsync foo\ncreat bar\nfsync bar", name="long"))
    CrashStateGenerator(long_profile, replay_cache=cache)._ensure_built()
    short_profile = recorder.profile(parse_workload("creat foo\nfsync foo", name="short"))
    shared = CrashStateGenerator(short_profile, replay_cache=cache)
    _assert_records_equal(shared._ensure_built(),
                          CrashStateGenerator(short_profile)._ensure_built())
    assert shared.replay_shared
    assert shared.replayed_write_requests == 0


def test_trail_survives_divergence_and_reconvergence():
    recorder = differential.recorder("seqfs")
    cache = SharedReplayCache()
    texts = [SIBLING_A, SIBLING_B, SIBLING_A, "creat other\nsync"]
    for index, text in enumerate(texts):
        profile = recorder.profile(parse_workload(text, name=f"wl-{index}"))
        shared = CrashStateGenerator(profile, replay_cache=cache)
        _assert_records_equal(shared._ensure_built(),
                              CrashStateGenerator(profile)._ensure_built(),
                              context=text)
    # B resumes on A's prefix, A's re-run resumes on B's prefix; the fully
    # divergent last stream shares nothing and correctly builds cold (the
    # trail has no empty-prefix node — a cold build *is* the fallback).
    assert cache.replay_hits == 2
    assert not shared.replay_shared


def test_analysis_mode_change_resets_the_trail():
    """A node frozen without an analysis cursor cannot seed an analysing build."""
    recorder = differential.recorder("logfs")
    cache = SharedReplayCache()
    profile = recorder.profile(parse_workload(SIBLING_A, name="A"))
    CrashStateGenerator(profile, replay_cache=cache)._ensure_built()

    analysing = CrashStateGenerator(profile, replay_cache=cache, analyze=True)
    analysing._ensure_built()
    assert not analysing.replay_shared
    assert analysing.mechanism_report is not None
    # And the analysing trail now seeds further analysing builds.
    again = CrashStateGenerator(profile, replay_cache=cache, analyze=True)
    again._ensure_built()
    assert again.replay_shared
    assert again.mechanism_report.to_dict() == analysing.mechanism_report.to_dict()


def test_clear_forces_a_cold_build():
    recorder = differential.recorder("logfs")
    cache = SharedReplayCache()
    profile = recorder.profile(parse_workload(SIBLING_A, name="A"))
    CrashStateGenerator(profile, replay_cache=cache)._ensure_built()
    cache.clear()
    cold = CrashStateGenerator(profile, replay_cache=cache)
    cold._ensure_built()
    assert not cold.replay_shared
    assert cold.replay_writes_reused == 0


def test_sharing_works_without_prefix_shared_recording():
    """Content equality (not object identity) is enough to match a prefix."""
    recorder = differential.recorder("logfs", share_prefixes=False)
    cache = SharedReplayCache()
    CrashStateGenerator(recorder.profile(parse_workload(SIBLING_A, name="A")),
                        replay_cache=cache)._ensure_built()
    profile_b = recorder.profile(parse_workload(SIBLING_B, name="B"))
    shared = CrashStateGenerator(profile_b, replay_cache=cache)
    _assert_records_equal(shared._ensure_built(),
                          CrashStateGenerator(profile_b)._ensure_built())
    assert shared.replay_shared


# ------------------------------------------------------------------ harness and campaign parity


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_harness_reports_identical_with_sharing_on_and_off(fs_name):
    shared = differential.run(fs_name, crash_plan="torn")
    scratch = differential.reference(fs_name, crash_plan="torn", share_replay=False)
    differential.assert_same(shared, scratch)
    assert scratch.total("replay_shared") == 0
    if fs_name != "flashfs":
        # flashfs batches writes until its first flush, so short seq-1
        # prefixes rarely contain a resume point; parity above still holds.
        assert shared.total("replay_shared") > 0
    assert CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS).replay_cache is not None
    assert CrashMonkey(fs_name, device_blocks=SMALL_DEVICE_BLOCKS,
                       share_replay=False).replay_cache is None


def test_campaign_reports_identical_with_sharing_on_and_off_both_backends():
    results = differential.assert_campaigns_agree("share_replay", (False, True))
    assert results[(True, 1)].replay_hits > 0
    assert results[(False, 1)].replay_hits == 0


# ------------------------------------------------------------------ trail admission


def eager_push(patch):
    """The trail before admission existed: ``freeze`` pushes every fork."""
    def freeze(cache, walk, cursor):
        node = walk.fork(cursor)
        cache._spine.push(node, node.spine_bytes(), _ReplayStub(node.index, node.analysis))

    patch.setattr(SharedReplayCache, "freeze", freeze)


def spilled_trail_nodes(patch):
    """Observer: ``(index, shared)`` of every replay-trail node written to a
    spill file, ``shared`` being the stream prefix the sibling whose
    ``begin`` ran last shares with its predecessor."""
    seen = {"shared": None, "written": []}
    real_begin, real_evict = SharedReplayCache.begin, SpineStore._evict

    def begin(cache, profile, *args):
        seen["shared"] = cache._shared_prefix_len(profile.io_log)
        return real_begin(cache, profile, *args)

    def evict(store, key, entry):
        node, unwritten = entry.node, entry.path is None
        real_evict(store, key, entry)
        if unwritten and entry.path is not None and isinstance(node, _ReplayNode):
            seen["written"].append((node.index, seen["shared"]))

    patch.setattr(SharedReplayCache, "begin", begin)
    patch.setattr(SpineStore, "_evict", evict)
    yield seen


def test_only_trail_nodes_the_next_sibling_shares_reach_a_spill_file():
    spec = dict(space="seq-3-data-family", spine_memory_budget=0, observe=spilled_trail_nodes)
    admitted = differential.run("logfs", **spec)
    eager = differential.run("logfs", variant=eager_push, **spec)
    written = admitted.seen["written"]
    assert written and all(index <= shared for index, shared in written), written
    assert len(written) < len(eager.seen["written"])
    for counter in ("replay_shared", "replay_writes_reused"):
        assert admitted.total(counter) == eager.total(counter) > 0, counter
    differential.assert_same(admitted, eager)


def admission_past_the_shared_prefix(patch):
    """``begin`` taking every stream to share all of the last one: each staged
    node is admitted and the truncate keeps everything, so a sibling resumes
    from the previous build's deepest node, past where their streams part."""
    patch.setattr(SharedReplayCache, "_shared_prefix_len", lambda cache, log: sys.maxsize)


def test_an_admission_past_the_shared_prefix_is_caught():
    differential.rejects(admission_past_the_shared_prefix,
                         test_shared_builds_match_from_scratch_on_full_seq1_space, "logfs")
    differential.rejects(admission_past_the_shared_prefix,
                         test_harness_reports_identical_with_sharing_on_and_off, "logfs")


# ------------------------------------------------------------------ accounting


def test_campaign_result_aggregates_replay_stats():
    spec = HarnessSpec(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                       share_replay=True)
    workloads = [parse_workload(SIBLING_A, name="A"),
                 parse_workload(SIBLING_B, name="B")]
    run = run_campaign(spec, iter(workloads), processes=1, chunk_size=8)
    result = run.result
    assert result.replay_hits == 1
    assert result.replay_writes_reused > 0
    assert result.replay_seconds_saved() >= 0.0
    assert "trail hits" in result.replay_summary()
    assert "replay:" in result.describe()
    # Engine chunk stats agree with the aggregated result.
    assert sum(stats.replay_hits for stats in run.chunks) == result.replay_hits


def test_describe_omits_replay_line_without_hits():
    spec = HarnessSpec(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS,
                       share_replay=False)
    run = run_campaign(spec, iter([parse_workload(SIBLING_A, name="A")]),
                       processes=1, chunk_size=8)
    assert run.result.replay_hits == 0
    assert "trail hits" not in run.result.describe()


# ------------------------------------------------------------------ CLI


class TestCliFlags:
    def test_campaign_accepts_replay_flags(self, capsys):
        code = main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--share-replay",
        ])
        assert code == 0

    def test_campaign_no_share_replay(self):
        assert main([
            "campaign", "--filesystem", "btrfs", "--preset", "seq-1",
            "--limit", "10", "--patched", "--no-share-replay",
        ]) == 0

    def test_test_command_accepts_replay_flags(self, tmp_path):
        workload_file = tmp_path / "wl.wl"
        workload_file.write_text("creat foo\nfsync foo\n")
        assert main(["test", str(workload_file), "--filesystem", "btrfs",
                     "--patched", "--no-share-replay"]) == 0
        assert main(["test", str(workload_file), "--filesystem", "btrfs",
                     "--patched", "--share-replay"]) == 0
