"""One spine, one serialiser: a thawed node is the resident one, and nothing else.

Recorder and replay cache each hold a ``Spine`` over the shared ``SpineStore``;
``storage/spill.py`` pickles their nodes as they are, bar the two storage types
it knows.  A serialiser that cannot be caught losing something proves nothing,
so:

* **(i) round trip** — every node either spine pushes while the full seq-1
  space of all four file systems is tested under a zero budget thaws equal to
  the resident object: devices content-equal and sitting on the spine's base,
  the same identity topology, equal and slab-free logs and windows, no verdict
  memo, the analysis cursor back on the node.
* **(ii) what a spine costs** — the store never holds more than the two
  cached paths; a lost spill file costs the node it held, not the spine.
* **(iii) seeded-unsound variants** — a reduce that hands every device
  reference its own copy moves ``deduped_scenarios``; a record whose memo rides
  fails (i); a ``truncate`` that forgets ``drop`` fails (ii); a request reducer
  that skips ``materialize_payload`` raises before a byte is written.
"""

import os

import pytest

from repro.ace import AceSynthesizer, seq2_bounds
from repro.crashmonkey import CrashMonkey, CrashStateGenerator, SharedReplayCache
from repro.crashmonkey.replay_cache import _CheckpointRecord, _ReplayNode
from repro.fs import BugConfig
from repro.storage import CowDevice, IORequest, SpineStore
from repro.storage import spill as spill_module
from repro.storage.spill import Spine
from repro.workload import parse_workload

import differential
from conftest import SMALL_DEVICE_BLOCKS, devices_of, topology
from differential import ALL_FS

SIBLING_PREFIX = "creat foo\nwrite foo 0 8192\nfsync foo\nmkdir d\nsync\n"


# ------------------------------------------------------------------ (i) round trip


def requests_of(node):
    if isinstance(node, _ReplayNode):
        return [*node.window, *(r for record in node.records.values() for r in record.window)]
    return list(node.log)


def thawed(node, base):
    """``node`` after a trip through a spill file, its devices on ``base``."""
    spine = Spine(SpineStore(memory_budget=0))
    spine.base = base
    spine.push(node, 1, stub=None)
    assert spine.store.spills == 1
    try:
        return spine.fetch(0)
    finally:
        spine.store.close()


def assert_thaws_equal(node, base):
    copy = thawed(node, base)
    assert type(copy) is type(node) and copy is not node
    resident, rebuilt = devices_of(node), devices_of(copy)
    assert topology(rebuilt) == topology(resident)
    for a, b in zip(resident, rebuilt):
        assert b is not a and b.base is base and b.name == a.name
        assert b.content_equal(a)
    assert requests_of(copy) == requests_of(node)
    assert not any(isinstance(r.data, memoryview) for r in requests_of(copy))
    if isinstance(node, _ReplayNode):
        assert copy.records.keys() == node.records.keys()
        for cid, record in copy.records.items():
            assert "memo" not in vars(record)
            assert record.checkpoint_id == node.records[cid].checkpoint_id
        assert (copy.index, copy.replayed_writes, copy.elapsed) == \
            (node.index, node.replayed_writes, node.elapsed)
        assert copy.analysis is None
    else:
        plain = {k: v for k, v in vars(node).items() if k not in ("device", "fs", "tracker")}
        assert {k: v for k, v in vars(copy).items() if k in plain} == plain
        assert copy.fs.device is None and copy.fs.logical_state() == node.fs.logical_state()
        assert copy.tracker.views() == node.tracker.views()


def thawed_pushes(patch):
    """Observer: after each workload, every node pushed while testing it
    thaws equal — its records carry their verdict memos by then, which is
    the state a node is in when a real budget evicts it."""
    seen = {"prefix": 0, "replay": 0, "slab views": 0, "memos": 0, "shared forks": 0}
    pushed = []
    real_push, real_test = Spine.push, CrashMonkey.test_workload

    def push(spine, node, nbytes, stub):
        pushed.append((spine, node, stub))
        real_push(spine, node, nbytes, stub)

    def test_workload(harness, workload, step=None):
        result = real_test(harness, workload, step)
        for spine, node, stub in pushed[:]:   # a copy: the round trip pushes too
            assert_thaws_equal(node, spine.base)
            replay = isinstance(node, _ReplayNode)
            seen["replay" if replay else "prefix"] += 1
            seen["slab views"] += any(isinstance(r.data, memoryview) for r in requests_of(node))
            if replay:
                assert stub == (node.index, node.analysis)
                seen["memos"] += any("memo" in vars(r) for r in node.records.values())
                seen["shared forks"] += len(set(topology(devices_of(node)))) < len(devices_of(node))
        pushed.clear()
        return result

    patch.setattr(Spine, "push", push)
    patch.setattr(CrashMonkey, "test_workload", test_workload)
    yield seen


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_every_node_of_both_spines_thaws_equal_on_full_seq1(fs_name):
    run = differential.run(fs_name, observe=thawed_pushes, crash_plan="torn",
                           spine_memory_budget=0)
    assert all(run.seen.values()), run.seen
    assert run.total("spine_rehydrations") > 0


#: three siblings: the second resumes past the end of the prefix the third
#: shares with it, so the third reads its resume node from the trail — the
#: second's build holds only forks it cannot use
SIBLING_SUFFIXES = ("creat bar\nfsync bar\nmkdir e\nsync",
                    "creat bar\nfsync bar\nlink foo baz\nsync",
                    "write foo 0 4096\nsync")


def test_a_resumed_walk_gets_its_cursor_back_from_the_stub():
    """The analysis cursor never reaches a spill file; ``begin`` hands the
    resumed walk a copy of the one the stub kept."""
    recorder = differential.recorder("logfs")
    cache = SharedReplayCache(spine_store=SpineStore(memory_budget=0))
    for suffix in SIBLING_SUFFIXES:
        generator = CrashStateGenerator(recorder.profile(parse_workload(SIBLING_PREFIX + suffix)),
                                        replay_cache=cache, analyze=True)
        generator._ensure_built()
    assert generator.replay_shared and cache.spine_store.rehydrations > 0
    assert generator.mechanism_report is not None
    scratch = CrashStateGenerator(generator.profile, analyze=True)
    scratch._ensure_built()
    assert generator.mechanism_report.to_dict() == scratch.mechanism_report.to_dict()


# ------------------------------------------------------------------ (ii) what a spine costs

def test_the_store_holds_the_two_cached_paths_and_nothing_else():
    harness = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS)
    high_water = 0
    for workload in AceSynthesizer(seq2_bounds()).stream(limit=200):
        harness.test_workload(workload)
        high_water = max(high_water, len(harness.spine_store))
        assert len(harness.spine_store) == \
            len(harness.recorder._spine) + len(harness.replay_cache._spine)
    assert 0 < high_water < 40


def tear(spill_dir, key):
    """Cut the spill file of the store's ``key``-th node in half."""
    (name,) = [name for name in os.listdir(spill_dir) if name.endswith(f"-{key}.node")]
    path = os.path.join(spill_dir, name)
    os.truncate(path, os.path.getsize(path) // 2)


def test_a_lost_prefix_node_costs_one_operation(tmp_path):
    ops = "creat foo\nwrite foo 0 8192\nfsync foo\n"
    first, sibling = (parse_workload(ops + last, name=last) for last in ("sync", "fsync foo"))
    shared = differential.recorder(
        "logfs", spine_store=SpineStore(memory_budget=0, spill_dir=str(tmp_path)))
    scratch = differential.recorder("logfs", share_prefixes=False)
    shared.profile(first)
    assert len(shared._spine) == 5  # the root and one node per operation
    tear(tmp_path, key=3)           # the node the sibling resumes from
    profile = shared.profile(sibling)
    assert profile.prefix_shared and profile.prefix_ops_reused == 2
    assert shared.spine_store.lost == 1
    differential.assert_profiles_equal(profile, scratch.profile(sibling))
    # The spine is whole again: the next sibling resumes at depth 3.
    assert shared.profile(first).prefix_ops_reused == 3
    assert shared.spine_store.lost == 1


def test_a_lost_replay_node_costs_one_barrier(tmp_path):
    recorder = differential.recorder("logfs")
    *earlier, sibling = (recorder.profile(parse_workload(SIBLING_PREFIX + suffix))
                         for suffix in SIBLING_SUFFIXES)

    def build(cache, at_admission=lambda cache: None):
        """``sibling``'s build after the earlier ones'; ``at_admission`` sees
        the trail as the sibling's ``begin`` has admitted it, just before
        reading its resume node."""
        for profile in earlier:
            CrashStateGenerator(profile, replay_cache=cache)._ensure_built()
        real_deepest = Spine.deepest

        def deepest(spine):
            if spine is cache._spine:
                at_admission(cache)
            return real_deepest(spine)

        generator = CrashStateGenerator(sibling, replay_cache=cache)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Spine, "deepest", deepest)
            return generator, generator._ensure_built()

    def tear_the_resume_node(cache):
        shared_nodes = sum(stub.index <= cache._shared_prefix_len(sibling.io_log)
                           for stub in cache._spine.stubs)
        assert shared_nodes >= 3
        assert shared_nodes == len(cache._spine), "a node past the shared prefix was admitted"
        tear(tmp_path, key=shared_nodes - 1)    # the node the sibling resumes from

    whole, whole_records = build(SharedReplayCache(spine_store=SpineStore(memory_budget=0)))
    store = SpineStore(memory_budget=0, spill_dir=str(tmp_path))
    damaged, records = build(SharedReplayCache(spine_store=store), tear_the_resume_node)
    assert store.lost == 1
    assert damaged.replay_shared
    assert 0 < damaged.replay_writes_reused < whole.replay_writes_reused
    scratch = CrashStateGenerator(sibling)._ensure_built()
    for built in (records, whole_records):
        assert built.keys() == scratch.keys()
        for cid, record in built.items():
            assert record.baseline.content_equal(scratch[cid].baseline)
            assert record.stable.content_equal(scratch[cid].stable)
            assert record.window == scratch[cid].window


# ------------------------------------------------------------------ (iii) seeded-unsound variants

#: the last two persistence points are no-ops (the buggy fdatasync skip path):
#: three checkpoint records on one stable fork, inside the siblings' prefix
REPEATED_CHECKPOINTS = (
    "creat foo\nwrite foo 0 8192\nfsync foo\n"
    "falloc foo 8192 8192 keep_size\nfdatasync foo\nfdatasync foo\n"
)


def test_spilled_siblings_dedup_the_same_repeated_checkpoints():
    # The second sibling resumes past the prefix the third shares with it, so
    # the third reads the three records from the trail: thawed, under a zero budget.
    siblings = [parse_workload(REPEATED_CHECKPOINTS + last, name=last)
                for last in ("creat bar\nfsync bar\nmkdir e\nsync",
                             "creat bar\nfsync bar\nmkdir d\nsync", "fsync foo")]

    def run(budget):
        harness = CrashMonkey("seqfs", bugs=BugConfig.only("falloc_keep_size_fdatasync"),
                              device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn",
                              spine_memory_budget=budget)
        return harness.test_workloads(siblings)

    resident, spilled = run(None), run(0)
    assert all(result.deduped_scenarios > 0 and result.replay_shared for result in spilled[1:])
    assert [r.canonical_dict() for r in spilled] == [r.canonical_dict() for r in resident]


def reduce_copying_each_device(patch):
    def reduce(record):
        return _CheckpointRecord, (
            record.checkpoint_id, record.baseline.snapshot(name=record.baseline.name),
            record.stable.snapshot(name=record.stable.name), record.window)

    patch.setattr(_CheckpointRecord, "__reduce__", reduce)


def test_a_reduce_that_copies_each_device_reference_is_caught():
    differential.rejects(reduce_copying_each_device,
                         test_spilled_siblings_dedup_the_same_repeated_checkpoints)
    differential.rejects(reduce_copying_each_device,
                         test_every_node_of_both_spines_thaws_equal_on_full_seq1, "seqfs")


def test_a_memo_that_rides_through_a_spill_is_caught():
    differential.rejects(lambda patch: patch.delattr(_CheckpointRecord, "__reduce__"),
                         test_every_node_of_both_spines_thaws_equal_on_full_seq1, "logfs",
                         match="memo")


def test_a_truncate_that_forgets_to_drop_is_caught():
    def truncate(spine, length):
        del spine._keys[length:]
        del spine.stubs[length:]

    differential.rejects(lambda patch: patch.setattr(Spine, "truncate", truncate),
                         test_the_store_holds_the_two_cached_paths_and_nothing_else)


def test_a_request_reducer_that_skips_materialize_payload_writes_nothing(monkeypatch, tmp_path):
    def reduce(request):
        return IORequest, (request.seq, request.kind, request.block, request.data,
                           request.flags, request.checkpoint_id, request.tag)

    recorder = differential.recorder("logfs")
    log = recorder.profile(parse_workload(SIBLING_PREFIX + "sync")).io_log
    assert any(isinstance(request.data, memoryview) for request in log)
    store = SpineStore(memory_budget=0, spill_dir=str(tmp_path))
    assert store.get(store.put(log, 1)) == log      # the real reducer flattens
    monkeypatch.setitem(spill_module._Freeze.dispatch_table, IORequest, reduce)
    with pytest.raises(TypeError, match="memoryview"):
        store.put(log, 1)
    assert len(os.listdir(tmp_path)) == 1 and store.spills == 1
    assert CowDevice in spill_module._Freeze.dispatch_table
