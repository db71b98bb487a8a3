"""One spine, one serialiser: a thawed node is the resident one, and nothing else.

The recorder holds a ``Spine`` over its ``SpineStore``; ``storage/spill.py``
pickles the nodes as they are, bar the two storage types it knows.  A
serialiser that cannot be caught losing something proves nothing, so:

* **(i) round trip** — every node the spine pushes while the full seq-1 space
  of all four file systems is tested under a zero budget thaws equal to the
  resident object: devices content-equal and sitting on the spine's base, the
  same identity topology (a record's stable fork is the node's, or another
  record's), equal and slab-free logs and windows, checkpoint records without
  their verdict memos.
* **(ii) what a spine costs** — the store never holds more than the cached
  path; a lost spill file costs the node it held, not the spine.
* **(iii) seeded-unsound variants** — a reduce that hands every device
  reference its own copy moves ``deduped_scenarios``; a record whose memo rides
  fails (i); a ``truncate`` that forgets ``drop`` fails (ii); a request reducer
  that skips ``materialize_payload`` raises before a byte is written.
"""

import os

import pytest

from repro.ace import AceSynthesizer, seq2_bounds
from repro.crashmonkey import CrashMonkey
from repro.crashmonkey.verdicts import _CheckpointRecord
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
    return [*node.log, *node.window,
            *(r for record in node.records.values() for r in record.window)]


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
    assert copy.records.keys() == node.records.keys()
    for cid, record in copy.records.items():
        assert "memo" not in vars(record)
        assert (record.checkpoint_id, record.marker) == \
            (node.records[cid].checkpoint_id, node.records[cid].marker)
    plain = {k: v for k, v in vars(node).items()
             if k not in ("device", "stable", "records", "fs", "tracker")}
    assert {k: v for k, v in vars(copy).items() if k in plain} == plain
    assert copy.fs.device is None and copy.fs.logical_state() == node.fs.logical_state()
    assert copy.tracker.views() == node.tracker.views()


def thawed_pushes(patch):
    """Observer: after each workload, every node pushed while testing it
    thaws equal — its records carry their verdict memos by then, which is
    the state a node is in when a real budget evicts it."""
    seen = {"nodes": 0, "slab views": 0, "memos": 0, "shared forks": 0}
    pushed = []
    real_push, real_test = Spine.push, CrashMonkey.test_workload

    def push(spine, node, nbytes, stub):
        pushed.append((spine, node, stub))
        real_push(spine, node, nbytes, stub)

    def test_workload(harness, workload, step=None):
        result = real_test(harness, workload, step)
        for spine, node, stub in pushed[:]:   # a copy: the round trip pushes too
            assert_thaws_equal(node, spine.base)
            assert stub == node.prefix_key
            seen["nodes"] += 1
            seen["slab views"] += any(isinstance(r.data, memoryview) for r in requests_of(node))
            seen["memos"] += any("memo" in vars(r) for r in node.records.values())
            seen["shared forks"] += len(set(topology(devices_of(node)))) < len(devices_of(node))
        pushed.clear()
        return result

    patch.setattr(Spine, "push", push)
    patch.setattr(CrashMonkey, "test_workload", test_workload)
    yield seen


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_every_node_of_the_spine_thaws_equal_on_full_seq1(fs_name):
    run = differential.run(fs_name, observe=thawed_pushes, crash_plan="torn",
                           spine_memory_budget=0)
    assert all(run.seen.values()), run.seen
    assert run.total("spine_rehydrations") > 0


# ------------------------------------------------------------------ (ii) what a spine costs

def test_the_store_holds_the_cached_path_and_nothing_else():
    harness = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS)
    high_water = 0
    for workload in AceSynthesizer(seq2_bounds()).stream(limit=200):
        harness.test_workload(workload)
        high_water = max(high_water, len(harness.spine_store))
        assert len(harness.spine_store) == len(harness.recorder._spine)
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


# ------------------------------------------------------------------ (iii) seeded-unsound variants

#: the last two persistence points are no-ops (the buggy fdatasync skip path):
#: three checkpoint records on one stable fork, inside the siblings' prefix
REPEATED_CHECKPOINTS = (
    "creat foo\nwrite foo 0 8192\nfsync foo\n"
    "falloc foo 8192 8192 keep_size\nfdatasync foo\nfdatasync foo\n"
)


def test_spilled_siblings_dedup_the_same_repeated_checkpoints():
    # The second sibling resumes past the prefix the third shares with it, so
    # the third reads its resume node, and with it the three records, from
    # the spine: thawed, under a zero budget.
    siblings = [parse_workload(REPEATED_CHECKPOINTS + last, name=last)
                for last in ("creat bar\nfsync bar\nmkdir e\nsync",
                             "creat bar\nfsync bar\nmkdir d\nsync", "fsync foo")]

    def run(budget):
        harness = CrashMonkey("seqfs", bugs=BugConfig.only("falloc_keep_size_fdatasync"),
                              device_blocks=SMALL_DEVICE_BLOCKS, crash_plan="torn",
                              spine_memory_budget=budget)
        return harness.test_workloads(siblings)

    resident, spilled = run(None), run(0)
    assert all(result.deduped_scenarios > 0 and result.prefix_shared for result in spilled[1:])
    assert spilled[2].spine_rehydrations > 0
    assert [r.canonical_dict() for r in spilled] == [r.canonical_dict() for r in resident]


def reduce_copying_each_device(patch):
    def reduce(record):
        return _CheckpointRecord, (
            record.checkpoint_id, record.marker, record.baseline.snapshot(name=record.baseline.name),
            record.stable.snapshot(name=record.stable.name), record.window)

    patch.setattr(_CheckpointRecord, "__reduce__", reduce)


def test_a_reduce_that_copies_each_device_reference_is_caught():
    differential.rejects(reduce_copying_each_device,
                         test_spilled_siblings_dedup_the_same_repeated_checkpoints)
    differential.rejects(reduce_copying_each_device,
                         test_every_node_of_the_spine_thaws_equal_on_full_seq1, "seqfs")


def test_a_memo_that_rides_through_a_spill_is_caught():
    differential.rejects(lambda patch: patch.delattr(_CheckpointRecord, "__reduce__"),
                         test_every_node_of_the_spine_thaws_equal_on_full_seq1, "logfs",
                         match="memo")


def test_a_truncate_that_forgets_to_drop_is_caught():
    def truncate(spine, length):
        del spine._keys[length:]
        del spine.stubs[length:]

    differential.rejects(lambda patch: patch.setattr(Spine, "truncate", truncate),
                         test_the_store_holds_the_cached_path_and_nothing_else)


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
