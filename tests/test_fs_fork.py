"""Structural forks of the file system and the tracker: equal, independent, charged.

The prefix-shared recorder keeps a *fork* of the mounted file system and of
the persisted-set tracker per spine node instead of a pickle of them, and a
copy that cannot be caught sharing proves nothing, so:

* **(i) equivalence** — over the full seq-1 space of all four file systems,
  after every operation ``fork(device)`` equals a pickle round-trip of the live
  file system (the serialisation the fork replaced, kept here as reference);
  a Hypothesis run over random operation sequences says the same.
* **(ii) independence** — no mutable object reachable from a fork is reachable
  from its origin.  ``vars()`` is walked generically, so an attribute added to
  any file-system class without teaching ``fork`` about it fails here.  The
  exceptions are the write-once values in :data:`WRITE_ONCE`, and a full seq-1
  run asserts nothing mutates one after it was inserted.  Then each side runs
  on and the other's pickle must not move.
* **(iii) tracker** — ``PersistenceTracker.fork`` and the per-checkpoint view
  equal a pickle round-trip of the live records, and share no record.
* **(iv) estimate** — ``fork_bytes()`` is never below the fork's pickled
  length, and never above twice it.
* **(v) seeded-unsound variants** — a fork sharing ``_committed_paths``' sets
  fails (ii); one sharing ``Inode`` objects fails the shared-vs-from-scratch
  profile parity too, and so does a tracker clone sharing ``persisted_paths``.
* **(vi) a recording run** — a spine node is a detached fork of the recorder's
  live run (``_LiveRun.fork``), and a resume forks it again.  Over the full
  seq-1 space of all four file systems, every such fork reaches nothing
  mutable its origin reaches: the two share only what is frozen at capture
  time (the stable fork, recorded requests, checkpoint records, oracles,
  tracker views and rename records).  A recording device fork sharing its
  log or window fails it.
"""

import copy
import io
import pickle
from enum import Enum

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crashmonkey.oracle import Oracle
from repro.crashmonkey.recorder import _LiveRun
from repro.crashmonkey.tracker import PersistenceTracker, RenameRecord, TrackedFile, TrackerView
from repro.crashmonkey.verdicts import _CheckpointRecord
from repro.fs import BugConfig
from repro.fs.base import AbstractFileSystem
from repro.storage import CowDevice, IORequest, RecordingDevice
from repro.workload import parse_workload
from repro.workload.executor import WorkloadExecutor

import differential
from conftest import apply_op, make_mounted_fs, op_strategy
from differential import ALL_FS

#: attribute -> how many container levels ``fork`` copies before it shares:
#: what lies below is written once and never mutated in place
WRITE_ONCE = {
    "bugs": 0,              # a frozen BugConfig
    "_committed_attrs": 1,  # {ino: attrs}: a commit binds a fresh attrs dict
    "_namespace_ops": 1,    # [NamespaceOp]: appended, never edited
    "_data_ops": 2,         # {ino: [op dict]}: appended, never edited
}

IMMUTABLE = (str, bytes, int, float, bool, type(None), frozenset, Enum)


# ------------------------------------------------------------------ the reference copy


def pickled(fs) -> bytes:
    """The serialisation ``fork`` replaced: the fs with its device cut out."""
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    device = fs.device
    pickler.persistent_id = lambda obj: "device" if device is not None and obj is device else None
    pickler.dump(fs)
    return buffer.getvalue()


def unpickled(blob: bytes, device):
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    unpickler.persistent_load = lambda pid: device
    return unpickler.load()


def plain(value):
    """``value`` as plain comparable data (objects become their attributes)."""
    if isinstance(value, IMMUTABLE):
        return value
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, bytearray):
        return bytes(value)
    return (type(value).__name__, plain(attributes(value)))


def attributes(obj) -> dict:
    if hasattr(obj, "__dict__"):
        return vars(obj)
    return {name: getattr(obj, name) for name in type(obj).__slots__}


def observed(fs) -> dict:
    """Everything a fork must reproduce, device aside."""
    state = {name: plain(value) for name, value in vars(fs).items() if name != "device"}
    state["serialized meta"] = fs._serialize_meta()
    state["logical state"] = fs.logical_state()
    return state


def assert_fork_equals_pickle(fs):
    twin, reference = fs.fork(fs.device), unpickled(pickled(fs), fs.device)
    assert type(twin) is type(fs) and twin.device is fs.device
    assert vars(twin).keys() == vars(fs).keys() == vars(reference).keys()
    assert observed(twin) == observed(reference) == observed(fs)


# ------------------------------------------------------------------ (ii) the walk


def mutable_objects(fs, below_write_once: bool = False) -> dict:
    """``id -> (where, object)`` of the mutable objects reachable from ``vars(fs)``.

    By default the walk stops where :data:`WRITE_ONCE` says the shared,
    write-once values begin; with ``below_write_once`` it returns those
    values (and what they hold) instead.
    """
    found = {}

    def visit(value, where, levels):
        if isinstance(value, IMMUTABLE):
            return
        if isinstance(value, tuple):
            for item in value:
                visit(item, where, levels)
            return
        copied = levels is None or levels > 0
        if copied != below_write_once:
            found[id(value)] = (where, value)
        deeper = None if levels is None else max(levels - 1, 0)
        if isinstance(value, dict):
            children = list(value.values())
        elif isinstance(value, (list, set)):
            children = list(value)
        elif isinstance(value, bytearray):
            children = []
        else:
            children = list(attributes(value).values())
        for child in children:
            visit(child, where, deeper)

    for name, value in vars(fs).items():
        if name != "device":
            visit(value, name, WRITE_ONCE.get(name))
    return found


def test_the_walk_sees_every_kind_of_state():
    fs, _, _ = make_mounted_fs("logfs")
    fs.mkdir("A")
    fs.write("A/foo", 0, b"x" * 10)
    fs.setxattr("A/foo", "user.a", b"v")
    fs.fsync("A/foo")
    fs.link("A/foo", "A/bar")
    copied = {type(obj).__name__ for _, obj in mutable_objects(fs).values()}
    assert {"dict", "list", "set", "bytearray", "Inode", "DataAllocator"} <= copied
    shared = {where for where, _ in mutable_objects(fs, below_write_once=True).values()}
    assert shared == set(WRITE_ONCE)


# ------------------------------------------------------------------ (i) + (ii) over seq-1


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_fork_is_an_equal_and_independent_copy_on_full_seq1(fs_name):
    forks = 0
    for workload, fs, recording in differential.executions(fs_name):
        executor = WorkloadExecutor(fs)
        #: every write-once value ever seen, with a copy taken at first sight
        first_seen = {}
        #: detached forks taken along the way, with their pickle at that time
        detached = []

        def check(op, index):
            nonlocal forks
            assert_fork_equals_pickle(fs)
            twin = fs.fork(None)
            common = mutable_objects(fs).keys() & mutable_objects(twin).keys()
            assert not common, [mutable_objects(fs)[key][0] for key in common]
            detached.append((twin, pickled(twin)))
            forks += 1
            for key, (where, value) in mutable_objects(fs, below_write_once=True).items():
                if key not in first_seen:
                    first_seen[key] = (where, value, copy.deepcopy(value))
            for where, value, original in first_seen.values():
                assert plain(value) == plain(original), f"{where} value mutated in place"

            # The fork runs the rest of the workload; the origin must not notice.
            before = pickled(fs)
            branch = fs.fork(RecordingDevice(recording.target.snapshot()))
            runner = WorkloadExecutor(branch)
            for later, later_op in enumerate(workload.ops[index + 1:], start=index + 1):
                runner.run_operation(later_op, later)
            assert pickled(fs) == before, f"{workload.display_name()} after op {index}"

        check(None, -1)
        executor.run(workload, after_operation=check)
        # ... and the origin ran on; no detached fork may have noticed.
        for twin, before in detached:
            assert pickled(twin) == before, workload.display_name()
    assert forks > 465


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fs_name=st.sampled_from(ALL_FS), patched=st.booleans(),
       ops=st.lists(op_strategy, max_size=15))
def test_fork_equals_pickle_on_random_operation_sequences(fs_name, patched, ops):
    fs, _, _ = make_mounted_fs(fs_name, BugConfig.none() if patched else None)
    for op in ops:
        apply_op(fs, op)
        assert_fork_equals_pickle(fs)
        assert not mutable_objects(fs).keys() & mutable_objects(fs.fork(None)).keys()


# ------------------------------------------------------------------ (iii) tracker


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_tracker_fork_and_views_equal_a_pickle_round_trip_on_full_seq1(fs_name):
    views = 0
    for workload, fs, recording in differential.executions(fs_name):
        tracker = PersistenceTracker(fs)

        def live_records():
            return pickle.loads(pickle.dumps((tracker._files, tracker._dirs, tracker._renames)))

        def on_persistence(op, index):
            nonlocal views
            checkpoint_id = recording.mark_checkpoint()
            tracker.on_persistence(op, index, checkpoint_id)
            view, (files, dirs, renames) = tracker.view_at(checkpoint_id), live_records()
            assert (view.files, view.dirs, view.renames) == (files, dirs, renames)
            views += 1

        def after_operation(op, index):
            twin = tracker.fork(None)
            assert (twin._files, twin._dirs, twin._renames) == live_records()
            assert twin._views == tracker._views and twin._views is not tracker._views
            assert twin._renames is not tracker._renames
            for live, copied in ((tracker._files, twin._files), (tracker._dirs, twin._dirs)):
                assert live is not copied
                for ino, record in live.items():
                    assert record is not copied[ino]
            for ino, record in tracker._files.items():
                assert record.persisted_paths is not twin._files[ino].persisted_paths
            for ino, record in tracker._dirs.items():
                assert record.children is not twin._dirs[ino].children

        WorkloadExecutor(fs).run(workload, on_persistence=on_persistence,
                                 before_operation=tracker.before_operation,
                                 after_operation=after_operation)
    assert views > 400


# ------------------------------------------------------------------ (iv) estimate


@pytest.mark.parametrize("bugs", [None, BugConfig.none()], ids=["buggy", "patched"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_charged_bytes_bound_the_pickled_fork_from_above_within_2x(fs_name, bugs):
    for workload, fs, _ in differential.executions(fs_name, bugs):

        def check(op, index):
            written = len(pickle.dumps(fs.fork(None), protocol=pickle.HIGHEST_PROTOCOL))
            assert written <= fs.fork_bytes() <= 2 * written, (workload.display_name(), index)

        check(None, -1)
        WorkloadExecutor(fs).run(workload, after_operation=check)


# ------------------------------------------------------------------ (v) seeded-unsound variants


def fork_sharing(attribute):
    def variant(patch):
        real_fork = AbstractFileSystem.fork

        def fork(fs, device):
            twin = real_fork(fs, device)
            setattr(twin, attribute, dict(getattr(fs, attribute)))
            return twin

        patch.setattr(AbstractFileSystem, "fork", fork)

    return variant


@pytest.mark.parametrize("attribute", ["_committed_paths", "inodes"])
def test_a_fork_that_shares_what_operations_mutate_is_caught(attribute):
    differential.rejects(fork_sharing(attribute),
                         test_fork_is_an_equal_and_independent_copy_on_full_seq1, "logfs")
    if attribute == "inodes":
        # Shared committed-path sets happen to be harmless on the seq-1 and
        # seq-2 spaces (only the walk above sees them); shared inodes are not.
        differential.rejects(fork_sharing(attribute), differential.assert_profiles_match,
                             differential.recorder("logfs"), "logfs")


def test_a_tracker_clone_that_shares_persisted_paths_is_caught():
    # No seq-1 (or early seq-2) family adds a name to an already persisted
    # inode in place, so the parity is run on a sibling pair that does: the
    # first sibling's ``fdatasync bar`` must not reach the second's record.
    prefix = "creat foo\nfsync foo\nlink foo bar\n"
    siblings = [parse_workload(prefix + last, name=last) for last in
                ("fdatasync bar", "fdatasync foo")]

    def assert_parity():
        shared = differential.recorder("logfs", BugConfig.none())
        scratch = differential.recorder("logfs", BugConfig.none(), share_prefixes=False)
        for workload in siblings:
            differential.assert_profiles_equal(shared.profile(workload), scratch.profile(workload))

    assert_parity()
    differential.rejects(lambda patch: patch.setattr(TrackedFile, "clone", copy.copy),
                         assert_parity)


# ------------------------------------------------------------------ (vi) a recording run

#: what a recording run and its fork may both reach: frozen when captured
#: (a rename record too: the tracker appends them and never edits one)
FROZEN = (IORequest, _CheckpointRecord, Oracle, TrackerView, RenameRecord)


def run_objects(run) -> dict:
    """``id -> (where, object)`` of the mutable objects reachable from ``vars(run)``.

    A frozen object is not walked into, nor is a device (snapshots share
    their frozen overlay layers by design); a file system is walked as
    :func:`mutable_objects` walks it.
    """
    found = {}

    def visit(value, where):
        if isinstance(value, IMMUTABLE) or id(value) in found:
            return
        if isinstance(value, tuple):
            for item in value:
                visit(item, where)
            return
        found[id(value)] = (where, value)
        if isinstance(value, AbstractFileSystem):
            found.update(mutable_objects(value))
            return
        if isinstance(value, FROZEN + (CowDevice,)):
            return
        if isinstance(value, dict):
            children = list(value.values())
        elif isinstance(value, (list, set)):
            children = list(value)
        else:
            children = list(attributes(value).values())
        for child in children:
            visit(child, where)

    for name, value in vars(run).items():
        visit(value, name)
    return found


def assert_run_forks_share_only_frozen_objects(fs_name):
    seen = {"forks": 0, "detached": 0, "kinds": set()}
    real_fork = _LiveRun.fork

    def fork(run, detached=False):
        twin = real_fork(run, detached)
        mine, theirs = run_objects(run), run_objects(twin)
        for key in mine.keys() & theirs.keys():
            where, value = mine[key]
            assert isinstance(value, FROZEN) or value is run.device.stable, \
                f"{fs_name}: {where} shares a {type(value).__name__}"
        assert twin.fs.device is (None if detached else twin.device)
        assert twin.executor.fs is twin.tracker.fs is twin.fs
        seen["forks"] += 1
        seen["detached"] += detached
        seen["kinds"].update(type(value).__name__ for _, value in theirs.values())
        return twin

    recording = differential.recorder(fs_name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_LiveRun, "fork", fork)
        for workload in differential.space():
            recording.profile(workload)
    assert 0 < seen["detached"] < seen["forks"], seen
    assert {"RecordingDevice", "CowDevice", "list", "dict", "WorkloadExecutor",
            "PersistenceTracker", "Inode"} <= seen["kinds"], seen["kinds"]


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_a_recording_run_fork_shares_only_frozen_objects_on_full_seq1(fs_name):
    assert_run_forks_share_only_frozen_objects(fs_name)


@pytest.mark.parametrize("attribute", ["_log", "_window"])
def test_a_recording_device_fork_that_shares_its_log_or_window_is_caught(attribute):
    differential.rejects(differential.recording_fork_sharing(attribute),
                         assert_run_forks_share_only_frozen_objects, "logfs", match="shares a list")
