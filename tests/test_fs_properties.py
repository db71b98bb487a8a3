"""Property-based tests over the simulated file systems (hypothesis).

Two core invariants of the substrate:

* a safe unmount followed by a remount reproduces the logical state exactly,
  for any sequence of operations, on any file system;
* on a *patched* file system, the state recovered from a crash right after a
  ``sync`` equals the logical state at that sync (sync is a full commit).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs import BugConfig, get_fs_class
from repro.storage import replay_until_checkpoint

from conftest import apply_op, make_mounted_fs, op_strategy
from differential import ALL_FS


def _states_equal(left, right):
    if set(left) != set(right):
        return False
    for path, state in left.items():
        other = right[path]
        if (state.ftype, state.size, state.data_hash, state.children, state.xattrs,
                state.symlink_target) != (
                other.ftype, other.size, other.data_hash, other.children, other.xattrs,
                other.symlink_target):
            return False
    return True


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fs_name=st.sampled_from(ALL_FS), ops=st.lists(op_strategy, max_size=15))
def test_safe_unmount_remount_roundtrip(fs_name, ops):
    fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
    for op in ops:
        apply_op(fs, op)
    expected = fs.logical_state()
    fs.unmount(safe=True)
    remounted = get_fs_class(fs_name)(recording, BugConfig.none())
    remounted.mount()
    assert _states_equal(expected, remounted.logical_state())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fs_name=st.sampled_from(ALL_FS), ops=st.lists(op_strategy, max_size=12))
def test_crash_after_sync_recovers_synced_state_on_patched_fs(fs_name, ops):
    fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
    for op in ops:
        apply_op(fs, op)
    fs.sync()
    checkpoint = recording.mark_checkpoint()
    expected = fs.logical_state()
    # More (unpersisted) activity after the crash point must not leak in.
    fs.creat("late-file")
    crash_device = replay_until_checkpoint(base, recording.log, checkpoint)
    recovered = get_fs_class(fs_name)(crash_device, BugConfig.none())
    recovered.mount()
    assert _states_equal(expected, recovered.logical_state())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, max_size=12), fs_name=st.sampled_from(ALL_FS))
def test_directory_sizes_track_entry_counts_in_memory(ops, fs_name):
    """While mounted, every directory's size equals its number of entries."""
    fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
    for op in ops:
        apply_op(fs, op)
    for ino, inode in fs.inodes.items():
        if inode.is_dir:
            assert inode.size == len(inode.children)
