"""Persistence, crash and recovery behaviour of the (patched) file systems.

The patched configurations must recover exactly what they persisted: these
tests build crash states by replaying the recorded I/O and verify the
recovered state, per file system.
"""

import pytest

from repro.fs import BugConfig, get_fs_class, layout
from repro.storage import (BLOCK_SIZE, BlockDevice, CowDevice, RecordingDevice,
                           replay_until_checkpoint)

import differential
from conftest import SMALL_DEVICE_BLOCKS, make_mounted_fs
from differential import ALL_FS


def crash_and_recover(fs_name, fs, recording, base_image, checkpoint):
    """Build the crash state for ``checkpoint`` and mount a fresh instance."""
    device = replay_until_checkpoint(base_image, recording.log, checkpoint)
    recovered = get_fs_class(fs_name)(device, BugConfig.none())
    recovered.mount()
    return recovered


@pytest.mark.parametrize("fs_name", ALL_FS)
class TestRecoveryAfterPersistence:
    def test_fsync_persists_file_data_and_name(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"payload" * 50)
        fs.fsync("A/foo")
        cp = recording.mark_checkpoint()
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        assert recovered.read("A/foo") == b"payload" * 50
        assert recovered.stat("A/foo").size == 350

    def test_sync_persists_everything(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.mkdir("A")
        fs.mkdir("B")
        fs.creat("A/one")
        fs.write("A/one", 0, b"1" * 10)
        fs.creat("B/two")
        fs.setxattr("B/two", "user.k", b"v")
        fs.sync()
        cp = recording.mark_checkpoint()
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        assert recovered.read("A/one") == b"1" * 10
        assert recovered.getxattr("B/two", "user.k") == b"v"
        assert recovered.listdir("") == ["A", "B"]

    def test_unpersisted_changes_after_last_checkpoint_are_not_in_crash_state(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.creat("foo")
        fs.write("foo", 0, b"persisted")
        fs.fsync("foo")
        cp = recording.mark_checkpoint()
        fs.write("foo", 0, b"NOT-SAVED")
        fs.creat("ghost")
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        assert recovered.read("foo") == b"persisted"
        assert not recovered.exists("ghost")

    def test_fdatasync_persists_data_and_size(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.creat("foo")
        fs.write("foo", 0, b"a" * BLOCK_SIZE)
        fs.sync()
        recording.mark_checkpoint()
        fs.write("foo", BLOCK_SIZE, b"b" * BLOCK_SIZE)
        fs.fdatasync("foo")
        cp = recording.mark_checkpoint()
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        assert recovered.stat("foo").size == 2 * BLOCK_SIZE
        assert recovered.read("foo") == b"a" * BLOCK_SIZE + b"b" * BLOCK_SIZE

    def test_rename_persisted_by_fsync_of_renamed_file(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"data")
        fs.sync()
        recording.mark_checkpoint()
        fs.rename("A/foo", "A/bar")
        fs.fsync("A/bar")
        cp = recording.mark_checkpoint()
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        assert recovered.read("A/bar") == b"data"
        # The old name must not linger as a second copy of the same inode.
        if recovered.exists("A/foo"):
            assert recovered.stat("A/foo").ino != recovered.stat("A/bar").ino

    def test_recovery_runs_only_for_unclean_images(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.creat("foo")
        fs.fsync("foo")
        cp = recording.mark_checkpoint()
        device = replay_until_checkpoint(base, recording.log, cp)
        recovered = get_fs_class(fs_name)(device, BugConfig.none())
        recovered.mount()
        assert recovered.recovery_ran or fs_name in ("verifs",)

    def test_safe_unmount_and_remount_preserves_state(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"x" * 123)
        fs.unmount(safe=True)
        remounted = get_fs_class(fs_name)(recording, BugConfig.none())
        remounted.mount()
        assert remounted.read("A/foo") == b"x" * 123
        assert not remounted.recovery_ran

    def test_hard_links_persisted_by_fsync(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.mkdir("A")
        fs.mkdir("B")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"linked")
        fs.link("A/foo", "B/foo")
        fs.fsync("A/foo")
        cp = recording.mark_checkpoint()
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        assert recovered.read("A/foo") == b"linked"
        assert recovered.read("B/foo") == b"linked"
        assert recovered.stat("A/foo").ino == recovered.stat("B/foo").ino

    def test_logical_state_matches_after_sync_crash(self, fs_name):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"z" * 100)
        fs.symlink("A/foo", "lnk")
        fs.sync()
        cp = recording.mark_checkpoint()
        expected = fs.logical_state()
        recovered = crash_and_recover(fs_name, fs, recording, base, cp)
        actual = recovered.logical_state()
        assert set(expected) == set(actual)
        for path, state in expected.items():
            assert actual[path].ftype == state.ftype
            assert actual[path].size == state.size
            assert actual[path].data_hash == state.data_hash


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_mkfs_produces_clean_empty_image(fs_name):
    from repro.storage import BlockDevice
    from repro.fs import layout

    device = BlockDevice(SMALL_DEVICE_BLOCKS)
    get_fs_class(fs_name).mkfs(device, BugConfig.none())
    superblock = layout.read_superblock(device)
    assert superblock.clean_unmount
    assert superblock.generation == 1
    fs = get_fs_class(fs_name)(device, BugConfig.none())
    fs.mount()
    assert fs.listdir("") == []


@pytest.mark.parametrize("fs_name", ALL_FS)
@pytest.mark.parametrize("bugs", [BugConfig.none(), None], ids=["patched", "buggy"])
def test_sync_survives_an_exhausted_log_area(fs_name, bugs):
    """A full log must never abort (or recurse into) the checkpoint commit.

    The checkpoint is what frees the log, so sync() has to succeed even when
    the log area has no room left for another entry — including the torn
    plan's pre-commit journal entry on configurations that skip the flush
    before the FUA superblock.
    """
    from repro.fs import layout

    fs, recording, base = make_mounted_fs(fs_name, bugs)
    fs.creat("foo")
    fs.write("foo", 0, b"x" * BLOCK_SIZE)
    fs.next_log_block = layout.LOG_START + 1024  # no room for any entry
    fs.sync()                                    # must not raise or recurse
    assert fs.next_log_block == layout.LOG_START
    fs.unmount(safe=True)


# --------------------------------------------------------------------------- device contract


class ReadLoggingDevice(CowDevice):
    """A snapshot that remembers which blocks were read from it."""

    def __init__(self, base, name="readlog"):
        super().__init__(base, name=name)
        self.blocks_read = []

    def read_block(self, block):
        self.blocks_read.append(block)
        return super().read_block(block)


def mount_logging_reads(fs_name, image, bugs):
    device = ReadLoggingDevice.from_overlay(image.base, image.overlay_delta())
    fs = get_fs_class(fs_name)(device, bugs)
    fs.mount()
    return fs, device


class TestRecoveryReadsEachBlockOnce:
    """A recovery scan decodes a record from the header block it already
    read: no block is fetched twice, so ``device.reads`` counts the distinct
    blocks recovery touched."""

    @pytest.mark.parametrize("fs_name, area_start", [
        ("logfs", layout.SEGMENT_START),   # LSW segment records
        ("flashfs", layout.LOG_START),     # plain log entries
    ])
    def test_log_replay(self, fs_name, area_start):
        fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
        fs.creat("kept")
        fs.write("kept", 0, b"k" * BLOCK_SIZE)
        fs.sync()
        for name in ("one", "two", "three"):
            fs.creat(name)
            fs.write(name, 0, name.encode() * 1000)
            fs.fsync(name)
        recovered, device = mount_logging_reads(fs_name, recording.target, BugConfig.none())
        assert recovered.recovery_ran and recovered.exists("three")
        assert sum(1 for block in device.blocks_read
                   if area_start <= block < area_start + 16) >= 3
        assert device.reads == len(device.blocks_read) == len(set(device.blocks_read))

    def test_incomplete_commit_falls_back_to_the_previous_checkpoint(self):
        bugs = BugConfig.only("missing_flush_before_fua")
        fs, recording, base = make_mounted_fs("flashfs", bugs)
        fs.creat("first")
        fs.sync()                                   # generation 2, area B
        stale = recording.target.read_block(layout.CHECKPOINT_A_START)  # generation 1
        fs.creat("second")
        fs.sync()                                   # generation 3, area A
        # The crash dropped the in-flight checkpoint block under the FUA
        # superblock that commits it: the block still holds generation 1.
        recording.target.write_block(layout.CHECKPOINT_A_START, stale)
        recovered, device = mount_logging_reads("flashfs", recording.target, bugs)
        assert recovered.generation == 2 and recovered.recovery_ran
        assert recovered.exists("first") and recovered.exists("second")
        assert layout.CHECKPOINT_B_START in device.blocks_read
        assert device.reads == len(device.blocks_read) == len(set(device.blocks_read))


def test_a_type_error_inside_the_device_is_not_mistaken_for_a_plain_device():
    """File systems used to probe for annotation support by catching
    ``TypeError`` and re-issuing the write bare — which also swallowed a
    genuine one and recorded the write stripped of its FUA / metadata / tag."""

    class Broken(RecordingDevice):
        def write_block(self, block, data, **annotations):
            if annotations.get("tag") == "log":
                raise TypeError("a bug inside the device")
            super().write_block(block, data, **annotations)

    pristine = BlockDevice(SMALL_DEVICE_BLOCKS)
    fs_class = get_fs_class("flashfs")
    fs_class.mkfs(pristine, BugConfig.none())
    fs = fs_class(Broken(CowDevice(pristine)), BugConfig.none())
    fs.mount()
    fs.creat("foo")
    with pytest.raises(TypeError, match="a bug inside the device"):
        fs.fsync("foo")


@pytest.mark.parametrize("device_class", [BlockDevice, CowDevice])
def test_plain_devices_accept_and_ignore_the_recording_annotations(device_class):
    device = BlockDevice(8) if device_class is BlockDevice else CowDevice(BlockDevice(8))
    device.write_block(3, b"x", metadata=True, fua=True, tag="superblock")
    device.flush(sync=True)
    assert bytes(device.read_block(3)[:1]) == b"x" and device.flushes == 1


# ------------------------------------------------------------------ where an fsync logs

#: the on-disk area each per-inode-log file system appends its fsync records to
FSYNC_LOG_AREA = {
    "logfs": range(layout.SEGMENT_START, layout.SEGMENT_SUMMARY_BLOCK + 1),
    "flashfs": range(layout.LOG_START, layout.LOG_START + layout.LOG_BLOCKS),
}


@pytest.mark.parametrize("fs_name", sorted(FSYNC_LOG_AREA))
def test_an_fsync_logs_only_inside_its_own_area_on_full_seq1(fs_name):
    """LogFS keeps its log in the segment area and FlashFS in the plain log
    area — unconditionally, whatever the two share; fails if they swap."""
    from repro.workload.executor import WorkloadExecutor
    from repro.workload.operations import OpKind

    area, logged = FSYNC_LOG_AREA[fs_name], 0
    for workload, fs, recording in differential.executions(fs_name):
        seen = 0

        def check(op, index):
            nonlocal seen, logged
            requests, seen = recording.log[seen:], len(recording.log)
            if op.op not in (OpKind.FSYNC, OpKind.FDATASYNC, OpKind.MSYNC):
                return
            records = [r.block for r in requests if r.is_write and r.tag != "data"]
            assert all(block in area for block in records), (workload.display_name(), index)
            logged += len(records)

        WorkloadExecutor(fs).run(workload, after_operation=check)
    assert logged > 0
