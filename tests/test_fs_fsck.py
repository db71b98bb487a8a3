"""Offline checker (fsck) behaviour."""

import copy

from repro.fs import BugConfig, LogFS, SeqFS, check_device, repair
from repro.storage import BLOCK_SIZE, BlockDevice, replay_until_checkpoint

from conftest import SMALL_DEVICE_BLOCKS, make_mounted_fs


def test_fresh_image_without_mount_is_clean():
    device = BlockDevice(SMALL_DEVICE_BLOCKS)
    LogFS.mkfs(device, BugConfig.none())
    report = check_device(device)
    assert report.clean
    assert report.errors == []


def test_unformatted_device_is_reported():
    report = check_device(BlockDevice(SMALL_DEVICE_BLOCKS))
    assert not report.clean
    assert any("superblock" in error for error in report.errors)


def test_mounted_image_is_flagged_as_dirty():
    fs, recording, base = make_mounted_fs("logfs", BugConfig.none())
    fs.creat("foo")
    fs.sync()
    report = check_device(recording)
    assert not report.clean
    assert any("not cleanly unmounted" in error for error in report.errors)


def test_safe_unmount_restores_cleanliness():
    fs, recording, base = make_mounted_fs("logfs", BugConfig.none())
    fs.creat("foo")
    fs.unmount(safe=True)
    report = check_device(recording)
    assert report.clean


def _figure1_crash_device():
    """Build the un-mountable Figure-1 crash state on the buggy LogFS."""
    fs, recording, base = make_mounted_fs("logfs")
    fs.creat("foo")
    fs.link("foo", "bar")
    fs.sync()
    recording.mark_checkpoint()
    fs.unlink("bar")
    fs.creat("bar")
    fs.fsync("bar")
    cp = recording.mark_checkpoint()
    return replay_until_checkpoint(base, recording.log, cp)


def test_repair_recovers_an_unmountable_image_to_its_last_checkpoint():
    device = _figure1_crash_device()
    repaired_fs, report = repair(LogFS, device)
    assert report.repaired
    assert repaired_fs is not None
    # After dropping the unreplayable log the image reverts to the last sync:
    # foo and bar are the hard-linked pair from before the crash.
    assert repaired_fs.exists("foo")
    assert repaired_fs.exists("bar")
    assert repaired_fs.stat("foo").ino == repaired_fs.stat("bar").ino


def test_check_detects_dangling_directory_entries():
    fs, recording, base = make_mounted_fs("logfs", BugConfig.none())
    fs.mkdir("A")
    fs.creat("A/foo")
    fs.sync()
    # Corrupt the image: rewrite the checkpoint with a child pointing nowhere.
    from repro.fs import layout

    superblock = layout.read_superblock(recording)
    untouched = recording.target.snapshot(name="untouched")
    # A decoded checkpoint is the decode memo's shared object: copy it first.
    payload = copy.deepcopy(layout.read_checkpoint(recording, superblock))
    for meta in payload["inodes"].values():
        if meta["ftype"] == "dir" and meta["children"]:
            meta["children"]["ghost"] = 9999
    layout.write_checkpoint(recording, payload, superblock.generation, superblock.checkpoint_area)
    report = check_device(recording)
    assert not report.clean
    assert any("missing inode" in error for error in report.errors)
    # The untouched image still decodes to what it holds.
    reread = layout.read_checkpoint(untouched, superblock)
    assert not any("ghost" in meta["children"]
                   for meta in reread["inodes"].values() if meta["ftype"] == "dir")


def test_check_detects_wrong_link_counts():
    fs, recording, base = make_mounted_fs("logfs", BugConfig.none())
    fs.creat("foo")
    fs.link("foo", "bar")
    fs.sync()
    from repro.fs import layout

    superblock = layout.read_superblock(recording)
    untouched = recording.target.snapshot(name="untouched")
    payload = copy.deepcopy(layout.read_checkpoint(recording, superblock))
    for meta in payload["inodes"].values():
        if meta["ftype"] == "file":
            meta["nlink"] = 1  # should be 2
    layout.write_checkpoint(recording, payload, superblock.generation, superblock.checkpoint_area)
    report = check_device(recording)
    assert not report.clean
    assert any("nlink" in error for error in report.errors)
    reread = layout.read_checkpoint(untouched, superblock)
    assert [meta["nlink"] for meta in reread["inodes"].values() if meta["ftype"] == "file"] == [2]


def _image_with_zeroed_superblock(fs_name):
    fs, recording, base = make_mounted_fs(fs_name, BugConfig.none())
    fs.creat("foo")
    fs.sync()
    recording.write_block(0, bytes(BLOCK_SIZE))
    return recording


def test_repair_of_an_image_without_a_superblock_reports_instead_of_raising():
    # The crash-state generator calls repair() from inside its handler for an
    # un-mountable state: an exception here would end the campaign.
    repaired_fs, report = repair(LogFS, _image_with_zeroed_superblock("logfs"))
    assert repaired_fs is None
    assert not report.clean and not report.repaired
    assert any("no superblock" in error for error in report.errors)
    assert any("repair failed" in error for error in report.errors)


def test_repair_mounts_a_replicated_superblock_from_the_surviving_copy():
    repaired_fs, report = repair(SeqFS, _image_with_zeroed_superblock("seqfs"))
    assert report.repaired
    assert repaired_fs is not None and repaired_fs.exists("foo")
