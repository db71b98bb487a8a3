"""Persisted-set tracker semantics."""

import pytest

from repro.crashmonkey.tracker import PersistenceTracker
from repro.fs import BugConfig
from repro.workload import ops

from conftest import make_mounted_fs


@pytest.fixture
def fs():
    filesystem, recording, base = make_mounted_fs("logfs", BugConfig.none())
    return filesystem


@pytest.fixture
def tracker(fs):
    return PersistenceTracker(fs)


class TestFsyncTracking:
    def test_fsync_tracks_all_hard_links(self, fs, tracker):
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"x" * 100)
        fs.link("A/foo", "A/bar")
        fs.fsync("A/foo")
        tracker.on_persistence(ops.fsync("A/foo"), 0, 1)
        view = tracker.view_at(1)
        record = next(iter(view.files.values()))
        assert record.persisted_paths == {"A/foo", "A/bar"}
        assert record.size == 100
        assert record.expected_data == b"x" * 100

    def test_fsync_of_directory_tracks_entries(self, fs, tracker):
        fs.mkdir("A")
        fs.creat("A/one")
        fs.creat("A/two")
        fs.fsync("A")
        tracker.on_persistence(ops.fsync("A"), 0, 1)
        view = tracker.view_at(1)
        record = next(iter(view.dirs.values()))
        assert set(record.children) == {"one", "two"}
        assert record.path == "A"

    def test_later_fsync_replaces_stale_paths(self, fs, tracker):
        fs.creat("foo")
        fs.fsync("foo")
        tracker.on_persistence(ops.fsync("foo"), 0, 1)
        fs.rename("foo", "bar")
        fs.fsync("bar")
        tracker.on_persistence(ops.fsync("bar"), 2, 2)
        record = next(iter(tracker.view_at(2).files.values()))
        assert record.persisted_paths == {"bar"}
        # The earlier view still remembers the old expectation.
        old_record = next(iter(tracker.view_at(1).files.values()))
        assert old_record.persisted_paths == {"foo"}

    def test_sync_tracks_every_file_and_directory(self, fs, tracker):
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.creat("bar")
        fs.sync()
        tracker.on_persistence(ops.sync(), 0, 1)
        view = tracker.view_at(1)
        tracked_paths = {path for record in view.files.values() for path in record.persisted_paths}
        assert tracked_paths == {"A/foo", "bar"}
        assert {record.path for record in view.dirs.values()} == {"A"}

    def test_symlink_targets_are_tracked_via_parent_dir(self, fs, tracker):
        fs.mkdir("A")
        fs.symlink("target", "A/lnk")
        fs.fsync("A")
        tracker.on_persistence(ops.fsync("A"), 0, 1)
        view = tracker.view_at(1)
        symlinks = [record for record in view.files.values() if record.ftype == "symlink"]
        assert symlinks and symlinks[0].symlink_target == "target"


class TestPathSpelling:
    """The tracker files a path under the spelling the file system resolves it
    to — the key the oracle's state and the recovered tree use."""

    def test_padded_paths_are_filed_under_the_normalised_spelling(self, fs, tracker):
        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"x" * 10)
        fs.fsync(" A/foo ")
        tracker.on_persistence(ops.fsync(" A/foo "), 0, 1)
        fs.fdatasync("/A/./foo ")
        tracker.on_persistence(ops.fdatasync("/A/./foo "), 1, 2)
        fs.msync(" A//foo", 0, 10)
        tracker.on_persistence(ops.msync(" A//foo", 0, 10), 2, 3)
        fs.fsync(" A")
        tracker.on_persistence(ops.fsync(" A"), 3, 4)
        for checkpoint in (1, 2, 3, 4):
            record = next(iter(tracker.view_at(checkpoint).files.values()))
            assert record.persisted_paths == {"A/foo"}, checkpoint
        assert [record.path for record in tracker.view_at(4).dirs.values()] == ["A"]
        assert set(fs.logical_state()) >= {"A", "A/foo"}

    def test_padded_rename_is_recorded_under_the_normalised_spelling(self, fs, tracker):
        fs.creat("foo")
        tracker.before_operation(ops.rename(" foo", "bar "), 1)
        fs.rename(" foo", "bar ")
        fs.fsync("bar")
        tracker.on_persistence(ops.fsync("bar"), 2, 1)
        rename = tracker.view_at(1).renames[0]
        assert (rename.src, rename.dst) == ("foo", "bar")
        assert fs.exists(rename.dst) and not fs.exists(rename.src)


class TestRangedMsync:
    def test_only_synced_range_updates_the_expectation(self, fs, tracker):
        fs.creat("foo")
        fs.write("foo", 0, b"a" * 8192)
        fs.sync()
        tracker.on_persistence(ops.sync(), 0, 1)
        fs.mwrite("foo", 0, b"B" * 10)
        fs.mwrite("foo", 4096, b"C" * 10)
        fs.msync("foo", 0, 4096)
        tracker.on_persistence(ops.msync("foo", 0, 4096), 3, 2)
        record = next(iter(tracker.view_at(2).files.values()))
        assert record.expected_data[:10] == b"B" * 10
        # The second mmap write was not msync'd, so it is not expected yet.
        assert record.expected_data[4096:4106] == b"a" * 10

    def test_msync_without_range_behaves_like_fdatasync(self, fs, tracker):
        fs.creat("foo")
        fs.write("foo", 0, b"d" * 100)
        fs.msync("foo")
        tracker.on_persistence(ops.msync("foo"), 1, 1)
        record = next(iter(tracker.view_at(1).files.values()))
        assert record.expected_data == b"d" * 100


class TestRenameObservation:
    def test_renames_of_files_are_recorded(self, fs, tracker):
        fs.creat("foo")
        tracker.before_operation(ops.rename("foo", "bar"), 1)
        fs.rename("foo", "bar")
        fs.fsync("bar")
        tracker.on_persistence(ops.fsync("bar"), 2, 1)
        renames = tracker.view_at(1).renames
        assert len(renames) == 1
        assert (renames[0].src, renames[0].dst) == ("foo", "bar")

    def test_renames_of_directories_are_not_recorded(self, fs, tracker):
        fs.mkdir("A")
        tracker.before_operation(ops.rename("A", "B"), 0)
        assert tracker.view_at(1).renames == []

    def test_view_for_unknown_checkpoint_is_empty(self, tracker):
        view = tracker.view_at(42)
        assert view.files == {} and view.dirs == {} and view.renames == []


class TestViewsAreFrozen:
    def test_mutating_the_live_tracker_never_changes_a_taken_view(self, fs, tracker):
        """A view owns its records: every in-place update tracking makes
        afterwards (paths added, entries rebound, renames appended, fields
        reassigned) leaves it exactly as it was captured."""
        import copy

        fs.mkdir("A")
        fs.creat("A/foo")
        fs.write("A/foo", 0, b"x" * 100)
        fs.setxattr("A/foo", "user.attr1", b"v1")
        fs.symlink("A/foo", "A/sym")
        fs.sync()
        tracker.on_persistence(ops.sync(), 0, 1)
        view = tracker.view_at(1)
        captured = copy.deepcopy(view)
        assert view.files and view.dirs

        # Same inodes, new names / sizes / entries / xattrs, then a rename.
        fs.link("A/foo", "A/bar")
        fs.write("A/foo", 100, b"y" * 50)
        fs.setxattr("A/foo", "user.attr1", b"v2")
        fs.creat("A/new")
        tracker.before_operation(ops.rename("A/new", "A/newer"), 5)
        fs.rename("A/new", "A/newer")
        fs.msync("A/foo", 0, 150)
        tracker.on_persistence(ops.msync("A/foo", 0, 150), 6, 2)
        fs.sync()
        tracker.on_persistence(ops.sync(), 7, 3)
        assert tracker.view_at(3) != captured, "the live tracker did move on"

        assert view == captured
        # Not even the containers are shared with the live records.
        for ino, record in view.files.items():
            assert record is not tracker._files[ino]
            assert record.persisted_paths is not tracker._files[ino].persisted_paths
        for ino, record in view.dirs.items():
            assert record is not tracker._dirs[ino]
            assert record.children is not tracker._dirs[ino].children
