"""WorkloadRecorder (profiling phase): oracles, tracker views, I/O log."""

import pytest

from repro.crashmonkey import WorkloadRecorder
from repro.fs import BugConfig
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS


@pytest.fixture
def recorder():
    return WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)


def _profile(recorder, text):
    return recorder.profile(parse_workload(text))


class TestProfiling:
    def test_one_checkpoint_per_persistence_point(self, recorder):
        profile = _profile(recorder, "creat foo\nfsync foo\ncreat bar\nsync\nwrite foo 0 100\nfsync foo")
        assert profile.num_checkpoints == 3
        assert profile.checkpoints() == [1, 2, 3]
        assert set(profile.oracles) == {1, 2, 3}
        assert set(profile.tracker_views) == {1, 2, 3}

    def test_oracle_reflects_state_at_its_checkpoint(self, recorder):
        profile = _profile(recorder, "creat foo\nfsync foo\ncreat bar\nsync")
        assert "bar" not in profile.oracles[1].state
        assert "bar" in profile.oracles[2].state

    def test_io_log_contains_checkpoint_markers(self, recorder):
        profile = _profile(recorder, "creat foo\nfsync foo")
        markers = [request for request in profile.io_log if request.is_checkpoint]
        assert len(markers) == 1
        assert markers[-1].seq == max(request.seq for request in profile.io_log)

    def test_base_image_is_the_pre_workload_state(self, recorder):
        profile = _profile(recorder, "creat foo\nwrite foo 0 4096\nsync")
        # The base image is a freshly formatted file system: mounting it gives
        # an empty root.
        from repro.fs import LogFS

        fs = LogFS(profile.base_image.copy(), BugConfig.none())
        fs.mount()
        assert fs.listdir("") == []

    def test_unmount_io_is_not_recorded(self, recorder):
        profile = _profile(recorder, "creat foo\nfsync foo")
        # The last recorded request must be the checkpoint marker, not the
        # safe-unmount checkpoint writes.
        assert profile.io_log[-1].is_checkpoint

    def test_profiles_are_independent(self, recorder):
        first = _profile(recorder, "creat one\nsync")
        second = _profile(recorder, "creat two\nsync")
        assert "one" in first.oracles[1].state
        assert "one" not in second.oracles[1].state

    def test_execution_statistics(self, recorder):
        profile = _profile(recorder, "unlink ghost\ncreat foo\nfsync foo")
        assert profile.executed_ops == 2
        assert profile.skipped_ops == 1
        assert profile.recorded_bytes > 0
        assert profile.profile_seconds > 0

    def test_fs_name_aliases_resolve(self):
        recorder = WorkloadRecorder("BTRFS", device_blocks=SMALL_DEVICE_BLOCKS)
        assert recorder.fs_name == "logfs"
        assert recorder.fs_model == "btrfs"

    def test_default_bug_config_is_all_applicable(self):
        recorder = WorkloadRecorder("f2fs", device_blocks=SMALL_DEVICE_BLOCKS)
        assert len(recorder.bugs) > 0


def test_a_persistence_point_walks_the_tree_once(monkeypatch):
    """One ``logical_state()`` per persistence point serves the tracker and the
    oracle; the tracker resolves nothing through the file system again."""
    from repro.crashmonkey.recorder import _LiveRun
    from repro.fs.base import AbstractFileSystem

    calls = []

    def counted(name):
        real = getattr(AbstractFileSystem, name)

        def method(fs, *args):
            calls.append(name)
            return real(fs, *args)

        return method

    for name in ("logical_state", "lookup_state", "paths_of_inode", "_walk", "_paths_of"):
        monkeypatch.setattr(AbstractFileSystem, name, counted(name))
    points = []
    real_point = _LiveRun.on_persistence

    def observed_point(run, op, index):
        del calls[:]
        real_point(run, op, index)
        points.append((op.op, sorted(calls)))

    monkeypatch.setattr(_LiveRun, "on_persistence", observed_point)
    text = ("mkdir A\ncreat A/foo\nwrite A/foo 0 8192\nlink A/foo A/bar\nsymlink A/foo A/sym\n"
            "fsync A/foo\nfdatasync A/bar\nfsync A\nmwrite A/foo 0 4096\nmsync A/foo 0 4096\nsync")
    for share_prefixes in (True, False):
        recorder = WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS,
                                    share_prefixes=share_prefixes)
        del points[:]
        profile = _profile(recorder, text)
        assert [kind for kind, _ in points] == ["fsync", "fdatasync", "fsync", "msync", "sync"]
        assert all(made == ["_walk", "logical_state"] for _, made in points), points
        # ... and the oracle adopted the very states the tracker read.
        record = next(iter(profile.tracker_views[1].files.values()))
        assert record.persisted_paths == {"A/foo", "A/bar"}
        assert profile.oracles[1].state["A/foo"].ino == record.ino
