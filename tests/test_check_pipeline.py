"""The pluggable check pipeline: registry, selection, parity and new checks.

The parity tests embed the pre-refactor monolithic checker verbatim as a
golden reference (``MonolithicChecker``) and assert that the registry-backed
pipeline restricted to the five legacy checks reproduces its mismatches
byte-for-byte — same checks, paths, consequences and order — on the full
seq-1 workload space of every registered file system and on the whole
known-bug corpus.
"""

from typing import List, Optional

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.core import all_bugs
from repro.crashmonkey import (
    DEFAULT_REGISTRY,
    LEGACY_CHECKS,
    CheckContext,
    CheckPipeline,
    CheckRegistry,
    CrashMonkey,
    CrashStateGenerator,
    Mismatch,
    WorkloadRecorder,
)
from repro.crashmonkey.checks.links import HardLinkCountCheck
from repro.crashmonkey.checks.xattrs import DirXattrCheck
from repro.errors import FileSystemError
from repro.fs import BugConfig, Consequence
from repro.fs.inode import FileState
from repro.workload import parse_workload

import differential
from conftest import SMALL_DEVICE_BLOCKS
from differential import ALL_FS


# --------------------------------------------------------------------------- golden
# The monolithic checker exactly as it existed before the pipeline
# refactor (kept here as the byte-for-byte parity reference).


class MonolithicChecker:
    def __init__(self, run_write_checks: bool = True):
        self.run_write_checks = run_write_checks

    def check(self, profile, crash_state) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        oracle = profile.oracles.get(crash_state.checkpoint_id)
        view = profile.tracker_views.get(crash_state.checkpoint_id)
        if oracle is None or view is None:
            return mismatches

        if not crash_state.mountable:
            detail = str(crash_state.mount_error) if crash_state.mount_error else "mount failed"
            fsck_text = ""
            if crash_state.fsck_report is not None:
                fsck_text = f"; fsck: {'repaired' if crash_state.fsck_report.repaired else 'failed'}"
            mismatches.append(
                Mismatch(
                    check="mount",
                    consequence=Consequence.UNMOUNTABLE,
                    path="",
                    expected="file system mounts and recovers after the crash",
                    actual=f"mount failed: {detail}{fsck_text}",
                )
            )
            return mismatches

        fs = crash_state.fs
        mismatches.extend(self._read_checks(fs, oracle, view))
        mismatches.extend(self._directory_checks(fs, oracle, view))
        mismatches.extend(self._atomicity_checks(fs, oracle, view))
        if self.run_write_checks:
            mismatches.extend(self._write_checks(fs, oracle, view))
        return mismatches

    def _read_checks(self, fs, oracle, view) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        for record in view.files.values():
            mismatches.extend(self._check_file_record(fs, oracle, record))
        return mismatches

    def _check_file_record(self, fs, oracle, record) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        oracle_paths = oracle.paths_of_ino(record.ino)

        if oracle_paths:
            candidates = sorted(set(record.persisted_paths) | set(oracle_paths))
            survived = False
            any_present = False
            for path in candidates:
                state = fs.lookup_state(path)
                if state is None:
                    continue
                any_present = True
                if self._content_matches_record(state, record):
                    survived = True
                    break
                oracle_state = oracle.lookup(path)
                if (
                    oracle_state is not None
                    and oracle_state.ino == record.ino
                    and self._content_matches_oracle(state, oracle_state)
                ):
                    survived = True
                    break
            if not survived:
                consequence = Consequence.DATA_LOSS if any_present else Consequence.FILE_MISSING
                mismatches.append(
                    Mismatch(
                        check="read",
                        consequence=consequence,
                        path=", ".join(sorted(record.persisted_paths)) or oracle_paths[0],
                        expected=f"persisted content reachable: {record.expected_description()}",
                        actual=self._describe_paths(fs, candidates),
                    )
                )

        for path in sorted(record.persisted_paths):
            mismatch = self._check_persisted_path(fs, oracle, record, path)
            if mismatch is not None:
                mismatches.append(mismatch)
        return mismatches

    def _check_persisted_path(self, fs, oracle, record, path) -> Optional[Mismatch]:
        crash_state = fs.lookup_state(path)
        oracle_state = oracle.lookup(path)

        if crash_state is None and oracle_state is None:
            return None
        if crash_state is None:
            return Mismatch(
                check="read",
                consequence=Consequence.FILE_MISSING,
                path=path,
                expected=record.expected_description(),
                actual="path does not exist after recovery",
            )
        if self._full_matches_record(crash_state, record):
            return None
        if oracle_state is not None and self._full_matches_oracle(crash_state, oracle_state):
            return None
        return self._classify_path_mismatch(path, crash_state, record, oracle_state)

    @staticmethod
    def _content_matches_record(state, record) -> bool:
        if state.ftype != record.ftype:
            return False
        if record.ftype == "symlink":
            return state.symlink_target == record.symlink_target
        return state.size == record.size and state.data_hash == record.data_hash()

    @staticmethod
    def _content_matches_oracle(state, oracle_state) -> bool:
        if state.ftype != oracle_state.ftype:
            return False
        if state.ftype == "symlink":
            return state.symlink_target == oracle_state.symlink_target
        return state.size == oracle_state.size and state.data_hash == oracle_state.data_hash

    @staticmethod
    def _full_matches_record(state, record) -> bool:
        if state.ftype != record.ftype:
            return False
        if record.ftype == "symlink":
            return state.symlink_target == record.symlink_target
        return (
            state.size == record.size
            and state.data_hash == record.data_hash()
            and state.allocated_blocks == record.allocated_blocks
            and tuple(state.xattrs) == tuple(record.xattrs)
        )

    @staticmethod
    def _full_matches_oracle(state, oracle_state) -> bool:
        if state.ftype != oracle_state.ftype:
            return False
        if state.ftype == "symlink":
            return state.symlink_target == oracle_state.symlink_target
        return (
            state.size == oracle_state.size
            and state.data_hash == oracle_state.data_hash
            and state.allocated_blocks == oracle_state.allocated_blocks
            and tuple(state.xattrs) == tuple(oracle_state.xattrs)
        )

    def _classify_path_mismatch(self, path, crash_state, record, oracle_state) -> Mismatch:
        expected = record.expected_description()
        if oracle_state is not None:
            expected += f" (or oracle: {oracle_state.describe()})"
        actual = crash_state.describe()

        if crash_state.ftype != record.ftype:
            consequence = Consequence.CORRUPTION
        elif record.ftype == "symlink":
            consequence = Consequence.CORRUPTION
        elif crash_state.data_hash != record.data_hash() and crash_state.size < record.size:
            consequence = Consequence.DATA_LOSS
        elif crash_state.size != record.size:
            consequence = Consequence.WRONG_SIZE
        elif crash_state.data_hash != record.data_hash():
            consequence = Consequence.DATA_INCONSISTENCY
        elif crash_state.allocated_blocks != record.allocated_blocks:
            consequence = Consequence.DATA_LOSS
        elif tuple(crash_state.xattrs) != tuple(record.xattrs):
            consequence = Consequence.DATA_INCONSISTENCY
        else:
            consequence = Consequence.CORRUPTION
        return Mismatch(
            check="read", consequence=consequence, path=path, expected=expected, actual=actual
        )

    def _describe_paths(self, fs, paths) -> str:
        parts = []
        for path in paths:
            state = fs.lookup_state(path)
            parts.append(state.describe() if state is not None else f"{path}: missing")
        return "; ".join(parts) if parts else "no candidate paths exist"

    def _directory_checks(self, fs, oracle, view) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        for record in view.dirs.values():
            crash_dir = fs.lookup_state(record.path)
            oracle_dir = oracle.lookup(record.path)
            if crash_dir is None:
                if oracle_dir is not None:
                    mismatches.append(
                        Mismatch(
                            check="read",
                            consequence=Consequence.FILE_MISSING,
                            path=record.path,
                            expected=record.expected_description(),
                            actual="persisted directory does not exist after recovery",
                        )
                    )
                continue
            if crash_dir.ftype != "dir":
                mismatches.append(
                    Mismatch(
                        check="read",
                        consequence=Consequence.CORRUPTION,
                        path=record.path,
                        expected=record.expected_description(),
                        actual=crash_dir.describe(),
                    )
                )
                continue
            for child, child_ino in sorted(record.children.items()):
                if child in crash_dir.children:
                    continue
                child_path = f"{record.path}/{child}" if record.path else child
                oracle_child = oracle.lookup(child_path)
                still_expected = oracle_child is not None and (
                    child_ino == 0 or oracle_child.ino == child_ino
                )
                if still_expected:
                    mismatches.append(
                        Mismatch(
                            check="read",
                            consequence=Consequence.FILE_MISSING,
                            path=child_path,
                            expected=f"directory entry {child!r} persisted by fsync of {record.path!r}",
                            actual=f"entry missing; directory now contains {sorted(crash_dir.children)}",
                        )
                    )
        return mismatches

    def _atomicity_checks(self, fs, oracle, view) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        for rename in view.renames:
            src_state = fs.lookup_state(rename.src)
            dst_state = fs.lookup_state(rename.dst)
            if src_state is None or dst_state is None:
                continue
            if src_state.ftype != "file" or src_state.ino != dst_state.ino:
                continue
            oracle_src = oracle.lookup(rename.src)
            oracle_dst = oracle.lookup(rename.dst)
            if (
                oracle_src is not None
                and oracle_dst is not None
                and oracle_src.ino == oracle_dst.ino
            ):
                continue
            mismatches.append(
                Mismatch(
                    check="atomicity",
                    consequence=Consequence.ATOMICITY,
                    path=f"{rename.src} -> {rename.dst}",
                    expected="renamed file visible at either the old or the new name, not both",
                    actual=(
                        f"same inode visible at {rename.src!r} and {rename.dst!r} "
                        f"(ino {src_state.ino})"
                    ),
                )
            )
        return mismatches

    def _write_checks(self, fs, oracle, view) -> List[Mismatch]:
        mismatches: List[Mismatch] = []

        probe = "__crashmonkey_write_check__"
        try:
            fs.creat(probe)
            fs.unlink(probe)
        except FileSystemError as exc:
            mismatches.append(
                Mismatch(
                    check="write",
                    consequence=Consequence.CORRUPTION,
                    path=probe,
                    expected="new files can be created after recovery",
                    actual=f"create failed: {exc}",
                )
            )

        tracked_dirs = sorted(
            (record for record in view.dirs.values() if record.path),
            key=lambda record: record.path.count("/"),
            reverse=True,
        )
        for record in tracked_dirs:
            if fs.lookup_state(record.path) is None:
                continue
            try:
                self._remove_tree(fs, record.path)
            except FileSystemError as exc:
                mismatches.append(
                    Mismatch(
                        check="write",
                        consequence=Consequence.DIR_UNREMOVABLE,
                        path=record.path,
                        expected="directory can be emptied and removed after recovery",
                        actual=f"removal failed: {exc}",
                    )
                )
        return mismatches

    def _remove_tree(self, fs, path: str) -> None:
        state = fs.lookup_state(path)
        if state is None:
            fs.unlink(path)
            return
        if state.ftype == "dir":
            for child in list(fs.listdir(path)):
                self._remove_tree(fs, f"{path}/{child}" if path else child)
            fs.rmdir(path)
        else:
            fs.unlink(path)


# --------------------------------------------------------------------------- helpers


def _compare_on_workload(fs_name, workload, bugs=None):
    """Run monolith and legacy-5 pipeline on every crash point of a workload.

    The destructive write check means each checker needs its own crash state.
    """
    recorder = WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS)
    profile = recorder.profile(workload)
    monolith = MonolithicChecker()
    pipeline = CheckPipeline(checks=LEGACY_CHECKS)
    for checkpoint_id in profile.checkpoints():
        old = monolith.check(profile, CrashStateGenerator(profile).generate(checkpoint_id))
        new = pipeline.check(profile, CrashStateGenerator(profile).generate(checkpoint_id))
        assert new == old, (
            f"pipeline diverges from monolith: {fs_name} "
            f"{workload.display_name()} @ checkpoint {checkpoint_id}"
        )


# --------------------------------------------------------------------------- registry


class TestRegistry:
    def test_builtin_checks_register_in_canonical_order(self):
        assert DEFAULT_REGISTRY.names() == [
            "mount", "read", "directory", "atomicity", "hardlink", "xattr", "write",
        ]

    def test_destructive_write_check_runs_last(self):
        # Read-only checks registered after the write check would observe the
        # probe-mutated file system; the registry order must prevent that.
        assert DEFAULT_REGISTRY.names()[-1] == "write"

    def test_select_preserves_registry_order(self):
        checks = DEFAULT_REGISTRY.select(["write", "mount", "read"])
        assert [check.name for check in checks] == ["mount", "read", "write"]

    def test_select_applies_exclusions(self):
        checks = DEFAULT_REGISTRY.select(None, ("write", "xattr"))
        assert "write" not in [check.name for check in checks]
        assert "xattr" not in [check.name for check in checks]

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            DEFAULT_REGISTRY.select(["raed"])
        with pytest.raises(KeyError):
            DEFAULT_REGISTRY.select(None, ("wriet",))
        with pytest.raises(KeyError):
            DEFAULT_REGISTRY.get("nope")

    def test_duplicate_registration_rejected(self):
        registry = CheckRegistry()

        @registry.register
        class One:
            name = "one"
            requires_mount = True
            description = "first"

            def run(self, ctx):
                return []

        with pytest.raises(ValueError):
            @registry.register
            class Two:
                name = "one"
                requires_mount = True
                description = "duplicate"

                def run(self, ctx):
                    return []

    def test_custom_check_registers_and_runs(self):
        registry = CheckRegistry()
        ran = []

        @registry.register
        class Custom:
            name = "custom"
            requires_mount = True
            description = "records that it ran"

            def run(self, ctx):
                ran.append(ctx.crash_state.checkpoint_id)
                return []

        recorder = WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        profile = recorder.profile(parse_workload("creat foo\nfsync foo"))
        crash_state = CrashStateGenerator(profile).generate(1)
        pipeline = CheckPipeline(registry=registry)
        assert pipeline.check(profile, crash_state) == []
        assert ran == [1]

    def test_describe_lists_every_check(self):
        text = DEFAULT_REGISTRY.describe()
        for name in DEFAULT_REGISTRY.names():
            assert name in text


class TestPipelineSelection:
    def test_run_write_checks_false_maps_to_skip(self):
        pipeline = CheckPipeline(skip_checks=("write",))
        assert "write" not in pipeline.check_names

    def test_default_pipeline_runs_everything(self):
        assert CheckPipeline().check_names == tuple(DEFAULT_REGISTRY.names())

    def test_check_timings_cover_selected_checks(self):
        recorder = WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        profile = recorder.profile(parse_workload("creat foo\nfsync foo"))
        crash_state = CrashStateGenerator(profile).generate(1)
        pipeline = CheckPipeline()
        mismatches, timings = pipeline.check_timed(profile, crash_state)
        assert mismatches == []
        assert set(timings) == set(pipeline.check_names)
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_harness_records_per_check_timings(self):
        harness = CrashMonkey("btrfs", bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        result = harness.test_workload(parse_workload("creat foo\nfsync foo"))
        assert set(result.check_timings) == set(DEFAULT_REGISTRY.names())

    def test_unmountable_state_skips_mount_requiring_checks(self):
        harness = CrashMonkey("btrfs", device_blocks=SMALL_DEVICE_BLOCKS)
        result = harness.test_workload(parse_workload(
            "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar"
        ))
        report = result.bug_reports[-1]
        assert [m.check for m in report.mismatches] == ["mount"]
        # Only the checks that could run were timed.
        assert set(result.check_timings) >= {"mount"}
        assert "write" not in result.check_timings or result.checkpoints_tested > 1


# --------------------------------------------------------------------------- parity


@pytest.mark.parametrize("fs_name", ALL_FS)
@pytest.mark.parametrize("bugs", [None, BugConfig.none()], ids=["buggy", "patched"])
def test_legacy_pipeline_matches_monolith_on_full_seq1_space(fs_name, bugs):
    """Byte-for-byte parity on every crash point of the full seq-1 space."""
    monolith = MonolithicChecker()
    pipeline = CheckPipeline(checks=LEGACY_CHECKS)
    compared = 0
    for workload, profile in differential.profiles(fs_name, bugs):
        for checkpoint_id in profile.checkpoints():
            old = monolith.check(profile, CrashStateGenerator(profile).generate(checkpoint_id))
            new = pipeline.check(profile, CrashStateGenerator(profile).generate(checkpoint_id))
            assert new == old, (
                f"{fs_name} {workload.display_name()} @ {checkpoint_id}:\n"
                f"monolith: {old}\npipeline: {new}"
            )
            compared += 1
    assert compared > 0


def test_legacy_pipeline_matches_monolith_on_known_bug_corpus():
    for bug in all_bugs():
        if not bug.reproducible_by_b3:
            continue
        for fs_name in bug.simulator_filesystems():
            _compare_on_workload(fs_name, bug.workload())


# --------------------------------------------------------------------------- new checks


class _StubFS:
    """Minimal crash-state fs for driving checks directly."""

    def __init__(self, states, links=None):
        self._states = dict(states)
        self._links = links or {}

    def lookup_state(self, path):
        return self._states.get(path)

    def paths_of_inode(self, path):
        state = self._states.get(path)
        if state is None:
            return []
        return self._links.get(state.ino, [path])

    def paths_by_inode(self):
        return {state.ino: self.paths_of_inode(path) for path, state in self._states.items()}


class _StubCrashState:
    """Pairs a stub fs with the mountable flag the pipeline consults."""

    def __init__(self, fs):
        self.fs = fs
        self.checkpoint_id = 1

    @property
    def mountable(self):
        return self.fs is not None


class TestHardLinkCountCheck:
    def test_detects_stale_link_count_on_real_filesystem(self):
        # known-9: the crashed rename leaves the file visible in both
        # directories while the recovered inode still claims nlink=1.
        from repro.core import get_bug
        harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS)
        result = harness.test_workload(get_bug("known-9").workload())
        hardlink = [m for report in result.bug_reports for m in report.mismatches
                    if m.check == "hardlink"]
        assert hardlink
        assert hardlink[0].consequence == Consequence.DATA_INCONSISTENCY
        assert "nlink=1" in hardlink[0].actual

    def test_passes_on_patched_filesystems(self):
        harness = CrashMonkey("logfs", bugs=BugConfig.none(),
                              device_blocks=SMALL_DEVICE_BLOCKS)
        result = harness.test_workload(parse_workload(
            "creat foo\nmkdir A\nlink foo A/bar\nfsync foo"
        ))
        assert result.passed

    def test_flags_inconsistent_stub_state(self):
        from repro.crashmonkey.tracker import TrackedFile, TrackerView
        from repro.crashmonkey.oracle import Oracle

        state = FileState(path="foo", ftype="file", size=0, nlink=3, ino=7)
        fs = _StubFS({"foo": state}, links={7: ["foo"]})
        view = TrackerView(checkpoint_id=1, files={
            7: TrackedFile(ino=7, ftype="file", persisted_paths={"foo"}),
        })
        oracle = Oracle(checkpoint_id=1, crash_point="fsync foo", state={"foo": state})
        ctx = CheckContext(profile=None, crash_state=_StubCrashState(fs),
                           oracle=oracle, view=view)
        mismatches = HardLinkCountCheck().run(ctx)
        assert len(mismatches) == 1
        assert "nlink=3" in mismatches[0].actual


class TestDirXattrCheck:
    def test_tracker_records_directory_xattrs(self):
        recorder = WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        profile = recorder.profile(parse_workload(
            "mkdir A\nsetxattr A user.k v\nfsync A"
        ))
        view = profile.tracker_views[1]
        records = [record for record in view.dirs.values() if record.path == "A"]
        assert records and records[0].xattrs == (("user.k", "v"),)

    def test_passes_when_xattrs_match_old_or_new(self):
        harness = CrashMonkey("btrfs", bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        result = harness.test_workload(parse_workload(
            "mkdir A\nsetxattr A user.k v1\nfsync A\nsetxattr A user.k v2\nfsync A"
        ))
        assert result.passed

    def test_flags_lost_directory_xattrs(self):
        from repro.crashmonkey.tracker import TrackedDir, TrackerView
        from repro.crashmonkey.oracle import Oracle

        persisted = FileState(path="A", ftype="dir", ino=5,
                              xattrs=(("user.k", "v"),), children=())
        recovered = FileState(path="A", ftype="dir", ino=5, xattrs=(), children=())
        fs = _StubFS({"A": recovered})
        view = TrackerView(checkpoint_id=1, dirs={
            5: TrackedDir(ino=5, path="A", xattrs=(("user.k", "v"),)),
        })
        oracle = Oracle(checkpoint_id=1, crash_point="fsync A", state={"A": persisted})
        ctx = CheckContext(profile=None, crash_state=_StubCrashState(fs),
                           oracle=oracle, view=view)
        mismatches = DirXattrCheck().run(ctx)
        assert len(mismatches) == 1
        assert mismatches[0].check == "xattr"
        assert "user.k" in mismatches[0].expected

    def test_new_checks_never_fire_on_patched_seq1_space(self):
        harness = CrashMonkey("btrfs", bugs=BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        for workload in AceSynthesizer(seq1_bounds()).sample(60):
            result = harness.test_workload(workload)
            assert result.passed, workload.display_name()
