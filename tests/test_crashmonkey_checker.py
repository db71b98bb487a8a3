"""CheckPipeline behaviour: the read, write, directory and atomicity checks."""


from repro.crashmonkey import CheckPipeline, CrashStateGenerator, WorkloadRecorder
from repro.crashmonkey.report import HARNESS_ERROR
from repro.fs import BugConfig, Consequence
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS, run_workload_text


def _check(text, fs_name="btrfs", bugs=None, checkpoint=None, skip_checks=()):
    recorder = WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS)
    profile = recorder.profile(parse_workload(text))
    generator = CrashStateGenerator(profile)
    checkpoint = checkpoint if checkpoint is not None else profile.checkpoints()[-1]
    crash_state = generator.generate(checkpoint)
    checker = CheckPipeline(skip_checks=skip_checks)
    return checker.check(profile, crash_state)


class TestCleanRuns:
    def test_patched_fs_produces_no_mismatches(self):
        mismatches = _check(
            "mkdir A\ncreat A/foo\nwrite A/foo 0 8192\nfsync A/foo\nrename A/foo A/bar\nfsync A/bar",
            bugs=BugConfig.none(),
        )
        assert mismatches == []

    def test_losing_unpersisted_files_is_not_a_bug(self):
        mismatches = _check(
            "creat persisted\nfsync persisted\ncreat not-persisted\nwrite persisted 0 10\nfsync persisted",
            bugs=BugConfig.none(),
        )
        assert mismatches == []


class TestMountCheck:
    def test_unmountable_crash_state_reports_unmountable(self):
        mismatches = _check(
            "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar",
            bugs=None,  # default buggy config
        )
        assert len(mismatches) == 1
        assert mismatches[0].consequence == Consequence.UNMOUNTABLE
        assert mismatches[0].check == "mount"
        assert "fsck" in mismatches[0].actual


class TestReadChecks:
    def test_missing_persisted_file_is_flagged(self):
        # The rename-destination bug loses the persisted original file.
        mismatches = _check(
            "mkdir A\nwrite A/foo 0 16384\nsync\nrename A/foo A/bar\nwrite A/foo 0 4096\nfsync A/foo",
            bugs=BugConfig.only("rename_dest_not_logged"),
        )
        consequences = {mismatch.consequence for mismatch in mismatches}
        assert consequences & {Consequence.FILE_MISSING, Consequence.DATA_LOSS}

    def test_lost_allocation_is_flagged_as_data_loss(self):
        mismatches = _check(
            "creat foo\nwrite foo 0 16384\nfsync foo\nfalloc foo 16384 4096 keep_size\nfsync foo",
            bugs=BugConfig.only("falloc_keep_size_lost"),
        )
        assert any(m.consequence == Consequence.DATA_LOSS for m in mismatches)

    def test_resurrected_xattr_is_flagged_as_inconsistency(self):
        mismatches = _check(
            "creat foo\nsetxattr foo user.u1 v1\nsetxattr foo user.u2 v2\nsync\n"
            "removexattr foo user.u2\nfsync foo",
            bugs=BugConfig.only("xattr_remove_not_replayed"),
        )
        assert any(m.consequence == Consequence.DATA_INCONSISTENCY for m in mismatches)

    def test_missing_hard_link_is_flagged(self):
        mismatches = _check(
            "creat foo\nmkdir A\nlink foo A/bar\nfsync foo",
            bugs=BugConfig.only("link_not_logged"),
        )
        assert any(
            m.consequence == Consequence.FILE_MISSING and "A/bar" in m.path for m in mismatches
        )


class TestDirectoryChecks:
    def test_missing_persisted_directory_entry_is_flagged(self):
        mismatches = _check(
            "mkdir test\nmkdir test/A\ncreat test/foo\ncreat test/A/foo\nfsync test/A/foo\nfsync test",
            bugs=BugConfig.only("dir_fsync_missing_new_children"),
        )
        assert any(
            m.consequence == Consequence.FILE_MISSING and m.path == "test/foo" for m in mismatches
        )

    def test_empty_symlink_is_flagged(self):
        mismatches = _check(
            "mkdir A\nsync\nsymlink foo A/bar\nfsync A",
            bugs=BugConfig.only("symlink_empty_after_fsync"),
        )
        assert any(m.consequence == Consequence.CORRUPTION for m in mismatches)


class TestWriteChecks:
    def test_unremovable_directory_is_flagged(self):
        mismatches = _check(
            "mkdir A\ncreat A/foo\nsync\ncreat A/bar\nfsync A\nfsync A/bar",
            bugs=BugConfig.only("dir_replay_wrong_size"),
        )
        assert any(m.consequence == Consequence.DIR_UNREMOVABLE for m in mismatches)

    def test_write_checks_can_be_disabled(self):
        mismatches = _check(
            "mkdir A\ncreat A/foo\nsync\ncreat A/bar\nfsync A\nfsync A/bar",
            bugs=BugConfig.only("dir_replay_wrong_size"),
            skip_checks=("write",),
        )
        assert not any(m.check == "write" for m in mismatches)


class TestAtomicityCheck:
    def test_file_visible_at_both_rename_names_is_flagged(self):
        mismatches = _check(
            "mkdir A\nmkdir B\ncreat A/foo\ncreat B/baz\nwrite B/baz 0 4096\nsync\n"
            "rename B/baz A/baz\nfsync A/foo",
            bugs=BugConfig.only("rename_source_not_removed"),
        )
        assert any(m.consequence == Consequence.ATOMICITY for m in mismatches)

    def test_unpersisted_rename_leaving_only_the_old_name_is_legal(self):
        result = run_workload_text(
            "btrfs",
            "creat foo\nwrite foo 0 4096\nfsync foo\nrename foo bar\ncreat other\nfsync other",
            bugs=BugConfig.none(),
        )
        assert result.passed


class TestCheckerEdgeCases:
    def test_unknown_checkpoint_is_an_explicit_harness_error(self):
        """A recording bug must never masquerade as a passing crash state."""
        recorder = WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        profile = recorder.profile(parse_workload("creat foo\nfsync foo"))
        crash_state = CrashStateGenerator(profile).generate(1)
        crash_state.checkpoint_id = 99  # no oracle/tracker view for this id
        mismatches = CheckPipeline().check(profile, crash_state)
        assert len(mismatches) == 1
        assert mismatches[0].check == "pipeline"
        assert mismatches[0].consequence == HARNESS_ERROR
        assert "checkpoint 99" in mismatches[0].actual

    def test_missing_tracker_view_alone_is_reported(self):
        recorder = WorkloadRecorder("btrfs", BugConfig.none(), device_blocks=SMALL_DEVICE_BLOCKS)
        profile = recorder.profile(parse_workload("creat foo\nfsync foo"))
        crash_state = CrashStateGenerator(profile).generate(1)
        del profile.tracker_views[1]
        mismatches = CheckPipeline().check(profile, crash_state)
        assert len(mismatches) == 1
        assert "tracker view" in mismatches[0].actual
        assert "oracle" not in mismatches[0].actual.split("tracker view")[0]

    def test_mismatch_descriptions_are_informative(self):
        mismatches = _check(
            "mkdir A\ncreat A/foo\nsync\nwrite A/foo 0 16384\nlink A/foo A/bar\nfsync A/foo",
            bugs=BugConfig.only("link_clears_logged_data"),
        )
        assert mismatches
        text = mismatches[0].describe()
        assert "expected" in text and "actual" in text
