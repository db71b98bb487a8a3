"""The bug-mechanism catalogue and its effect through the black-box pipeline.

Each mechanism must (a) be discoverable via its triggering workload when
enabled and (b) leave the very same workload clean when disabled ("patched").
"""

import pytest

from repro.fs import BugConfig, Consequence, MECHANISMS, get_mechanism, mechanisms_for
from repro.fs.bugs import OMITTED_STEPS

from conftest import make_mounted_fs, run_workload_text
from differential import ALL_FS


class TestBugCatalogue:
    def test_every_mechanism_has_metadata(self):
        for mechanism in MECHANISMS.values():
            assert mechanism.title
            assert mechanism.description
            assert mechanism.consequence in Consequence.ALL
            assert mechanism.fs_types

    def test_mechanisms_for_filters_by_fs(self):
        for fs_type in ALL_FS:
            for mechanism in mechanisms_for(fs_type):
                assert mechanism.applies_to(fs_type)

    def test_logfs_carries_the_most_mechanisms(self):
        # Matches the paper's observation that btrfs had by far the most bugs.
        counts = {fs: len(mechanisms_for(fs)) for fs in ALL_FS}
        assert counts["logfs"] == max(counts.values())
        assert counts["seqfs"] <= 4

    def test_get_mechanism_unknown_id(self):
        with pytest.raises(KeyError):
            get_mechanism("no-such-bug")


class TestBugConfig:
    def test_none_is_empty(self):
        assert len(BugConfig.none()) == 0

    def test_all_for_contains_only_applicable_mechanisms(self):
        config = BugConfig.all_for("flashfs")
        for bug_id in config:
            assert get_mechanism(bug_id).applies_to("flashfs")

    def test_only_and_without(self):
        config = BugConfig.only("link_not_logged", "rename_dest_not_logged")
        assert config.is_enabled("link_not_logged")
        patched = config.without("link_not_logged")
        assert not patched.is_enabled("link_not_logged")
        assert patched.is_enabled("rename_dest_not_logged")

    def test_with_bugs_adds(self):
        config = BugConfig.none().with_bugs("link_not_logged")
        assert config.is_enabled("link_not_logged")

    def test_unknown_bug_id_rejected(self):
        with pytest.raises(KeyError):
            BugConfig.only("bogus")
        with pytest.raises(KeyError):
            BugConfig.none().is_enabled("bogus")


#: (mechanism id, file system, workload text) triples: the minimal triggering
#: workloads used to verify each mechanism end to end.
MECHANISM_WORKLOADS = [
    (
        "rename_dest_not_logged", "logfs", """
        mkdir A
        write A/foo 0 16384
        sync
        rename A/foo A/bar
        write A/foo 0 4096
        fsync A/foo
        """,
    ),
    (
        "rename_source_not_removed", "logfs", """
        mkdir A
        mkdir B
        creat A/foo
        creat B/baz
        sync
        rename B/baz A/baz
        fsync A/foo
        """,
    ),
    (
        "link_not_logged", "logfs", """
        creat foo
        mkdir A
        link foo A/bar
        fsync foo
        """,
    ),
    (
        "link_clears_logged_data", "logfs", """
        mkdir A
        creat A/foo
        sync
        write A/foo 0 16384
        link A/foo A/bar
        fsync A/foo
        """,
    ),
    (
        "append_after_link_size", "logfs", """
        creat foo
        write foo 0 32768
        sync
        link foo bar
        sync
        write foo 32768 32768
        fsync foo
        """,
    ),
    (
        "unlink_recreate_replay_fail", "logfs", """
        creat foo
        link foo bar
        sync
        unlink bar
        creat bar
        fsync bar
        """,
    ),
    (
        "dir_replay_wrong_size", "logfs", """
        mkdir A
        creat A/foo
        sync
        creat A/bar
        fsync A
        fsync A/bar
        """,
    ),
    (
        "falloc_keep_size_lost", "logfs", """
        creat foo
        write foo 0 16384
        fsync foo
        falloc foo 16384 4096 keep_size
        fsync foo
        """,
    ),
    (
        "punch_hole_not_logged", "logfs", """
        creat foo
        write foo 0 16384
        sync
        fpunch foo 8000 4096
        fsync foo
        """,
    ),
    (
        "xattr_remove_not_replayed", "logfs", """
        creat foo
        setxattr foo user.u1 val1
        setxattr foo user.u2 val2
        sync
        removexattr foo user.u2
        fsync foo
        """,
    ),
    (
        "symlink_empty_after_fsync", "logfs", """
        mkdir A
        sync
        symlink foo A/bar
        fsync A
        """,
    ),
    (
        "ranged_msync_loses_other_range", "logfs", """
        creat foo
        write foo 0 262144
        sync
        mwrite foo 0 4096
        mwrite foo 258048 4096
        msync foo 0 65536
        msync foo 196608 65536
        """,
    ),
    (
        "dir_fsync_missing_new_children", "logfs", """
        mkdir test
        mkdir test/A
        creat test/foo
        creat test/A/foo
        fsync test/A/foo
        fsync test
        """,
    ),
    (
        "fsync_parent_committed_name", "logfs", """
        mkdir A
        sync
        rename A B
        creat B/foo
        fsync B/foo
        fsync B
        """,
    ),
    (
        "fzero_keep_size_wrong_size", "flashfs", """
        creat foo
        write foo 0 16384
        fsync foo
        fzero foo 16384 4096 keep_size
        fsync foo
        """,
    ),
    (
        "falloc_keep_size_fdatasync", "flashfs", """
        creat foo
        write foo 0 8192
        fsync foo
        falloc foo 8192 8192 keep_size
        fdatasync foo
        """,
    ),
    (
        "rename_dir_fsync_old_parent", "flashfs", """
        mkdir A
        sync
        rename A B
        creat B/foo
        fsync B/foo
        """,
    ),
    (
        "fsync_no_flush", "flashfs", """
        creat foo
        write foo 0 4096
        fsync foo
        """,
    ),
    (
        "dwrite_size_zero", "seqfs", """
        creat foo
        write foo 16384 4096
        dwrite foo 0 4096
        fdatasync foo
        """,
    ),
    (
        "falloc_keep_size_fdatasync", "seqfs", """
        creat foo
        write foo 0 8192
        fsync foo
        falloc foo 8192 8192 keep_size
        fdatasync foo
        """,
    ),
    (
        "fdatasync_append_lost", "verifs", """
        creat foo
        write foo 0 4096
        sync
        write foo 4096 4096
        fdatasync foo
        """,
    ),
    (
        "missing_flush_before_fua", "flashfs", """
        creat foo
        write foo 0 4096
        sync
        """,
    ),
    (
        "missing_flush_before_fua", "seqfs", """
        creat foo
        write foo 0 4096
        sync
        """,
    ),
    (
        "lsw_unfenced_append", "logfs", """
        creat foo
        write foo 0 4096
        fsync foo
        """,
    ),
    (
        "replica_commit_no_fua", "seqfs", """
        creat foo
        write foo 0 4096
        sync
        write foo 4096 4096
        sync
        """,
    ),
]


#: Mechanisms whose effect is invisible to ordered (prefix) replay: they need
#: a crash plan that drops (reorder) or tears (torn) in-flight writes to
#: manifest.  ``missing_flush_before_fua`` needs the torn plan specifically —
#: a cleanly dropped checkpoint block is detected by its stale generation
#: header and recovery safely falls back, so only a sector-torn block (valid
#: header, garbage payload tail) gets past the commit-record check.
REORDER_ONLY_MECHANISMS = {
    "fsync_no_flush": {"crash_plan": "reorder", "reorder_bound": 1},
    "missing_flush_before_fua": {"crash_plan": "torn", "torn_bound": 1},
    "lsw_unfenced_append": {"crash_plan": "reorder", "reorder_bound": 1},
    # Dropping the whole replica set takes both in-flight superblock copies.
    "replica_commit_no_fua": {"crash_plan": "reorder", "reorder_bound": 2},
}


@pytest.mark.parametrize("bug_id,fs_name,text", MECHANISM_WORKLOADS,
                         ids=[f"{bug}-{fs}" for bug, fs, _ in MECHANISM_WORKLOADS])
class TestMechanismsEndToEnd:
    def test_enabled_mechanism_is_found_by_the_harness(self, bug_id, fs_name, text):
        kwargs = REORDER_ONLY_MECHANISMS.get(bug_id, {})
        result = run_workload_text(fs_name, text, bugs=BugConfig.only(bug_id), **kwargs)
        assert not result.passed, f"{bug_id} not detected on {fs_name}"

    def test_patched_filesystem_passes_the_same_workload(self, bug_id, fs_name, text):
        kwargs = REORDER_ONLY_MECHANISMS.get(bug_id, {})
        result = run_workload_text(fs_name, text, bugs=BugConfig.none(), **kwargs)
        assert result.passed, f"patched {fs_name} flagged for {bug_id}"


def test_every_mechanism_is_covered_by_a_workload():
    covered = {bug_id for bug_id, _, _ in MECHANISM_WORKLOADS}
    assert covered == set(MECHANISMS), sorted(set(MECHANISMS) - covered)


# ------------------------------------------------------------------ the omitted-steps table

LOG_AND_FLASH = {"logfs", "flashfs"}

#: (step, mechanism) -> the file systems that left the step out for it when the
#: steps were still overridable methods.  FlashFS then inherited LogFS's
#: overrides, so the logging / replay mechanisms catalogued under logfs alone
#: act on flashfs too ("off-label"), and the base class keyed the checkpoint
#: flush off the bug config on every file system.
OMISSIONS = {
    ("commit_barrier", "fsync_no_flush"): {"flashfs"},
    ("commit_seal", "fsync_no_flush"): {"flashfs"},
    ("commit_seal", "lsw_unfenced_append"): LOG_AND_FLASH,
    ("recursive_logging", "rename_dest_not_logged"): LOG_AND_FLASH,
    ("recursive_logging", "unlink_recreate_replay_fail"): LOG_AND_FLASH,
    ("flush_before_fua", "missing_flush_before_fua"): set(ALL_FS),
    ("tolerate_stale_removal", "unlink_recreate_replay_fail"): LOG_AND_FLASH,
    ("uncount_removed_entry", "dir_replay_wrong_size"): LOG_AND_FLASH,
}


def test_every_mechanism_in_the_omitted_steps_table_is_declared():
    for step, omitters in OMITTED_STEPS.items():
        assert omitters, step
        for bug_id, fs_types in omitters.items():
            assert bug_id in MECHANISMS, (step, bug_id)
            assert set(fs_types) <= set(ALL_FS), (step, bug_id)


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_a_step_is_omitted_on_exactly_the_file_systems_it_was(fs_name):
    assert {step for step, _ in OMISSIONS} == set(OMITTED_STEPS)
    for bug_id in MECHANISMS:
        fs, _, _ = make_mounted_fs(fs_name, BugConfig.only(bug_id))
        for step in OMITTED_STEPS:
            assert fs._omits(step) == (fs_name in OMISSIONS.get((step, bug_id), ())), (step, bug_id)
    patched, _, _ = make_mounted_fs(fs_name, BugConfig.none())
    assert not any(patched._omits(step) for step in OMITTED_STEPS)


def _flushes_of(fs_name, bug_id, persist):
    """Cache flushes ``persist(fs)`` issues after a write to a committed file."""
    fs, recording, _ = make_mounted_fs(fs_name, BugConfig.only(bug_id))
    fs.creat("foo")
    fs.sync()
    fs.write("foo", 0, b"x" * 4096)
    before = len(recording.log)
    persist(fs)
    return sum(1 for request in recording.log[before:] if request.is_flush)


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_an_omitted_barrier_is_missing_from_the_write_stream(fs_name):
    """The table read off the device: a correct fdatasync and a correct sync
    issue two flushes each; each omitted barrier is one flush fewer."""
    for bug_id in ("fsync_no_flush", "lsw_unfenced_append", "missing_flush_before_fua"):
        omitted = {step for (step, bug), fs_types in OMISSIONS.items()
                   if bug == bug_id and fs_name in fs_types}
        assert _flushes_of(fs_name, bug_id, lambda fs: fs.fdatasync("foo")) == \
            2 - len(omitted & {"commit_barrier", "commit_seal"}), bug_id
        assert _flushes_of(fs_name, bug_id, lambda fs: fs.sync()) == \
            2 - len(omitted & {"flush_before_fua"}), bug_id


@pytest.mark.parametrize("fs_name", ["logfs", "flashfs"])
def test_flashfs_replays_the_figure1_log_the_way_logfs_does(fs_name):
    # ``unlink_recreate_replay_fail`` is catalogued under logfs only; FlashFS
    # shares the per-inode log, so it must keep failing replay off-label.
    result = run_workload_text(
        fs_name, "creat foo\nlink foo bar\nsync\nunlink bar\ncreat bar\nfsync bar",
        bugs=BugConfig.only("unlink_recreate_replay_fail"))
    assert any(report.consequence == Consequence.UNMOUNTABLE for report in result.bug_reports)
