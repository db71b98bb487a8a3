"""Catalogue of injectable crash-consistency bug mechanisms.

The paper finds bugs in real kernel file systems.  Our simulated file systems
carry the same *classes* of bugs as injectable mechanisms: each mechanism is a
small, realistic omission in the fsync-log / journal / recovery code (e.g.
"hard links added since the last commit are not included in the fsync log
entry").  A :class:`BugConfig` selects which mechanisms a file-system instance
exhibits, so the same workload can be run against a "buggy" (default, mirrors
the unpatched kernels the paper tested) or a "patched" file system.

Mechanisms are keyed by a stable id; the known-bug database in
``repro.core.known_bugs`` references these ids so every paper bug maps to the
mechanism that reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple


class Consequence:
    """Consequence classes used throughout the reproduction (paper Table 1)."""

    CORRUPTION = "corruption"
    DATA_INCONSISTENCY = "data inconsistency"
    UNMOUNTABLE = "unmountable file system"
    FILE_MISSING = "persisted file missing"
    DATA_LOSS = "persisted data lost"
    DIR_UNREMOVABLE = "directory un-removable"
    WRONG_SIZE = "file recovers to incorrect size"
    ATOMICITY = "rename atomicity broken"

    ALL = (
        CORRUPTION,
        DATA_INCONSISTENCY,
        UNMOUNTABLE,
        FILE_MISSING,
        DATA_LOSS,
        DIR_UNREMOVABLE,
        WRONG_SIZE,
        ATOMICITY,
    )


@dataclass(frozen=True)
class BugMechanism:
    """One injectable crash-consistency bug mechanism."""

    bug_id: str
    fs_types: Tuple[str, ...]
    title: str
    description: str
    consequence: str
    #: References to the paper's bug tables: "known-N" = Appendix 9.1 workload N,
    #: "new-N" = Appendix 9.2 / Table 5 bug N, "table2-N" = Table 2 row N.
    paper_refs: Tuple[str, ...] = ()
    #: Year the corresponding kernel bug was introduced (Table 5 column).
    introduced: str = ""

    def applies_to(self, fs_type: str) -> bool:
        return fs_type in self.fs_types


#: the two file systems that share the per-inode fsync log
_LOG_AND_FLASH = ("logfs", "flashfs")


def _mechanisms() -> List[BugMechanism]:
    logfs = ("logfs",)
    flashfs = ("flashfs",)
    seqfs = ("seqfs",)
    verifs = ("verifs",)
    return [
        # ---------------------------------------------------------------- LogFS
        BugMechanism(
            "rename_dest_not_logged",
            _LOG_AND_FLASH,
            "Rename destination not logged",
            "Directory-entry removals caused by rename or unlink are included in "
            "fsync log entries, but the matching additions are not when the moved "
            "inode itself was not fsynced.  Log replay removes the old entry and "
            "never adds the new one, so the renamed or replacing file disappears.",
            Consequence.FILE_MISSING,
            ("known-1", "known-22", "known-7", "known-20", "new-1", "table2-4"),
            "2014",
        ),
        BugMechanism(
            "rename_source_not_removed",
            logfs,
            "Rename persists file in both directories",
            "An inode fsynced after being renamed logs its new name but not the "
            "removal of the old name, so log replay leaves the file linked in both "
            "the source and destination directories.",
            Consequence.ATOMICITY,
            ("known-9", "new-2"),
            "2018",
        ),
        BugMechanism(
            "link_not_logged",
            logfs,
            "Hard links not persisted by fsync",
            "Hard links added since the last transaction commit are not included "
            "in the inode's fsync log entry, so they are missing after recovery.",
            Consequence.FILE_MISSING,
            ("new-5", "new-7"),
            "2014",
        ),
        BugMechanism(
            "link_clears_logged_data",
            logfs,
            "File size zero after adding hard link",
            "If an inode gained a hard link since the last commit, its fsync log "
            "entry records a stale (zero) size and no data extents, so the file "
            "recovers with size 0 and its data is inaccessible.",
            Consequence.DATA_LOSS,
            ("known-16", "table2-2"),
            "2015",
        ),
        BugMechanism(
            "append_after_link_size",
            logfs,
            "Appended data lost on multi-link files",
            "For inodes with more than one committed link, the fsync log entry "
            "only records extents within the committed size, losing appends.",
            Consequence.DATA_LOSS,
            ("known-23",),
            "2015",
        ),
        BugMechanism(
            "unlink_recreate_replay_fail",
            logfs,
            "Unlink/link combination makes log replay fail",
            "Unlinking a committed name and re-creating the same name leaves two "
            "metadata structures out of sync; the fsync log contains duplicate "
            "removal records and replay fails, leaving the file system "
            "un-mountable until repaired.",
            Consequence.UNMOUNTABLE,
            ("known-3", "known-5", "figure-1"),
            "2018",
        ),
        BugMechanism(
            "dir_replay_wrong_size",
            logfs,
            "Directory un-removable after fsync log replay",
            "Replaying a directory's log entry recomputes the directory item "
            "count incorrectly, so the recovered directory appears non-empty and "
            "cannot be removed even after deleting all of its entries.",
            Consequence.DIR_UNREMOVABLE,
            ("known-13", "known-15", "known-19", "known-21", "known-24", "known-6", "table2-1", "table2-3"),
            "2014",
        ),
        BugMechanism(
            "falloc_keep_size_lost",
            logfs,
            "Blocks allocated beyond EOF lost after fsync",
            "Blocks reserved past EOF with fallocate(KEEP_SIZE) are not recorded "
            "in the fsync log entry and are lost after recovery.",
            Consequence.DATA_LOSS,
            ("new-8",),
            "2014",
        ),
        BugMechanism(
            "punch_hole_not_logged",
            logfs,
            "Punched holes not persisted by fsync",
            "Hole-punching operations performed since the last commit are not "
            "recorded in the fsync log, so the recovered extent map still "
            "contains the old data.",
            Consequence.DATA_INCONSISTENCY,
            ("known-12", "known-17"),
            "2015",
        ),
        BugMechanism(
            "xattr_remove_not_replayed",
            logfs,
            "Removed xattrs resurrected by log replay",
            "Extended-attribute removals are not recorded in the fsync log, so "
            "log replay restores attributes that were removed before the crash.",
            Consequence.DATA_INCONSISTENCY,
            ("known-18",),
            "2015",
        ),
        BugMechanism(
            "symlink_empty_after_fsync",
            logfs,
            "Empty symlink after fsync of parent directory",
            "A symlink created since the last commit is logged without its "
            "target when its parent directory is fsynced, so it recovers empty.",
            Consequence.CORRUPTION,
            ("known-10",),
            "2016",
        ),
        BugMechanism(
            "ranged_msync_loses_other_range",
            logfs,
            "Ranged msync loses other mmap writes",
            "A ranged msync logs only the synced range; mmap writes to other "
            "ranges flushed by the same commit are dropped during replay.",
            Consequence.DATA_LOSS,
            ("known-14",),
            "2014",
        ),
        BugMechanism(
            "dir_fsync_missing_new_children",
            logfs,
            "Directory fsync misses entries added since last commit",
            "When a descendant inode was already logged in the current "
            "transaction, or the new child is itself a directory, fsync of a "
            "directory omits entries created since the last commit; the children "
            "are missing after recovery even though the directory was persisted.",
            Consequence.FILE_MISSING,
            ("new-3", "new-6"),
            "2014",
        ),
        BugMechanism(
            "fsync_parent_committed_name",
            _LOG_AND_FLASH,
            "Fsync logs parent directory under its old name",
            "Log entries record ancestor directories by their committed (pre-"
            "rename) names, so a file fsynced after its parent directory was "
            "renamed recovers under the old directory name.",
            Consequence.FILE_MISSING,
            ("new-4", "new-10"),
            "2014",
        ),
        BugMechanism(
            "lsw_unfenced_append",
            logfs,
            "Segment append never sealed by a flush",
            "The log-structured append path fences the file data before the "
            "segment record but never flushes the record itself, so the "
            "record still rides the disk write cache when fsync reports "
            "success.  A crash can drop the record while the data survives, "
            "losing the persistence fsync promised.  Invisible to prefix "
            "crash states; only reordering or torn plans that drop in-flight "
            "writes hit it — and the contract auditor demotes the LSW claim "
            "for the stream, because the claimed sealing fence edges do not "
            "exist.",
            Consequence.FILE_MISSING,
            (),
            "2017",
        ),
        # ---------------------------------------------------------------- FlashFS
        BugMechanism(
            "fzero_keep_size_wrong_size",
            flashfs,
            "ZERO_RANGE with KEEP_SIZE recovers to wrong size",
            "fallocate(ZERO_RANGE | KEEP_SIZE) past EOF followed by fsync "
            "records the extended size in the node log, so the file recovers "
            "with a size that ignores the KEEP_SIZE flag.",
            Consequence.WRONG_SIZE,
            ("new-9",),
            "2015",
        ),
        BugMechanism(
            "falloc_keep_size_fdatasync",
            ("flashfs", "seqfs"),
            "fdatasync after fallocate(KEEP_SIZE) loses allocation",
            "fdatasync only checks the file size to decide whether anything "
            "changed, so blocks reserved past EOF with KEEP_SIZE are not "
            "persisted and are lost after a crash.",
            Consequence.DATA_LOSS,
            ("known-2", "table2-5"),
            "2016",
        ),
        BugMechanism(
            "fsync_no_flush",
            flashfs,
            "Fsync issues no cache-flush barriers",
            "fsync writes the data and the node-log commit record but never "
            "issues a cache flush, so everything is still in the disk write "
            "cache when fsync reports success.  A crash (power loss) right "
            "after the persistence point can drop or reorder any subset of "
            "those in-flight writes, losing the data fsync promised to "
            "persist.  Invisible to prefix (ordered-replay) crash states — "
            "only reordering crash plans that drop in-flight writes hit it.",
            Consequence.FILE_MISSING,
            (),
            "2017",
        ),
        BugMechanism(
            "missing_flush_before_fua",
            ("flashfs", "seqfs"),
            "No cache flush before the FUA superblock commit",
            "The checkpoint commit writes the superblock with FUA (durable on "
            "completion) but skips the cache flush that must precede it, so "
            "the superblock can commit a checkpoint whose blocks are still in "
            "the disk write cache.  A power failure at that point may tear a "
            "checkpoint block mid-write: its header sector identifies it as "
            "the committed checkpoint while the payload tail is stale, and "
            "recovery fails on the corrupt checkpoint.  Invisible to ordered "
            "replay, and invisible even to whole-block reordering plans — a "
            "cleanly dropped checkpoint block still carries its old "
            "generation's header, which recovery detects and safely falls "
            "back from.  Only sector-granular torn-write crash states hit it.",
            Consequence.UNMOUNTABLE,
            (),
            "2017",
        ),
        BugMechanism(
            "rename_dir_fsync_old_parent",
            flashfs,
            "Persisted file ends up in pre-rename directory",
            "A file fsynced after its parent directory was renamed is recorded "
            "under the old directory name in the node log, so it recovers in a "
            "different directory than the one it was persisted in.",
            Consequence.FILE_MISSING,
            ("new-10",),
            "2016",
        ),
        # ---------------------------------------------------------------- SeqFS
        BugMechanism(
            "dwrite_size_zero",
            seqfs,
            "Direct write past EOF recovers size zero",
            "A direct-I/O write extending the file allocates blocks and writes "
            "data, but the on-disk inode size is not updated before the crash, "
            "so the file recovers with size 0 and the data is inaccessible.",
            Consequence.DATA_LOSS,
            ("known-4", "table2-5"),
            "2016",
        ),
        BugMechanism(
            "replica_commit_no_fua",
            seqfs,
            "Replicated superblock commit drops FUA",
            "Both copies of the 2-way replicated superblock are written as "
            "plain cache writes — the commit path trusts the mirror to make "
            "FUA unnecessary — so a power failure can drop the entire replica "
            "set and roll the file system back a committed generation.  "
            "Invisible to prefix crash states; only reordering plans that "
            "drop both in-flight copies hit it — and the contract auditor "
            "demotes the replicated-metadata claim for the stream, because "
            "the claimed fence edges are plain writes, not FUA commits.",
            Consequence.DATA_LOSS,
            (),
            "2017",
        ),
        # ---------------------------------------------------------------- VeriFS
        BugMechanism(
            "fdatasync_append_lost",
            verifs,
            "fdatasync loses appended data (unverified fast path)",
            "The optimized fdatasync path skips updating the on-disk size for "
            "appending writes, so data appended since the last sync is lost "
            "after a crash despite the fdatasync.",
            Consequence.DATA_LOSS,
            ("new-11",),
            "2018",
        ),
    ]


#: Registry of all mechanisms, keyed by bug id.
MECHANISMS: Dict[str, BugMechanism] = {mech.bug_id: mech for mech in _mechanisms()}


#: The steps of the shared commit / replay machinery a mechanism omits: step
#: -> mechanism id -> the file systems whose code path has the omission (the
#: per-inode log's is shared, whichever file system the mechanism is
#: catalogued under).  ``AbstractFileSystem._omits(step)`` is the one reader;
#: bugs in *what* an entry records live in ``_apply_entry_bugs`` instead.
OMITTED_STEPS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    # fsync: the flush that makes the data (and earlier log writes) stable
    # before the entries that reference them.  The buggy path never flushes
    # the device cache around the commit, so it omits the seal below too.
    "commit_barrier": {"fsync_no_flush": ("flashfs",)},
    # fsync: the flush that seals the appended entries before it returns.
    # The segment append path fences the file data but not its own records.
    "commit_seal": {"fsync_no_flush": ("flashfs",), "lsw_unfenced_append": _LOG_AND_FLASH},
    # fsync: also logging the inodes a rename or an unlink/recreate displaced.
    "recursive_logging": {"rename_dest_not_logged": _LOG_AND_FLASH,
                          "unlink_recreate_replay_fail": _LOG_AND_FLASH},
    # checkpoint (the one commit every file system shares): the cache flush
    # before the FUA superblock, without which the superblock — durable the
    # moment it completes — can commit checkpoint blocks still in flight.
    "flush_before_fua": {"missing_flush_before_fua": ("logfs", "flashfs", "seqfs", "verifs")},
    # replay: passing over a removal record whose entry is already gone.
    "tolerate_stale_removal": {"unlink_recreate_replay_fail": _LOG_AND_FLASH},
    # replay: taking a removed entry off its directory's item count.
    "uncount_removed_entry": {"dir_replay_wrong_size": _LOG_AND_FLASH},
}


def mechanisms_for(fs_type: str) -> List[BugMechanism]:
    """All mechanisms that apply to ``fs_type``."""
    return [mech for mech in MECHANISMS.values() if mech.applies_to(fs_type)]


def get_mechanism(bug_id: str) -> BugMechanism:
    try:
        return MECHANISMS[bug_id]
    except KeyError:
        raise KeyError(f"unknown bug mechanism {bug_id!r}; known: {sorted(MECHANISMS)}") from None


@dataclass(frozen=True)
class BugConfig:
    """Selects which bug mechanisms a file-system instance exhibits."""

    enabled: FrozenSet[str] = frozenset()

    def __post_init__(self):
        unknown = set(self.enabled) - set(MECHANISMS)
        if unknown:
            raise KeyError(f"unknown bug mechanisms: {sorted(unknown)}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def none(cls) -> "BugConfig":
        """A fully patched file system (no injected bugs)."""
        return cls(frozenset())

    @classmethod
    def all_for(cls, fs_type: str) -> "BugConfig":
        """Default configuration: every mechanism applicable to ``fs_type``.

        This mirrors the unpatched kernels the paper tested.
        """
        return cls(frozenset(mech.bug_id for mech in mechanisms_for(fs_type)))

    @classmethod
    def only(cls, *bug_ids: str) -> "BugConfig":
        return cls(frozenset(bug_ids))

    # -- queries -----------------------------------------------------------

    def is_enabled(self, bug_id: str) -> bool:
        get_mechanism(bug_id)  # validate
        return bug_id in self.enabled

    def without(self, *bug_ids: str) -> "BugConfig":
        """Return a config with the given mechanisms patched (disabled)."""
        for bug_id in bug_ids:
            get_mechanism(bug_id)
        return BugConfig(self.enabled - set(bug_ids))

    def with_bugs(self, *bug_ids: str) -> "BugConfig":
        for bug_id in bug_ids:
            get_mechanism(bug_id)
        return BugConfig(self.enabled | set(bug_ids))

    def __iter__(self):
        return iter(sorted(self.enabled))

    def __len__(self):
        return len(self.enabled)
