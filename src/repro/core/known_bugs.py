"""Database of the paper's crash-consistency bugs.

Two corpora are encoded here:

* the **26 known bugs** reported against Linux file systems in the five years
  before the paper (studied in §3, reproduced in §6.2, workloads in Appendix
  9.1).  Two of them cannot be reproduced by B3 (one needs ``dropcaches``
  during the workload, the other needs ~3000 pre-existing hard links); they
  are included with ``reproducible_by_b3=False``.
* the **11 new bugs** CrashMonkey and ACE found (Table 5, Appendix 9.2) —
  ten in btrfs/F2FS plus the FSCQ data-loss bug.

Each record carries the triggering workload (in the workload language), the
simulated file systems it applies to, the consequence, and the bug *mechanism*
ids (:mod:`repro.fs.bugs`) that model it in the simulator.

Workloads are transcribed from the appendix listings (which are printed
crash-first, i.e. in reverse execution order).  A few need small adaptations
for the simulator; each such deviation is recorded in the ``notes`` field and
summarized in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..fs.bugs import Consequence
from ..workload.language import parse_workload
from ..workload.workload import Workload


@dataclass(frozen=True)
class KnownBug:
    """One bug from the paper's corpora."""

    bug_id: str                      #: "known-N" (Appendix 9.1) or "new-N" (Appendix 9.2)
    title: str
    filesystems: Tuple[str, ...]     #: real file-system names ("btrfs", "ext4", "F2FS", "FSCQ")
    consequence: str                 #: fine-grained consequence (Consequence constants)
    table1_consequence: str          #: coarse Table-1 bucket (corruption / data inconsistency / unmountable)
    num_core_ops: int                #: number of core ops (Table 1 / Table 5 column)
    kernel_version: str              #: kernel the bug was reported on (Table 1 distribution)
    introduced: str = ""             #: year the bug entered the kernel (Table 5 column)
    workload_text: str = ""          #: workload-language text; empty when not reproducible by B3
    mechanisms: Tuple[str, ...] = ()
    reproducible_by_b3: bool = True
    table2_row: Optional[int] = None  #: row number if the bug appears in Table 2
    notes: str = ""

    @property
    def is_new(self) -> bool:
        return self.bug_id.startswith("new-")

    def workload(self) -> Workload:
        if not self.workload_text:
            raise ValueError(f"{self.bug_id} has no B3 workload (not reproducible within bounds)")
        workload = parse_workload(self.workload_text, name=self.bug_id, source=f"known-bug:{self.bug_id}")
        workload.seq_length = self.num_core_ops
        return workload

    def simulator_filesystems(self) -> Tuple[str, ...]:
        from ..fs.registry import ALIASES

        return tuple(ALIASES[name.lower()] for name in self.filesystems)


# --------------------------------------------------------------------------------------
# Appendix 9.1 — the 26 previously reported bugs (24 with B3 workloads).
# --------------------------------------------------------------------------------------

_KNOWN: List[KnownBug] = [
    KnownBug(
        "known-1", "Renamed and re-created file loses the persisted original",
        ("btrfs", "F2FS"), Consequence.FILE_MISSING, "corruption", 3, "4.4",
        workload_text="""
            mkdir A
            write A/foo 0 16384
            sync
            rename A/foo A/bar
            write A/foo 0 4096
            fsync A/foo
        """,
        mechanisms=("rename_dest_not_logged",),
        notes="Appendix workload 1; also Table 2 row 4 (F2FS variant).",
        table2_row=4,
    ),
    KnownBug(
        "known-2", "Blocks allocated beyond EOF lost after fdatasync",
        ("ext4", "F2FS"), Consequence.DATA_LOSS, "data inconsistency", 2, "4.15",
        workload_text="""
            creat foo
            write foo 0 8192
            fsync foo
            falloc foo 8192 8192 keep_size
            fdatasync foo
        """,
        mechanisms=("falloc_keep_size_fdatasync",),
        table2_row=5,
        notes="Appendix workload 2.",
    ),
    KnownBug(
        "known-3", "Log replay fails after linking special file and fsync",
        ("btrfs",), Consequence.UNMOUNTABLE, "unmountable file system", 3, "4.15",
        workload_text="""
            mkdir A
            creat A/foo
            creat A/dummy
            fsync A/dummy
            rename A/foo A/bar
            link A/bar A/foo
            remove A/dummy
            creat A/dummy
            fsync A/dummy
        """,
        mechanisms=("unlink_recreate_replay_fail",),
        notes="Appendix workload 3; mkfifo modelled as a regular file create.",
    ),
    KnownBug(
        "known-4", "Direct write past EOF recovers file size zero",
        ("ext4",), Consequence.DATA_LOSS, "data inconsistency", 2, "3.12",
        workload_text="""
            creat foo
            write foo 16384 4096
            dwrite foo 0 4096
            fdatasync foo
        """,
        mechanisms=("dwrite_size_zero",),
        table2_row=5,
        notes="Appendix workload 4; a trailing fdatasync is added so the crash "
              "point falls after a persistence operation (B3's crash-point rule).",
    ),
    KnownBug(
        "known-5", "Unlink and re-create of a hard link makes the file system un-mountable",
        ("btrfs",), Consequence.UNMOUNTABLE, "unmountable file system", 2, "3.12",
        workload_text="""
            mkdir A
            creat A/foo
            link A/foo A/bar
            sync
            unlink A/bar
            creat A/bar
            fsync A/bar
        """,
        mechanisms=("unlink_recreate_replay_fail",),
        notes="Appendix workload 5; the Figure 1 bug inside a directory.",
    ),
    KnownBug(
        "known-6", "Cannot create new files after fsync and log recovery",
        ("btrfs",), Consequence.CORRUPTION, "corruption", 1, "4.16",
        workload_text="""
            mkdir A
            creat A/foo
            fsync A/foo
        """,
        mechanisms=("dir_replay_wrong_size",),
        notes="Appendix workload 6; the -EEXIST inode-allocation failure is not "
              "modelled mechanistically, so this bug may not reproduce.",
    ),
    KnownBug(
        "known-7", "Cross-directory rename and unlink lose files on log replay",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 3, "4.4",
        workload_text="""
            mkdir A
            mkdir B
            mkdir C
            creat A/foo
            link A/foo B/foolink
            creat B/bar
            sync
            unlink B/foolink
            rename B/bar C/bar
            fsync A/foo
        """,
        mechanisms=("rename_dest_not_logged",),
        notes="Appendix workload 7.",
    ),
    KnownBug(
        "known-8", "Renamed directory contents missing after fsync",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 2, "4.4",
        workload_text="""
            mkdir A
            mkdir A/B
            mkdir A/C
            creat A/B/foo
            creat A/B/bar
            sync
            rename A/B A/C
            mkdir A/B
            fsync A/B
        """,
        mechanisms=("rename_dest_not_logged", "dir_fsync_missing_new_children"),
        notes="Appendix workload 8.",
    ),
    KnownBug(
        "known-9", "Rename persists files in both directories",
        ("btrfs",), Consequence.ATOMICITY, "corruption", 3, "4.4",
        workload_text="""
            mkdir A
            mkdir B
            creat A/foo
            mkdir B/C
            creat B/baz
            sync
            link A/foo A/bar
            rename B/baz A/baz
            fsync A/foo
        """,
        mechanisms=("rename_source_not_removed",),
        notes="Appendix workload 9; the directory move (B/C) is simplified to the "
              "file move, which exhibits the same both-locations consequence.",
    ),
    KnownBug(
        "known-10", "Empty symlink after fsync of parent directory",
        ("btrfs",), Consequence.CORRUPTION, "corruption", 1, "4.4",
        workload_text="""
            mkdir A
            sync
            symlink foo A/bar
            fsync A
        """,
        mechanisms=("symlink_empty_after_fsync",),
        notes="Appendix workload 10.",
    ),
    KnownBug(
        "known-11", "Persisted file missing after rename over fsynced file",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 3, "4.4",
        workload_text="""
            mkdir A
            creat A/foo
            fsync A
            fsync A/foo
            rename A/foo A/bar
            creat A/foo
            fsync A/bar
        """,
        mechanisms=("rename_dest_not_logged",),
        notes="Appendix workload 11.",
    ),
    KnownBug(
        "known-12", "Hole punching with the no-holes feature loses the hole",
        ("btrfs",), Consequence.DATA_INCONSISTENCY, "data inconsistency", 3, "4.4",
        workload_text="""
            creat foo
            write foo 0 135168
            sync
            fpunch foo 98304 32768
            fpunch foo 32768 98304
            fsync foo
        """,
        mechanisms=("punch_hole_not_logged",),
        notes="Appendix workload 12; a sync is inserted after the initial write so "
              "the punched extents already live on disk.",
    ),
    KnownBug(
        "known-13", "Stale directory entries after fsync log replay (sibling fsync)",
        ("btrfs",), Consequence.DIR_UNREMOVABLE, "corruption", 2, "4.1.1",
        workload_text="""
            mkdir A
            creat A/foo
            creat A/bar
            sync
            link A/foo A/foolink
            link A/bar A/barlink
            fsync A/bar
        """,
        mechanisms=("link_not_logged", "dir_replay_wrong_size"),
        notes="Appendix workload 13; detected through the missing hard link "
              "rather than the directory item count.",
    ),
    KnownBug(
        "known-14", "Ranged msync loses earlier mmap write",
        ("btrfs",), Consequence.DATA_LOSS, "corruption", 2, "3.16",
        workload_text="""
            creat foo
            write foo 0 262144
            sync
            mwrite foo 0 4096
            mwrite foo 258048 4096
            msync foo 0 65536
            msync foo 196608 65536
        """,
        mechanisms=("ranged_msync_loses_other_range",),
        notes="Appendix workload 14.",
    ),
    KnownBug(
        "known-15", "Directory un-removable after removing a hard link and fsync",
        ("btrfs",), Consequence.DIR_UNREMOVABLE, "corruption", 2, "4.1.1",
        workload_text="""
            mkdir A
            sync
            creat A/foo
            link A/foo A/bar
            sync
            remove A/bar
            fsync A/foo
        """,
        mechanisms=("dir_replay_wrong_size",),
        notes="Appendix workload 15.",
    ),
    KnownBug(
        "known-16", "File size zero after adding a hard link and fsync",
        ("btrfs",), Consequence.DATA_LOSS, "corruption", 2, "3.13",
        workload_text="""
            mkdir A
            creat A/foo
            sync
            write A/foo 0 16384
            link A/foo A/bar
            fsync A/foo
        """,
        mechanisms=("link_clears_logged_data",),
        table2_row=2,
        notes="Appendix workload 16; the hard link is placed before the fsync so "
              "that the crash point (after the fsync) observes the bug.",
    ),
    KnownBug(
        "known-17", "Punched hole in a partial page not persisted",
        ("btrfs",), Consequence.DATA_INCONSISTENCY, "data inconsistency", 1, "3.13",
        workload_text="""
            creat foo
            write foo 0 16384
            fsync foo
            sync
            fpunch foo 8000 4096
            fsync foo
        """,
        mechanisms=("punch_hole_not_logged",),
        notes="Appendix workload 17.",
    ),
    KnownBug(
        "known-18", "Removed xattrs resurrected by fsync log replay",
        ("btrfs",), Consequence.DATA_INCONSISTENCY, "data inconsistency", 2, "3.13",
        workload_text="""
            creat foo
            setxattr foo user.u1 val1
            setxattr foo user.u2 val2
            setxattr foo user.u3 val3
            sync
            removexattr foo user.u2
            fsync foo
        """,
        mechanisms=("xattr_remove_not_replayed",),
        notes="Appendix workload 18.",
    ),
    KnownBug(
        "known-19", "Directory un-removable after unlinking one of multiple links",
        ("btrfs",), Consequence.DIR_UNREMOVABLE, "corruption", 2, "4.4",
        workload_text="""
            mkdir A
            creat A/foo
            sync
            link A/foo A/bar1
            link A/foo A/bar2
            sync
            unlink A/bar2
            fsync A/foo
        """,
        mechanisms=("dir_replay_wrong_size",),
        notes="Appendix workload 19.",
    ),
    KnownBug(
        "known-20", "File renamed out of a directory missing after the directory's fsync",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 3, "3.13",
        workload_text="""
            mkdir A
            mkdir A/B
            mkdir C
            creat A/B/foo
            sync
            rename A/B/foo C/foo
            creat A/bar
            fsync A
        """,
        mechanisms=("rename_dest_not_logged",),
        notes="Appendix workload 20.",
    ),
    KnownBug(
        "known-21", "Directory un-removable after directory fsync log recovery",
        ("btrfs",), Consequence.DIR_UNREMOVABLE, "corruption", 2, "3.13",
        workload_text="""
            mkdir A
            creat A/foo
            sync
            creat A/bar
            fsync A
            fsync A/bar
        """,
        mechanisms=("dir_replay_wrong_size",),
        table2_row=1,
        notes="Appendix workload 21 (Table 2 row 1).",
    ),
    KnownBug(
        "known-22", "Persisted file missing after rename onto an fsynced name",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 2, "3.12",
        workload_text="""
            mkdir A
            creat A/foo
            write A/foo 0 4096
            sync
            rename A/foo A/bar
            creat A/foo
            fsync A/foo
        """,
        mechanisms=("rename_dest_not_logged",),
        notes="Appendix workload 22; a create of the replacement file is added so "
              "the fsync target exists (matching the bug report's scenario).",
    ),
    KnownBug(
        "known-23", "Appended data lost on a multi-link file after fsync",
        ("btrfs",), Consequence.DATA_LOSS, "corruption", 2, "3.13",
        workload_text="""
            creat foo
            write foo 0 32768
            sync
            link foo bar
            sync
            write foo 32768 32768
            fsync foo
        """,
        mechanisms=("append_after_link_size",),
        notes="Appendix workload 23.",
    ),
    KnownBug(
        "known-24", "Directory un-removable after fsync of directory and renamed file",
        ("btrfs",), Consequence.DIR_UNREMOVABLE, "corruption", 2, "3.13",
        workload_text="""
            creat foo
            mkdir A
            fsync foo
            sync
            rename foo A/bar
            fsync A
            fsync A/bar
        """,
        mechanisms=("dir_replay_wrong_size",),
        notes="Appendix workload 24.",
    ),
    KnownBug(
        "known-25", "Data loss requiring dropcaches during the workload",
        ("btrfs",), Consequence.DATA_LOSS, "corruption", 3, "3.13",
        workload_text="",
        mechanisms=(),
        reproducible_by_b3=False,
        notes="One of the two studied bugs outside B3's bounds: it only manifests "
              "when the page cache is dropped mid-workload.",
    ),
    KnownBug(
        "known-26", "Un-mountable file system requiring ~3000 pre-existing hard links",
        ("btrfs",), Consequence.UNMOUNTABLE, "unmountable file system", 3, "3.13",
        workload_text="",
        mechanisms=(),
        reproducible_by_b3=False,
        notes="The second out-of-bounds bug: it needs a special initial image with "
              "enough hard links to force an external reflink.",
    ),
]


# --------------------------------------------------------------------------------------
# Appendix 9.2 / Table 5 — the new bugs found by CrashMonkey and ACE.
# --------------------------------------------------------------------------------------

_NEW: List[KnownBug] = [
    KnownBug(
        "new-1", "Rename atomicity broken (file disappears)",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 3, "4.16", introduced="2014",
        workload_text="""
            mkdir A
            creat A/bar
            fsync A/bar
            mkdir B
            creat B/bar
            rename B/bar A/bar
            creat A/foo
            fsync A/foo
        """,
        mechanisms=("rename_dest_not_logged",),
    ),
    KnownBug(
        "new-2", "Rename atomicity broken (file in both locations)",
        ("btrfs",), Consequence.ATOMICITY, "corruption", 3, "4.16", introduced="2018",
        workload_text="""
            mkdir A
            sync
            mkdir A/C
            rename A/C B
            creat B/bar
            fsync B/bar
            rename B/bar A/bar
            rename A B
            fsync B/bar
        """,
        mechanisms=("fsync_parent_committed_name", "rename_source_not_removed"),
        notes="A sync after the first mkdir is added so the original directory "
              "name is on disk, which is what lets the stale name reappear.",
    ),
    KnownBug(
        "new-3", "Directory not persisted by fsync",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 3, "4.16", introduced="2014",
        workload_text="""
            mkdir A
            mkdir B
            mkdir A/C
            creat B/foo
            fsync B/foo
            link B/foo A/C/foo
            fsync A
        """,
        mechanisms=("dir_fsync_missing_new_children",),
    ),
    KnownBug(
        "new-4", "Rename not persisted by fsync",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 3, "4.16", introduced="2014",
        workload_text="""
            mkdir A
            sync
            rename A B
            creat B/foo
            fsync B/foo
            fsync B
        """,
        mechanisms=("fsync_parent_committed_name",),
    ),
    KnownBug(
        "new-5", "Hard links not persisted by fsync",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 2, "4.16", introduced="2014",
        workload_text="""
            mkdir A
            mkdir B
            creat A/foo
            link A/foo B/foo
            fsync A/foo
            fsync B/foo
        """,
        mechanisms=("link_not_logged",),
    ),
    KnownBug(
        "new-6", "Directory entry missing after fsync on directory",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 2, "4.16", introduced="2014",
        workload_text="""
            mkdir test
            mkdir test/A
            creat test/foo
            creat test/A/foo
            fsync test/A/foo
            fsync test
        """,
        mechanisms=("dir_fsync_missing_new_children",),
    ),
    KnownBug(
        "new-7", "Fsync on file does not persist all its paths",
        ("btrfs",), Consequence.FILE_MISSING, "corruption", 1, "4.16", introduced="2014",
        workload_text="""
            creat foo
            mkdir A
            link foo A/bar
            fsync foo
        """,
        mechanisms=("link_not_logged",),
    ),
    KnownBug(
        "new-8", "Allocated blocks lost after fsync",
        ("btrfs",), Consequence.DATA_LOSS, "data inconsistency", 1, "4.16", introduced="2014",
        workload_text="""
            creat foo
            write foo 0 16384
            fsync foo
            falloc foo 16384 4096 keep_size
            fsync foo
        """,
        mechanisms=("falloc_keep_size_lost",),
    ),
    KnownBug(
        "new-9", "File recovers to incorrect size (ZERO_RANGE with KEEP_SIZE)",
        ("F2FS",), Consequence.WRONG_SIZE, "data inconsistency", 1, "4.16", introduced="2015",
        workload_text="""
            creat foo
            write foo 0 16384
            fsync foo
            fzero foo 16384 4096 keep_size
            fsync foo
        """,
        mechanisms=("fzero_keep_size_wrong_size",),
    ),
    KnownBug(
        "new-10", "Persisted file ends up in a different directory",
        ("F2FS",), Consequence.FILE_MISSING, "corruption", 2, "4.16", introduced="2016",
        workload_text="""
            mkdir A
            sync
            rename A B
            creat B/foo
            fsync B/foo
        """,
        mechanisms=("rename_dir_fsync_old_parent", "fsync_parent_committed_name"),
    ),
    KnownBug(
        "new-11", "FSCQ fdatasync loses appended data",
        ("FSCQ",), Consequence.DATA_LOSS, "data inconsistency", 1, "4.16", introduced="2018",
        workload_text="""
            creat foo
            write foo 0 4096
            sync
            write foo 4096 4096
            fdatasync foo
        """,
        mechanisms=("fdatasync_append_lost",),
    ),
]


#: All bugs keyed by id.
BUGS: Dict[str, KnownBug] = {bug.bug_id: bug for bug in _KNOWN + _NEW}


def known_bugs() -> List[KnownBug]:
    """The 26 previously reported bugs (Appendix 9.1 + the two out-of-bounds ones)."""
    return list(_KNOWN)


def new_bugs() -> List[KnownBug]:
    """The 11 new bugs found by CrashMonkey and ACE (Table 5)."""
    return list(_NEW)


def all_bugs() -> List[KnownBug]:
    return _KNOWN + _NEW


def get_bug(bug_id: str) -> KnownBug:
    try:
        return BUGS[bug_id]
    except KeyError:
        raise KeyError(f"unknown bug id {bug_id!r}") from None


def bugs_for_filesystem(fs_name: str, include_new: bool = True) -> List[KnownBug]:
    """Bugs applicable to one (real or simulator) file-system name."""
    from ..fs.registry import models, resolve_fs_name

    real_name = models(resolve_fs_name(fs_name)).lower()
    source = all_bugs() if include_new else known_bugs()
    return [
        bug for bug in source
        if any(name.lower() == real_name for name in bug.filesystems)
    ]


def table2_bugs() -> List[KnownBug]:
    """The five example bugs shown in Table 2, in row order."""
    rows = [bug for bug in all_bugs() if bug.table2_row is not None]
    return sorted(rows, key=lambda bug: bug.table2_row)
