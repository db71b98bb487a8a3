"""Abstract simulated file system.

``AbstractFileSystem`` composes five single-purpose parts over one in-memory
state (page cache + metadata) and one on-disk image maintained through the
layout helpers in :mod:`repro.fs.layout`: :mod:`~repro.fs.paths` (resolution
and walks), :mod:`~repro.fs.operations` (the POSIX-ish operations and the read
API), :mod:`~repro.fs.commit` (commit tracking, checkpoint, ``sync``),
:mod:`~repro.fs.logentry` (the fsync log's write side) and
:mod:`~repro.fs.recovery` (``mount`` and log replay).  The parts hold no state
and call each other through ``self``, so every name is reachable, and
patchable, on this class; it keeps construction, ``fork`` and the question
the parts ask of the bug config, ``_omits(step)``.

The crucial property for crash testing is that *operations only modify the
in-memory state*; the on-disk image changes only when a persistence operation
(fsync, fdatasync, msync, sync) or a checkpoint writes it out.  Concrete file
systems decide *what* gets written at each persistence point — that is where
the injected bug mechanisms live.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..errors import FsNotMountedError, FsReadOnlyError
from . import layout
from .bugs import OMITTED_STEPS, BugConfig
from .commit import CommitTracking
from .inode import ROOT_INO, FileType, Inode, NamespaceOp
from .logentry import LogEntries
from .operations import Operations
from .paths import PathResolution
from .recovery import Recovery


class AbstractFileSystem(Operations, CommitTracking, LogEntries, Recovery, PathResolution):
    """Base class for the simulated file systems."""

    fs_type = "abstract"

    def __init__(self, device, bugs: Optional[BugConfig] = None):
        self.device = device
        self.bugs = bugs if bugs is not None else BugConfig.all_for(self.fs_type)
        self.mounted = False
        self.inodes: Dict[int, Inode] = {}
        self.next_ino = ROOT_INO + 1
        self.allocator = layout.DataAllocator(device.num_blocks)
        self.generation = 0
        self._reset_log_cursor()
        self.recovery_ran = False

        # Commit tracking: what the on-disk image knows about each inode.
        self._committed_attrs: Dict[int, dict] = {}
        self._committed_paths: Dict[int, Set[str]] = {}
        self._namespace_ops: List[NamespaceOp] = []
        self._ns_seq = 0
        self._data_ops: Dict[int, List[dict]] = {}
        self._logged_inos: Set[int] = set()
        #: mounted with ``inspect=True``: the committed tables above were not
        #: built, so nothing that reads them (fsync, fdatasync, msync) may run
        self._inspect_only = False

    # ------------------------------------------------------------------ lifecycle

    @classmethod
    def mkfs(cls, device, bugs: Optional[BugConfig] = None) -> "AbstractFileSystem":
        """Format ``device`` with a fresh, empty file system (not mounted)."""
        fs = cls(device, bugs)
        root = Inode(ROOT_INO, FileType.DIR)
        fs.inodes = {ROOT_INO: root}
        fs._write_checkpoint(clean=True)
        return fs

    def unmount(self, safe: bool = True) -> None:
        """Unmount.  A *safe* unmount flushes everything and marks the image clean."""
        self._require_mounted()
        if safe:
            self.sync()
            superblock = self._current_superblock()
            superblock.clean_unmount = True
            self._write_superblock(superblock)
        self.mounted = False

    def fork(self, device) -> "AbstractFileSystem":
        """An independent copy of the in-memory state, attached to ``device``.

        Copies exactly the containers operations mutate in place; everything
        else is rebound or written once, so the twin shares it.  The list is
        complete for every subclass: ``tests/test_fs_fork.py`` walks ``vars()``
        and fails on a mutable object reachable from both sides.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.device = device
        twin.inodes = {ino: inode.clone() for ino, inode in self.inodes.items()}
        twin.allocator = layout.DataAllocator(self.allocator.device_blocks,
                                              self.allocator.next_block)
        twin._committed_attrs = dict(self._committed_attrs)
        twin._committed_paths = {ino: set(paths) for ino, paths in self._committed_paths.items()}
        twin._namespace_ops = list(self._namespace_ops)
        twin._data_ops = {ino: list(ops) for ino, ops in self._data_ops.items()}
        twin._logged_inos = set(self._logged_inos)
        return twin

    def fork_bytes(self) -> int:
        """What a spine store is charged for holding a fork of this state.

        File data plus a fixed charge per record (inode, committed attrs,
        journalled op) and per entry (name, extent, xattr, committed path):
        never below the fork's pickled length, which is what a spill writes,
        and within twice it (the charges are fitted to the seq-1 and seq-2
        spaces; ``tests/test_fs_fork.py`` pins both bounds).
        """
        inodes = self.inodes.values()
        records = (len(self.inodes) + len(self._committed_attrs) + len(self._namespace_ops)
                   + sum(map(len, self._data_ops.values())))
        entries = (sum(len(i.children) + len(i.block_map) + len(i.xattrs) for i in inodes)
                   + sum(map(len, self._committed_paths.values())))
        return (768 + sum(len(name) + 3 for name in self.bugs.enabled)
                + sum(len(i.data) for i in inodes) + 96 * records + 32 * entries)

    def _require_mounted(self, *, persisting: bool = False) -> None:
        """Every operation starts here; the per-file persistence operations
        pass ``persisting=True`` because they read the commit tables."""
        if not self.mounted:
            raise FsNotMountedError(f"{self.fs_type} is not mounted")
        if persisting and self._inspect_only:
            raise FsReadOnlyError(
                f"{self.fs_type} is mounted for inspection: the commit tables a "
                "persistence operation reads were never built (sync() builds them)"
            )

    def _omits(self, step: str) -> bool:
        """Whether an enabled bug mechanism makes this file system leave out
        ``step`` of the shared commit / replay machinery."""
        enabled = self.bugs.enabled
        return any(bug_id in enabled and self.fs_type in fs_types
                   for bug_id, fs_types in OMITTED_STEPS[step].items())

    # The per-file persistence operations are file-system specific.

    def fsync(self, path: str) -> None:
        raise NotImplementedError

    def fdatasync(self, path: str) -> None:
        raise NotImplementedError

    def msync(self, path: str, offset: int = 0, length: Optional[int] = None) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} mounted={self.mounted} inodes={len(self.inodes)}>"
