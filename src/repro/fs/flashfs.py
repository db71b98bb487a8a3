"""FlashFS — an F2FS-like log-structured file system.

FlashFS is the per-inode fsync log of :class:`FsyncLogFS` (F2FS likewise logs
node blocks at fsync and rolls them forward during recovery) kept in the plain
log area, which models F2FS packing fsync'd node blocks into its node journal.
It carries the F2FS-specific bug mechanisms from the paper: the
fallocate/ZERO_RANGE size bugs and the rename-of-parent-directory bug.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..storage.block import blocks_needed
from .fsynclogfs import FsyncLogFS
from .inode import Inode


class FlashFS(FsyncLogFS):
    """F2FS-like file system with roll-forward node logging."""

    fs_type = "flashfs"

    def fdatasync(self, path: str) -> None:
        self._require_mounted(persisting=True)
        inode = self._get_inode(path)
        if self._fdatasync_would_skip(inode):
            # The buggy fast path only checks whether the file size changed;
            # a KEEP_SIZE allocation leaves the size untouched, so nothing is
            # written at all and the reserved blocks are lost on a crash.
            return
        super().fdatasync(path)

    def _apply_entry_bugs(self, entry: dict, inode: Inode, names: Dict[int, List[str]], *,
                          datasync: bool, msync_range: Optional[Tuple[int, int]]) -> dict:
        entry = super()._apply_entry_bugs(entry, inode, names, datasync=datasync,
                                          msync_range=msync_range)
        bugs = self.bugs

        if inode.is_file and bugs.is_enabled("fzero_keep_size_wrong_size"):
            zero_ops = [
                op for op in self._data_ops_since_commit(inode.ino, {"fzero"})
                if op.get("keep_size")
            ]
            if zero_ops:
                # The node log records the size as if KEEP_SIZE had not been
                # passed, so the file recovers with the extended size.
                extended = max(op["offset"] + op["length"] for op in zero_ops)
                entry["attrs"]["size"] = max(entry["attrs"]["size"], extended)
                entry["attrs"]["allocated_blocks"] = max(
                    entry["attrs"]["allocated_blocks"], blocks_needed(extended)
                )

        if bugs.is_enabled("rename_dir_fsync_old_parent"):
            entry["names_add"] = [
                self._rewrite_to_committed_parent(record) for record in entry["names_add"]
            ]

        return entry
