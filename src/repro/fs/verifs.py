"""VeriFS — an FSCQ-like "verified" file system.

The paper found a data-loss bug in FSCQ that originated in an *unverified*
optimization in the C-Haskell bindings.  VeriFS mirrors that situation: its
fsync path is a full checkpoint (trivially correct, as one would expect from a
verified core), while its fdatasync path uses an optimized "logged writes
disabled" shortcut that — when the injected mechanism is enabled — fails to
persist size growth from appending writes.
"""

from __future__ import annotations

from typing import Optional

from .base import AbstractFileSystem
from .inode import Inode


class VeriFS(AbstractFileSystem):
    """FSCQ-like file system: verified core, unverified fdatasync fast path."""

    fs_type = "verifs"

    def fsync(self, path: str) -> None:
        self._require_mounted(persisting=True)
        self._get_inode(path)  # validate the path, as the real call would
        # The verified path simply commits the whole tree.
        self.sync()

    def fdatasync(self, path: str) -> None:
        self._require_mounted(persisting=True)
        inode = self._get_inode(path)
        if not inode.is_file:
            self.sync()
            return
        self._flush_inode_data(inode)
        inode.mmap_ranges = []
        self._log_inode(inode, datasync=True)

    def msync(self, path: str, offset: int = 0, length: Optional[int] = None) -> None:
        self.fdatasync(path)

    def _apply_entry_bugs(self, entry: dict, inode: Inode, names, *, datasync: bool,
                          msync_range) -> dict:
        if (
            datasync
            and inode.is_file
            and self.bugs.is_enabled("fdatasync_append_lost")
        ):
            committed = self._committed_attrs.get(inode.ino) or {}
            committed_size = int(committed.get("size", 0))
            if inode.size > committed_size:
                # The optimized fdatasync path skips the size update for
                # appends, so the appended data is unreachable after a crash.
                entry["attrs"]["size"] = committed_size
        return entry
