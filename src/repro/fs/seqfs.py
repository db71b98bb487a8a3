"""SeqFS — an ext4/xfs-like journaling file system.

SeqFS persists metadata through whole-tree journal commits: an fsync flushes
the target file's data and then commits *all* dirty metadata in one journal
transaction (ext4's running-transaction commit behaves the same way).  This
makes SeqFS essentially correct — which matches the paper's observation that
the mature journaling file systems had very few crash-consistency bugs — but
it still carries the two ext4 bugs from the study: the direct-write size bug
and the fallocate/fdatasync bug.
"""

from __future__ import annotations

from typing import Optional

from . import layout
from .base import AbstractFileSystem
from .inode import Inode


class SeqFS(AbstractFileSystem):
    """ext4-like journaling file system."""

    fs_type = "seqfs"

    # ------------------------------------------------------------------ replicated superblock

    # SeqFS keeps a 2-way replicated superblock (like xfs's redundant AG
    # superblocks): every commit writes both copies with the same generation,
    # and recovery reads whichever copies parse and takes the newest.

    def _read_superblock(self) -> layout.Superblock:
        return layout.read_superblock_pair(self.device)

    def _write_superblock(self, superblock: layout.Superblock) -> None:
        # Reference bug for the replicated-metadata reasoner: the buggy
        # commit path trusts the mirror to make FUA unnecessary and issues
        # both copies as plain cache writes, so a crash can drop the whole
        # replica set back a generation.
        fua = not self.bugs.is_enabled("replica_commit_no_fua")
        layout.write_superblock_pair(self.device, superblock, fua=fua)

    # ------------------------------------------------------------------ persistence

    def fsync(self, path: str) -> None:
        self._require_mounted(persisting=True)
        self._journal_commit(focus=self._get_inode(path), datasync=False)

    def fdatasync(self, path: str) -> None:
        self._require_mounted(persisting=True)
        inode = self._get_inode(path)
        if self._fdatasync_would_skip(inode):
            # The buggy path concludes nothing changed (the size did not
            # move) and skips the journal commit entirely.
            return
        self._journal_commit(focus=inode, datasync=True)

    def msync(self, path: str, offset: int = 0, length: Optional[int] = None) -> None:
        self._require_mounted(persisting=True)
        self._journal_commit(focus=self._get_inode(path), datasync=True)

    # ------------------------------------------------------------------ journal

    def _journal_commit(self, focus: Inode, datasync: bool) -> None:
        """Flush ``focus`` and write a journal transaction carrying the full
        metadata tree."""
        if focus.is_file:
            self._flush_inode_data(focus)
            focus.mmap_ranges = []
        # Ordered-mode behaviour: data referenced by the metadata being
        # committed is flushed before the commit, so files never recover with
        # a size that points at unwritten (zero) blocks.
        for inode in self.inodes.values():
            if inode.is_file and inode.dirty_data:
                self._flush_inode_data(inode)
        # Ordered data must be stable before the transaction that commits it.
        self._device_flush()
        meta = self._serialize_meta()

        if (
            self.bugs.is_enabled("dwrite_size_zero")
            and focus.is_file
        ):
            committed = self._committed_attrs.get(focus.ino) or {}
            committed_size = int(committed.get("size", 0))
            dwrites_past_disksize = [
                op for op in self._data_ops_since_commit(focus.ino, {"dwrite"})
                if op.get("offset", 0) + op.get("length", 0) > committed_size
            ]
            if dwrites_past_disksize:
                inode_meta = meta["inodes"].get(str(focus.ino))
                if inode_meta is not None:
                    # The direct-write path allocated blocks and wrote data
                    # past the on-disk size, but the on-disk inode size was
                    # never updated.
                    inode_meta["size"] = committed_size

        entry = {"kind": "journal_commit", "meta": meta, "datasync": datasync}
        self._append_log_entry(entry)
        self._device_flush(sync=True)
        self._logged_inos.add(focus.ino)
        self._committed_attrs = {
            int(ino): dict(inode_meta) for ino, inode_meta in meta["inodes"].items()
        }
        self._committed_paths = {}
        for path, ino in self._walk():
            self._committed_paths.setdefault(ino, set()).add(path)
