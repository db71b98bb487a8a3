"""Commit tracking: what the on-disk image knows, and what changed since.

Two committed tables (attributes and names per inode) say what the last
checkpoint or log entry put on disk; three journals (namespace changes, data
operations, inodes already logged) say what happened since.  The per-file
persistence operations decide what to write by comparing the two — and the
bug mechanisms are filters over exactly these.  ``sync`` commits everything:
flush the data, write a checkpoint, start a new epoch.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..errors import FsNoSpaceError
from ..storage.block import BLOCK_SIZE, blocks_needed
from . import layout
from .inode import ROOT_INO, Inode, NamespaceOp


class CommitTracking:
    """The journals, the committed tables, data flushing and the checkpoint."""

    # ------------------------------------------------------------------ journals

    def _record_ns(self, kind: str, path: str, ino: int, cause: str, counterpart: Optional[str] = None) -> None:
        """Journal a namespace change; both paths arrive normalised."""
        self._ns_seq += 1
        self._namespace_ops.append(
            NamespaceOp(kind=kind, path=path, ino=ino, cause=cause,
                        counterpart=counterpart or None, seq=self._ns_seq)
        )

    def _record_data_op(self, ino: int, **op) -> None:
        self._data_ops.setdefault(ino, []).append(op)

    def _reset_commit_tracking(self) -> None:
        """Synchronize commit tracking with the current in-memory state."""
        self._committed_attrs = {ino: inode.to_meta() for ino, inode in self.inodes.items()}
        self._committed_paths = {}
        for path, ino in self._walk():
            self._committed_paths.setdefault(ino, set()).add(path)
        self._committed_paths.setdefault(ROOT_INO, set()).add("")
        self._start_commit_epoch()
        self._inspect_only = False

    def _start_commit_epoch(self) -> None:
        """Empty the journals of what changed since the last commit."""
        self._namespace_ops = []
        self._data_ops = {}
        self._logged_inos = set()

    def committed_paths(self, ino: int) -> Set[str]:
        return set(self._committed_paths.get(ino, set()))

    def _new_links_since_commit(self, ino: int) -> List[str]:
        return [
            op.path for op in self._namespace_ops
            if op.kind == "add" and op.ino == ino and op.cause == "link"
        ]

    def _data_ops_since_commit(self, ino: int, kinds: Set[str]) -> List[dict]:
        return [op for op in self._data_ops.get(ino, ()) if op.get("kind") in kinds]

    def _fdatasync_would_skip(self, inode: Inode) -> bool:
        """The ``falloc_keep_size_fdatasync`` fast path: the size did not move
        since the commit, so a KEEP_SIZE allocation looks like no change."""
        if not (inode.is_file and self.bugs.is_enabled("falloc_keep_size_fdatasync")):
            return False
        committed = self._committed_attrs.get(inode.ino) or {}
        if inode.size != int(committed.get("size", 0)):
            return False
        return any(op.get("keep_size")
                   for op in self._data_ops_since_commit(inode.ino, {"falloc", "fzero"}))

    # ------------------------------------------------------------------ data flushing

    def _flush_inode_data(self, inode: Inode, only_blocks: Optional[Set[int]] = None,
                          skip_blocks: Optional[Set[int]] = None) -> None:
        """Write the inode's in-memory data to data blocks on the device.

        ``only_blocks`` restricts the flush to the given file-block indices;
        ``skip_blocks`` omits the given indices (used by bug mechanisms that
        "forget" to write part of the data).
        """
        if not inode.is_file:
            return
        total_blocks = blocks_needed(len(inode.data))
        for file_block in range(total_blocks):
            if only_blocks is not None and file_block not in only_blocks:
                continue
            if skip_blocks is not None and file_block in skip_blocks:
                continue
            if file_block not in inode.block_map:
                inode.block_map[file_block] = self.allocator.allocate(1)[0]
            start = file_block * BLOCK_SIZE
            chunk = bytes(inode.data[start:start + BLOCK_SIZE])
            self._device_write(inode.block_map[file_block], chunk, metadata=False, tag="data")
        if only_blocks is None and skip_blocks is None:
            # Partial flushes (direct I/O, ranged msync, buggy skips) leave the
            # rest of the data dirty.
            inode.dirty_data = False

    def _device_write(self, block: int, data: bytes, *, metadata: bool, tag: str,
                      fua: bool = False) -> None:
        self.device.write_block(block, data, metadata=metadata, fua=fua, tag=tag)

    def _device_flush(self, *, sync: bool = False) -> None:
        """Issue a cache-flush barrier to the device.

        Everything written before the flush is durable once it completes; the
        crash planners treat writes after the last flush as in-flight (they
        may be lost or reordered by a crash).
        """
        self.device.flush(sync=sync)

    # -- layout hooks (subclasses reroute these to their own on-disk areas) --

    def _read_superblock(self) -> layout.Superblock:
        return layout.read_superblock(self.device)

    def _write_superblock(self, superblock: layout.Superblock) -> None:
        layout.write_superblock(self.device, superblock)

    def _current_superblock(self) -> layout.Superblock:
        superblock = self._read_superblock()
        superblock.fs_type = self.fs_type
        return superblock

    def _reset_log_cursor(self) -> None:
        """Reset the append cursor after mkfs, mount, or a checkpoint."""
        self.next_log_block = layout.LOG_START
        self.log_seq = 0

    # ------------------------------------------------------------------ checkpoints

    def _serialize_meta(self) -> dict:
        return {
            "inodes": {str(ino): inode.to_meta() for ino, inode in self.inodes.items()},
            "next_ino": self.next_ino,
            "allocator": self.allocator.to_json(),
        }

    def _write_checkpoint(self, clean: bool = False) -> None:
        """Flush all data and write a full metadata checkpoint + superblock."""
        for inode in self.inodes.values():
            if inode.is_file and inode.dirty_data:
                self._flush_inode_data(inode)
            inode.mmap_ranges = []
        meta = self._serialize_meta()
        # When the commit skips the flush before the FUA superblock (the
        # missing_flush_before_fua mechanism), an *incomplete* commit becomes
        # reachable: a crash can drop a checkpoint block whose old-generation
        # header recovery detects, falling back to the previous checkpoint.
        # Journal the full metadata tree first so that fallback rolls the
        # state forward instead of losing what sync() promised durable — the
        # bug's only observable effect is then the sector-torn block a
        # header check cannot catch.  A correct commit flushes the checkpoint
        # blocks before the superblock, so the fallback is unreachable and
        # the entry would be pure write-stream inflation.  Written directly
        # (not via _append_log_entry, whose no-space fallback is a recursive
        # sync()): a full log must not abort the commit, because the
        # checkpoint itself is what frees the log.
        unflushed_commit = self._omits("flush_before_fua")
        if unflushed_commit and self.generation >= 1:
            self.log_seq += 1
            try:
                self.next_log_block = layout.write_log_entry(
                    self.device,
                    {"kind": "journal_commit", "meta": meta, "datasync": False},
                    self.generation, self.log_seq, self.next_log_block,
                )
            except FsNoSpaceError:
                pass
        # Data must be stable before the checkpoint that references it, and
        # the checkpoint blocks before the (FUA) superblock that names them.
        self._device_flush()
        self.generation += 1
        area = "A" if self.generation % 2 == 1 else "B"
        blocks = layout.write_checkpoint(self.device, meta, self.generation, area)
        if not unflushed_commit:
            self._device_flush()
        superblock = layout.Superblock(
            fs_type=self.fs_type,
            generation=self.generation,
            checkpoint_area=area,
            checkpoint_blocks=blocks,
            clean_unmount=clean,
        )
        self._write_superblock(superblock)
        self._reset_log_cursor()

    def sync(self) -> None:
        """Global sync: flush everything and commit a new checkpoint."""
        self._require_mounted()
        self._write_checkpoint(clean=False)
        self._reset_commit_tracking()
