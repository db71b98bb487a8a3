"""LogFS — a btrfs-like file system with an fsync log tree.

LogFS is the per-inode fsync log of :class:`FsyncLogFS` kept in the
log-structured-write segment area: append-only records tagged with a
monotonic lsn, recovered by scanning to the last valid record.  Its own bug
mechanism, ``lsw_unfenced_append``, is an omitted step of the shared commit
(see :data:`repro.fs.bugs.OMITTED_STEPS`).
"""

from __future__ import annotations

from typing import List

from ..errors import FsNoSpaceError
from . import layout
from .fsynclogfs import FsyncLogFS
from .inode import Inode


class LogFS(FsyncLogFS):
    """btrfs-like file system with per-inode fsync logging."""

    fs_type = "logfs"

    def _reset_log_cursor(self) -> None:
        super()._reset_log_cursor()
        self.next_segment_block = layout.SEGMENT_START
        self.segment_lsn = 0

    def _append_log_entry(self, entry: dict) -> None:
        self.segment_lsn += 1
        try:
            self.next_segment_block = layout.write_segment_record(
                self.device, entry, self.generation, self.segment_lsn,
                self.next_segment_block,
            )
        except FsNoSpaceError:
            # Segment area exhausted: force a full commit, which resets it.
            self.sync()

    def _read_replay_entries(self) -> List[dict]:
        # Deliberately ignores the segment-usage summary block: recovery
        # rebuilds segment usage from the record scan, so a stale, dropped
        # or torn summary is unobservable after a crash.
        return layout.read_segment_records(self.device, self.generation)

    def _log_inode(self, inode: Inode, **options) -> List[dict]:
        entries = super()._log_inode(inode, **options)
        # Update the segment-usage summary *after* the sealing flush: like
        # the LFS/F2FS segment summary area it is a lazily-written cache
        # outside the fsync durability contract, so it rides the device
        # cache until the next checkpoint.
        layout.write_segment_summary(
            self.device, self.generation, self.segment_lsn,
            self.next_segment_block,
        )
        return entries
