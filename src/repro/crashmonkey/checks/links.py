"""Hard-link count consistency check (new in the pluggable pipeline).

The original monolithic checker compared sizes, hashes, block counts and xattrs
but never an inode's *link count*, so a recovery that loses (or resurrects) a
directory entry while leaving ``nlink`` stale went unnoticed as long as the
surviving name read back correctly.  A stale link count is a real
consequence: the kernel's equivalents keep an inode allocated forever (a
space leak) or trip fsck.

This check asserts the recovered file system's internal invariant: for every
tracked file inode, the observed ``nlink`` must equal the number of directory
entries that actually reference the inode after recovery.
"""

from __future__ import annotations

from typing import List

from ...fs.bugs import Consequence
from ..report import Mismatch
from .base import CheckContext, register


@register
class HardLinkCountCheck:
    """nlink of every persisted file must match its recovered name count."""

    name = "hardlink"
    requires_mount = True
    description = "recovered link counts must match the directory entries referencing the inode"

    def run(self, ctx: CheckContext) -> List[Mismatch]:
        oracle = ctx.oracle
        mismatches: List[Mismatch] = []
        seen_inodes = set()
        for record in ctx.view.files.values():
            if record.ftype != "file" or record.ino in seen_inodes:
                continue
            seen_inodes.add(record.ino)
            candidates = sorted(set(record.persisted_paths) | set(oracle.paths_of_ino(record.ino)))
            for path in candidates:
                state = ctx.lookup(path)
                if state is None or state.ino != record.ino or state.ftype != "file":
                    continue
                names = ctx.names_of(state.ino)
                if state.nlink != len(names):
                    mismatches.append(
                        Mismatch(
                            check="hardlink",
                            consequence=Consequence.DATA_INCONSISTENCY,
                            path=path,
                            expected=(
                                "link count equals the number of names referencing "
                                f"ino {record.ino} after recovery"
                            ),
                            actual=(
                                f"nlink={state.nlink} but {len(names)} name(s) reference "
                                f"the inode: {sorted(names)}"
                            ),
                        )
                    )
                break  # one verdict per inode
        return mismatches
