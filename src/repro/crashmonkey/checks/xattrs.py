"""Directory xattr persistence check (new in the pluggable pipeline).

The original monolithic checker compared xattrs of persisted *files* (as part of
its full-state read check) but never looked at the extended attributes of
persisted *directories* — the tracker did not even record them.  A directory
fsync persists the directory inode, so its xattrs at that point are part of
the durable contract: after a crash they must read back as either the last
persisted set or the oracle's ("old or new").
"""

from __future__ import annotations

from typing import List

from ...fs.bugs import Consequence
from ..report import Mismatch
from .base import CheckContext, register


@register
class DirXattrCheck:
    """Persisted directory xattrs must recover to the old or the new set."""

    name = "xattr"
    requires_mount = True
    description = "xattrs of persisted directories must match the old or the new set"

    def run(self, ctx: CheckContext) -> List[Mismatch]:
        oracle = ctx.oracle
        mismatches: List[Mismatch] = []
        for record in ctx.view.dirs.values():
            crash_dir = ctx.lookup(record.path)
            if crash_dir is None or crash_dir.ftype != "dir" or crash_dir.ino != record.ino:
                continue  # missing/replaced directories are the directory check's business
            allowed = {tuple(record.xattrs)}
            oracle_dir = oracle.lookup(record.path)
            if (
                oracle_dir is not None
                and oracle_dir.ftype == "dir"
                and oracle_dir.ino == record.ino
            ):
                allowed.add(tuple(oracle_dir.xattrs))
            if tuple(crash_dir.xattrs) not in allowed:
                expected = f"persisted xattrs {sorted(record.xattrs)}"
                if len(allowed) > 1:
                    expected += f" (or oracle: {sorted(oracle_dir.xattrs)})"
                mismatches.append(
                    Mismatch(
                        check="xattr",
                        consequence=Consequence.DATA_INCONSISTENCY,
                        path=record.path,
                        expected=expected,
                        actual=f"directory has xattrs {sorted(crash_dir.xattrs)}",
                    )
                )
        return mismatches
