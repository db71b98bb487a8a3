"""Directory checks: entries persisted by a directory fsync must exist.

An entry is only still expected if the oracle says it was not legitimately
removed.  For backwards compatibility with the original monolithic checker these
mismatches carry ``check="read"`` — they are read-side failures of persisted
directory state — while the check itself is selectable as ``directory``.
"""

from __future__ import annotations

from typing import List

from ...fs.bugs import Consequence
from ..report import Mismatch
from .base import CheckContext, register


@register
class DirectoryCheck:
    """Entries persisted by a directory fsync must survive recovery."""

    name = "directory"
    requires_mount = True
    description = "entries persisted by a directory fsync must exist after recovery"

    def run(self, ctx: CheckContext) -> List[Mismatch]:
        oracle = ctx.oracle
        mismatches: List[Mismatch] = []
        for record in ctx.view.dirs.values():
            crash_dir = ctx.lookup(record.path)
            oracle_dir = oracle.lookup(record.path)
            if crash_dir is None:
                if oracle_dir is not None:
                    mismatches.append(
                        Mismatch(
                            check="read",
                            consequence=Consequence.FILE_MISSING,
                            path=record.path,
                            expected=record.expected_description(),
                            actual="persisted directory does not exist after recovery",
                        )
                    )
                continue
            if crash_dir.ftype != "dir":
                mismatches.append(
                    Mismatch(
                        check="read",
                        consequence=Consequence.CORRUPTION,
                        path=record.path,
                        expected=record.expected_description(),
                        actual=crash_dir.describe(),
                    )
                )
                continue
            for child, child_ino in sorted(record.children.items()):
                if child in crash_dir.children:
                    continue
                child_path = f"{record.path}/{child}" if record.path else child
                oracle_child = oracle.lookup(child_path)
                # The entry is only still expected if the oracle binds the same
                # inode to it; if another inode took the name (and that change
                # was never persisted), losing the un-persisted replacement is
                # legal.
                still_expected = oracle_child is not None and (
                    child_ino == 0 or oracle_child.ino == child_ino
                )
                if still_expected:
                    mismatches.append(
                        Mismatch(
                            check="read",
                            consequence=Consequence.FILE_MISSING,
                            path=child_path,
                            expected=f"directory entry {child!r} persisted by fsync of {record.path!r}",
                            actual=f"entry missing; directory now contains {sorted(crash_dir.children)}",
                        )
                    )
        return mismatches
