"""Atomicity check: a rename may not leave the same inode at both names."""

from __future__ import annotations

from typing import List

from ...fs.bugs import Consequence
from ..report import Mismatch
from .base import CheckContext, register


@register
class AtomicityCheck:
    """A crashed rename must resolve to the old name or the new name, not both."""

    name = "atomicity"
    requires_mount = True
    description = "a rename may not leave the same inode visible at both names"

    def run(self, ctx: CheckContext) -> List[Mismatch]:
        oracle = ctx.oracle
        mismatches: List[Mismatch] = []
        for rename in ctx.view.renames:
            src_state = ctx.lookup(rename.src)
            dst_state = ctx.lookup(rename.dst)
            if src_state is None or dst_state is None:
                continue
            if src_state.ftype != "file" or src_state.ino != dst_state.ino:
                continue
            oracle_src = oracle.lookup(rename.src)
            oracle_dst = oracle.lookup(rename.dst)
            if (
                oracle_src is not None
                and oracle_dst is not None
                and oracle_src.ino == oracle_dst.ino
            ):
                continue  # the oracle itself has both names (e.g. re-linked)
            mismatches.append(
                Mismatch(
                    check="atomicity",
                    consequence=Consequence.ATOMICITY,
                    path=f"{rename.src} -> {rename.dst}",
                    expected="renamed file visible at either the old or the new name, not both",
                    actual=(
                        f"same inode visible at {rename.src!r} and {rename.dst!r} "
                        f"(ino {src_state.ino})"
                    ),
                )
            )
        return mismatches
