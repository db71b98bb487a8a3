"""Read checks: persisted file data and metadata must survive the crash.

Data and metadata (size, block count, xattrs, symlink target) of persisted
files must match either their last persisted state or the oracle state ("old
or new"); the *content* of a persisted file must be reachable at one of its
names.
"""

from __future__ import annotations

from typing import List, Optional

from ...fs.bugs import Consequence
from ...fs.inode import FileState
from ..report import Mismatch
from ..tracker import TrackedFile
from .base import CheckContext, register


def describe_paths(ctx: CheckContext, paths) -> str:
    """Summarize the observed state of every candidate path."""
    parts = []
    for path in paths:
        state = ctx.lookup(path)
        parts.append(state.describe() if state is not None else f"{path}: missing")
    return "; ".join(parts) if parts else "no candidate paths exist"


@register
class ReadCheck:
    """Persisted files must read back as their old or new state."""

    name = "read"
    requires_mount = True
    description = "persisted file data/metadata must match the old or the new state"

    def run(self, ctx: CheckContext) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        for record in ctx.view.files.values():
            mismatches.extend(self._check_file_record(ctx, record))
        return mismatches

    def _check_file_record(self, ctx: CheckContext, record: TrackedFile) -> List[Mismatch]:
        mismatches: List[Mismatch] = []
        oracle = ctx.oracle
        oracle_paths = oracle.paths_of_ino(record.ino)

        # Content survival: the persisted content must be reachable somewhere,
        # unless the file was deleted afterwards (then losing it is legal).
        if oracle_paths:
            candidates = sorted(set(record.persisted_paths) | set(oracle_paths))
            survived = False
            any_present = False
            for path in candidates:
                state = ctx.lookup(path)
                if state is None:
                    continue
                any_present = True
                if self._content_matches_record(state, record):
                    survived = True
                    break
                oracle_state = oracle.lookup(path)
                # Matching the oracle only counts when the oracle binds the
                # *same inode* there; matching content that belongs to a
                # different file does not mean the persisted content survived.
                if (
                    oracle_state is not None
                    and oracle_state.ino == record.ino
                    and self._content_matches_oracle(state, oracle_state)
                ):
                    survived = True
                    break
            if not survived:
                consequence = Consequence.DATA_LOSS if any_present else Consequence.FILE_MISSING
                mismatches.append(
                    Mismatch(
                        check="read",
                        consequence=consequence,
                        path=", ".join(sorted(record.persisted_paths)) or oracle_paths[0],
                        expected=f"persisted content reachable: {record.expected_description()}",
                        actual=describe_paths(ctx, candidates),
                    )
                )

        # Per-path checks: each explicitly persisted name must show either the
        # persisted state or the oracle state.
        for path in sorted(record.persisted_paths):
            mismatch = self._check_persisted_path(ctx, record, path)
            if mismatch is not None:
                mismatches.append(mismatch)
        return mismatches

    def _check_persisted_path(self, ctx: CheckContext, record: TrackedFile,
                              path: str) -> Optional[Mismatch]:
        crash_state = ctx.lookup(path)
        oracle_state = ctx.oracle.lookup(path)

        if crash_state is None and oracle_state is None:
            return None  # both agree the name is gone
        if crash_state is None:
            return Mismatch(
                check="read",
                consequence=Consequence.FILE_MISSING,
                path=path,
                expected=record.expected_description(),
                actual="path does not exist after recovery",
            )
        if self._full_matches_record(crash_state, record):
            return None
        if oracle_state is not None and self._full_matches_oracle(crash_state, oracle_state):
            return None
        return self._classify_path_mismatch(path, crash_state, record, oracle_state)

    # -- comparison helpers --------------------------------------------------------

    @staticmethod
    def _content_matches_record(state: FileState, record: TrackedFile) -> bool:
        if state.ftype != record.ftype:
            return False
        if record.ftype == "symlink":
            return state.symlink_target == record.symlink_target
        return state.size == record.size and state.data_hash == record.data_hash()

    @staticmethod
    def _content_matches_oracle(state: FileState, oracle_state: FileState) -> bool:
        if state.ftype != oracle_state.ftype:
            return False
        if state.ftype == "symlink":
            return state.symlink_target == oracle_state.symlink_target
        return state.size == oracle_state.size and state.data_hash == oracle_state.data_hash

    @staticmethod
    def _full_matches_record(state: FileState, record: TrackedFile) -> bool:
        if state.ftype != record.ftype:
            return False
        if record.ftype == "symlink":
            return state.symlink_target == record.symlink_target
        return (
            state.size == record.size
            and state.data_hash == record.data_hash()
            and state.allocated_blocks == record.allocated_blocks
            and tuple(state.xattrs) == tuple(record.xattrs)
        )

    @staticmethod
    def _full_matches_oracle(state: FileState, oracle_state: FileState) -> bool:
        if state.ftype != oracle_state.ftype:
            return False
        if state.ftype == "symlink":
            return state.symlink_target == oracle_state.symlink_target
        return (
            state.size == oracle_state.size
            and state.data_hash == oracle_state.data_hash
            and state.allocated_blocks == oracle_state.allocated_blocks
            and tuple(state.xattrs) == tuple(oracle_state.xattrs)
        )

    def _classify_path_mismatch(self, path: str, crash_state: FileState,
                                record: TrackedFile, oracle_state: Optional[FileState]) -> Mismatch:
        expected = record.expected_description()
        if oracle_state is not None:
            expected += f" (or oracle: {oracle_state.describe()})"
        actual = crash_state.describe()

        if crash_state.ftype != record.ftype:
            consequence = Consequence.CORRUPTION
        elif record.ftype == "symlink":
            consequence = Consequence.CORRUPTION
        elif crash_state.data_hash != record.data_hash() and crash_state.size < record.size:
            consequence = Consequence.DATA_LOSS
        elif crash_state.size != record.size:
            consequence = Consequence.WRONG_SIZE
        elif crash_state.data_hash != record.data_hash():
            consequence = Consequence.DATA_INCONSISTENCY
        elif crash_state.allocated_blocks != record.allocated_blocks:
            consequence = Consequence.DATA_LOSS
        elif tuple(crash_state.xattrs) != tuple(record.xattrs):
            consequence = Consequence.DATA_INCONSISTENCY
        else:
            consequence = Consequence.CORRUPTION
        return Mismatch(
            check="read", consequence=consequence, path=path, expected=expected, actual=actual
        )
