"""Persisted-set tracker.

CrashMonkey wraps the system calls that manipulate and persist files so it
knows, at every persistence point, which files and directories have been
explicitly persisted and in what state (paper §5.1, "Profiling workloads").
Only those files and directories are checked after a simulated crash —
everything else is allowed to be lost.

The tracker keeps per-inode records because the file systems' guarantees are
inode-centric: fsync of a file persists the file's data, metadata and all of
its hard links; fsync of a directory persists the directory's entries; a
global sync persists everything.  For each crash point the tracker freezes a
:class:`TrackerView` so the checker can reason about exactly what had been
persisted *at that point*.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..fs.inode import FileState, content_sha1
from ..workload.operations import Operation, OpKind


@dataclass
class TrackedFile:
    """Expected persisted state of one file (or symlink) inode."""

    ino: int
    ftype: str
    persisted_paths: Set[str] = field(default_factory=set)
    expected_data: bytes = b""
    size: int = 0
    nlink: int = 1
    allocated_blocks: int = 0
    xattrs: Tuple = ()
    symlink_target: Optional[str] = None
    last_checkpoint: int = 0
    datasync_only: bool = False

    def data_hash(self) -> str:
        return content_sha1(self.expected_data)

    def expected_description(self) -> str:
        if self.ftype == "symlink":
            return f"symlink -> {self.symlink_target!r}"
        return (
            f"file size={self.size} blocks={self.allocated_blocks} nlink={self.nlink} "
            f"sha1={self.data_hash()[:12]} paths={sorted(self.persisted_paths)}"
        )


@dataclass
class TrackedDir:
    """Expected persisted state of one directory inode.

    ``children`` maps each persisted entry name to the inode number it was
    bound to at the persistence point, so the checker can tell "the entry is
    legitimately gone because its inode was replaced/renamed and that change
    was persisted" apart from "the persisted entry was lost".
    """

    ino: int
    path: str
    children: Dict[str, int] = field(default_factory=dict)
    xattrs: Tuple = ()
    last_checkpoint: int = 0

    def expected_description(self) -> str:
        return f"dir {self.path!r} entries={sorted(self.children)}"


@dataclass
class RenameRecord:
    """A rename observed during the workload (used by the atomicity check)."""

    src: str
    dst: str
    ino: int
    op_index: int


@dataclass
class TrackerView:
    """Frozen tracker state at one persistence point."""

    checkpoint_id: int
    files: Dict[int, TrackedFile] = field(default_factory=dict)
    dirs: Dict[int, TrackedDir] = field(default_factory=dict)
    renames: List[RenameRecord] = field(default_factory=list)


class PersistenceTracker:
    """Observes the workload as it runs and tracks the persisted set."""

    def __init__(self, fs):
        self.fs = fs
        self._files: Dict[int, TrackedFile] = {}
        self._dirs: Dict[int, TrackedDir] = {}
        self._renames: List[RenameRecord] = []
        self._views: Dict[int, TrackerView] = {}

    # ------------------------------------------------------------------ observation

    def before_operation(self, op: Operation, index: int) -> None:
        """Observe an operation before it executes (to record rename intent)."""
        if op.op == OpKind.RENAME and len(op.args) >= 2:
            src, dst = str(op.args[0]), str(op.args[1])
            ino = 0
            state = self.fs.lookup_state(src)
            if state is not None:
                ino = state.ino
            if state is not None and state.ftype == "file":
                self._renames.append(RenameRecord(src=self._norm(src), dst=self._norm(dst),
                                                  ino=ino, op_index=index))

    def on_persistence(self, op: Operation, index: int, checkpoint_id: int) -> None:
        """Update the persisted set right after a persistence op completed."""
        if op.op == OpKind.SYNC:
            self._track_everything(checkpoint_id)
        elif op.op in (OpKind.FSYNC,):
            self._track_path(str(op.args[0]), checkpoint_id, datasync=False)
        elif op.op in (OpKind.FDATASYNC,):
            self._track_path(str(op.args[0]), checkpoint_id, datasync=True)
        elif op.op == OpKind.MSYNC:
            path = str(op.args[0])
            if len(op.args) >= 3:
                self._track_msync_range(path, int(op.args[1]), int(op.args[2]), checkpoint_id)
            else:
                self._track_path(path, checkpoint_id, datasync=True)
        # Tracking mutates the live records in place, so the view takes its
        # own copy of each record and of the two containers a record holds
        # (every other field is immutable).
        self._views[checkpoint_id] = TrackerView(
            checkpoint_id=checkpoint_id,
            files={ino: replace(record, persisted_paths=set(record.persisted_paths))
                   for ino, record in self._files.items()},
            dirs={ino: replace(record, children=dict(record.children))
                  for ino, record in self._dirs.items()},
            renames=list(self._renames),
        )

    def view_at(self, checkpoint_id: int) -> TrackerView:
        if checkpoint_id in self._views:
            return self._views[checkpoint_id]
        # A checkpoint with no explicit persistence (should not happen) gets an
        # empty view so the checker simply has nothing to verify.
        return TrackerView(checkpoint_id=checkpoint_id)

    def views(self) -> Dict[int, TrackerView]:
        return dict(self._views)

    # ------------------------------------------------------------------ freeze/thaw

    def freeze_state(self) -> Tuple:
        """Opaque snapshot of the live tracking state (plus shared views).

        The live records (``_files``/``_dirs``/``_renames``) are serialized
        because tracking mutates them in place (pickle is several times
        cheaper than deep-copying, and freezing happens per operation of
        every profiled workload); the per-checkpoint views are shared
        because they are frozen at capture time and never touched again.
        Together with :meth:`restore_state` this lets prefix-shared
        profiling fork the tracker at an operation boundary.
        """
        blob = pickle.dumps((self._files, self._dirs, self._renames),
                            protocol=pickle.HIGHEST_PROTOCOL)
        return (blob, dict(self._views))

    def restore_state(self, state: Tuple) -> None:
        """Adopt a :meth:`freeze_state` snapshot (thawing a private copy)."""
        blob, views = state
        self._files, self._dirs, self._renames = pickle.loads(blob)
        self._views = dict(views)

    # ------------------------------------------------------------------ tracking helpers

    @staticmethod
    def _norm(path: str) -> str:
        return "/".join(part for part in path.strip("/").split("/") if part and part != ".")

    def _track_everything(self, checkpoint_id: int) -> None:
        state = self.fs.logical_state()
        seen_files: Set[int] = set()
        for path, file_state in state.items():
            if path == "":
                continue
            if file_state.ftype == "dir":
                self._track_dir_state(path, file_state, checkpoint_id)
            elif file_state.ino not in seen_files:
                seen_files.add(file_state.ino)
                self._track_file_state(path, file_state, checkpoint_id,
                                        all_paths=True, datasync=False)

    def _track_path(self, path: str, checkpoint_id: int, datasync: bool) -> None:
        path = self._norm(path)
        state = self.fs.lookup_state(path)
        if state is None:
            return
        if state.ftype == "dir":
            self._track_dir_state(path, state, checkpoint_id)
        else:
            self._track_file_state(path, state, checkpoint_id, all_paths=not datasync,
                                    datasync=datasync)

    def _track_file_state(self, path: str, state: FileState, checkpoint_id: int,
                          *, all_paths: bool, datasync: bool) -> None:
        record = self._files.get(state.ino)
        if record is None:
            record = TrackedFile(ino=state.ino, ftype=state.ftype)
            self._files[state.ino] = record
        record.ftype = state.ftype
        if all_paths:
            # An fsync persists the inode together with all of its current
            # names; names it *used* to have (e.g. before a rename) are no
            # longer expected to survive, so the set is replaced, not merged.
            record.persisted_paths = set(self.fs.paths_of_inode(path))
        record.persisted_paths.add(path)
        if state.ftype == "file":
            record.expected_data = self.fs.read(path)
        record.size = state.size
        record.nlink = state.nlink
        record.allocated_blocks = state.allocated_blocks
        record.xattrs = state.xattrs
        record.symlink_target = state.symlink_target
        record.last_checkpoint = checkpoint_id
        record.datasync_only = datasync and record.last_checkpoint == checkpoint_id and not record.persisted_paths

    def _track_msync_range(self, path: str, offset: int, length: int, checkpoint_id: int) -> None:
        """Ranged msync: only the synced byte range of the data is guaranteed."""
        path = self._norm(path)
        state = self.fs.lookup_state(path)
        if state is None or state.ftype != "file":
            return
        record = self._files.get(state.ino)
        current = self.fs.read(path)
        if record is None:
            record = TrackedFile(ino=state.ino, ftype=state.ftype)
            # Before the first persistence of this file, only the synced range
            # is expected to survive; the rest is whatever was last persisted
            # (nothing), so seed the expectation from the current content for
            # the synced range and zeros elsewhere.
            record.expected_data = bytes(len(current))
            self._files[state.ino] = record
        expected = bytearray(record.expected_data)
        if len(expected) < len(current):
            expected.extend(bytes(len(current) - len(expected)))
        end = min(offset + length, len(current))
        if end > offset:
            expected[offset:end] = current[offset:end]
        record.expected_data = bytes(expected[: len(current)])
        record.persisted_paths.add(path)
        record.size = state.size
        record.nlink = state.nlink
        record.allocated_blocks = state.allocated_blocks
        record.xattrs = state.xattrs
        record.last_checkpoint = checkpoint_id

    def _track_dir_state(self, path: str, state: FileState, checkpoint_id: int) -> None:
        record = self._dirs.get(state.ino)
        if record is None:
            record = TrackedDir(ino=state.ino, path=path)
            self._dirs[state.ino] = record
        record.path = path
        children: Dict[str, int] = {}
        for child in state.children:
            child_path = f"{path}/{child}" if path else child
            child_state = self.fs.lookup_state(child_path)
            children[child] = child_state.ino if child_state is not None else 0
        record.children = children
        record.xattrs = state.xattrs
        record.last_checkpoint = checkpoint_id
        # Persisting a directory also persists its symlink entries' targets
        # (the dentry effectively *is* the target), so track those too.
        for child in state.children:
            child_path = f"{path}/{child}" if path else child
            child_state = self.fs.lookup_state(child_path)
            if child_state is not None and child_state.ftype == "symlink":
                self._track_file_state(child_path, child_state, checkpoint_id,
                                        all_paths=False, datasync=False)
