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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..fs.paths import normalize_path
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

    def clone(self) -> "TrackedFile":
        """An independent copy: ``persisted_paths`` is the one mutable field."""
        twin = object.__new__(TrackedFile)
        twin.__dict__.update(self.__dict__)
        twin.persisted_paths = set(self.persisted_paths)
        return twin

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

    def clone(self) -> "TrackedDir":
        """An independent copy: ``children`` is the one mutable field."""
        twin = object.__new__(TrackedDir)
        twin.__dict__.update(self.__dict__)
        twin.children = dict(self.children)
        return twin

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
                self._renames.append(RenameRecord(src=normalize_path(src),
                                                  dst=normalize_path(dst),
                                                  ino=ino, op_index=index))

    def on_persistence(self, op: Operation, index: int, checkpoint_id: int,
                       states: Optional[Dict[str, FileState]] = None) -> None:
        """Update the persisted set right after a persistence op completed.

        ``states`` is the ``fs.logical_state()`` the caller captured at this
        point (the recorder shares one walk with the oracle); everything
        tracked is read from it, so the tree is not walked again.
        """
        if states is None:
            states = self.fs.logical_state()
        if op.op == OpKind.SYNC:
            self._track_everything(states, checkpoint_id)
        elif op.op == OpKind.FSYNC:
            self._track_path(states, str(op.args[0]), checkpoint_id, all_paths=True)
        elif op.op == OpKind.FDATASYNC:
            self._track_path(states, str(op.args[0]), checkpoint_id, all_paths=False)
        elif op.op == OpKind.MSYNC:
            path = str(op.args[0])
            if len(op.args) >= 3:
                self._track_msync_range(states, path, int(op.args[1]), int(op.args[2]),
                                        checkpoint_id)
            else:
                self._track_path(states, path, checkpoint_id, all_paths=False)
        # Tracking mutates the live records in place, so the view takes its
        # own copy of each record.
        self._views[checkpoint_id] = TrackerView(checkpoint_id, *self._clone_records())

    def _clone_records(self) -> Tuple[Dict[int, TrackedFile], Dict[int, TrackedDir],
                                      List[RenameRecord]]:
        """Private copies of the live records (rename records are never mutated)."""
        return ({ino: record.clone() for ino, record in self._files.items()},
                {ino: record.clone() for ino, record in self._dirs.items()},
                list(self._renames))

    def view_at(self, checkpoint_id: int) -> TrackerView:
        if checkpoint_id in self._views:
            return self._views[checkpoint_id]
        # A checkpoint with no explicit persistence (should not happen) gets an
        # empty view so the checker simply has nothing to verify.
        return TrackerView(checkpoint_id=checkpoint_id)

    def views(self) -> Dict[int, TrackerView]:
        return dict(self._views)

    # ------------------------------------------------------------------ fork

    def fork(self, fs) -> "PersistenceTracker":
        """An independent tracker observing ``fs`` from this one's state on.

        The live records are cloned because tracking mutates them in place;
        the per-checkpoint views are shared because they are frozen at
        capture time and never touched again.  This is what lets
        prefix-shared profiling branch the tracker at an operation boundary
        (a spine node holds a detached fork, ``fs=None``).
        """
        twin = PersistenceTracker(fs)
        twin._files, twin._dirs, twin._renames = self._clone_records()
        twin._views = dict(self._views)
        return twin

    # ------------------------------------------------------------------ tracking helpers

    def _track_everything(self, states: Dict[str, FileState], checkpoint_id: int) -> None:
        seen_files: Set[int] = set()
        for path, state in states.items():
            if path == "":
                continue
            if state.ftype == "dir":
                self._track_dir_state(states, path, state, checkpoint_id)
            elif state.ino not in seen_files:
                seen_files.add(state.ino)
                self._track_file_state(states, path, state, checkpoint_id, all_paths=True)

    def _track_path(self, states: Dict[str, FileState], path: str, checkpoint_id: int,
                    *, all_paths: bool) -> None:
        path = normalize_path(path)
        state = states.get(path)
        if state is None:
            return
        if state.ftype == "dir":
            self._track_dir_state(states, path, state, checkpoint_id)
        else:
            self._track_file_state(states, path, state, checkpoint_id, all_paths=all_paths)

    def _track_file_state(self, states: Dict[str, FileState], path: str, state: FileState,
                          checkpoint_id: int, *, all_paths: bool) -> None:
        record = self._files.get(state.ino)
        if record is None:
            record = TrackedFile(ino=state.ino, ftype=state.ftype)
            self._files[state.ino] = record
        record.ftype = state.ftype
        if all_paths:
            # An fsync persists the inode together with all of its current
            # names; names it *used* to have (e.g. before a rename) are no
            # longer expected to survive, so the set is replaced, not merged.
            record.persisted_paths = {
                bound for bound, other in states.items() if other.ino == state.ino
            }
        record.persisted_paths.add(path)
        if state.ftype == "file":
            record.expected_data = self.fs.read(path)
        record.size = state.size
        record.nlink = state.nlink
        record.allocated_blocks = state.allocated_blocks
        record.xattrs = state.xattrs
        record.symlink_target = state.symlink_target
        record.last_checkpoint = checkpoint_id

    def _track_msync_range(self, states: Dict[str, FileState], path: str, offset: int,
                           length: int, checkpoint_id: int) -> None:
        """Ranged msync: only the synced byte range of the data is guaranteed."""
        path = normalize_path(path)
        state = states.get(path)
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

    def _track_dir_state(self, states: Dict[str, FileState], path: str, state: FileState,
                         checkpoint_id: int) -> None:
        record = self._dirs.get(state.ino)
        if record is None:
            record = TrackedDir(ino=state.ino, path=path)
            self._dirs[state.ino] = record
        record.path = path
        bound = {child: states.get(f"{path}/{child}" if path else child)
                 for child in state.children}
        # An entry whose inode is missing reads as nonexistent: bound to 0.
        record.children = {child: child_state.ino if child_state is not None else 0
                           for child, child_state in bound.items()}
        record.xattrs = state.xattrs
        record.last_checkpoint = checkpoint_id
        # Persisting a directory also persists its symlink entries' targets
        # (the dentry effectively *is* the target), so track those too.
        for child_state in bound.values():
            if child_state is not None and child_state.ftype == "symlink":
                self._track_file_state(states, child_state.path, child_state, checkpoint_id,
                                       all_paths=False)
