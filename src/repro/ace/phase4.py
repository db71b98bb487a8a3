"""ACE phase 4: satisfy dependencies.

The workloads produced by phases 1–3 assume their argument files and
directories exist (and, for overwrites, contain data).  Phase 4 prepends the
setup operations needed to make the workload executable on an empty file
system — exactly like Figure 4, where ``mkdir A``, ``mkdir B`` and
``creat A/foo`` are added ahead of the rename/link pair.

Workloads that are statically invalid even with dependencies (for example a
``link`` whose destination name necessarily already exists) are discarded.

What an operation needs depends only on the state the operations before it
left — which directories and files exist, which files hold data or an xattr
— so phase 4 is a transition table over those states
(:class:`DependencySteps`), and :func:`resolve_dependencies` is a fold over
it.  Sibling workloads share their transitions, so a table kept across them
resolves each one once.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..workload.operations import Operation, OpKind
from .phase2 import BASE_FILE_SIZE

#: A phase-4 state: (directories, files, files with data, files with an xattr).
State = Tuple[FrozenSet[str], FrozenSet[str], FrozenSet[str], FrozenSet[str]]

#: One phase-4 transition: the number of the state after an operation and the
#: dependency operations it prepends, or None where phase 4 discards the workload.
Step = Optional[Tuple[int, Tuple[Operation, ...]]]

#: An empty file system: only the root directory exists.
EMPTY_STATE: State = (frozenset({""}), frozenset(), frozenset(), frozenset())
#: The number of :data:`EMPTY_STATE` in every :class:`DependencySteps` table.
EMPTY = 0

#: Operations that require their (first) path argument to exist as a file.
_NEEDS_FILE = {
    OpKind.WRITE, OpKind.DWRITE, OpKind.MWRITE, OpKind.FALLOC, OpKind.FZERO,
    OpKind.FPUNCH, OpKind.TRUNCATE, OpKind.SETXATTR, OpKind.REMOVEXATTR,
    OpKind.UNLINK,
}

#: Operations that require base data in the file (overwrites, mmap writes, xattr removal).
_NEEDS_DATA = {OpKind.MWRITE, OpKind.FPUNCH}

#: Final path components the ACE file set uses for directories.
_DIRECTORY_NAMES = {"A", "B", "C", "D", "new"}


def _looks_like_directory(path: str) -> bool:
    """True if a path from the ACE argument set names a directory."""
    return path.rsplit("/", 1)[-1] in _DIRECTORY_NAMES


@functools.lru_cache(maxsize=4096)
def _dependency(kind: str, args: Tuple) -> Operation:
    """A set-up operation phase 4 prepends: equal ones are one shared object.

    ACE's argument set is small, so the workloads of a campaign draw their
    tens of thousands of dependency operations from a few hundred.
    """
    return Operation(kind, args, dependency=True)


class DependencyResolver:
    """Tracks namespace state while dependencies are computed."""

    def __init__(self, state: State = EMPTY_STATE):
        dirs, files, files_with_data, files_with_xattr = state
        self.dirs: Set[str] = set(dirs)
        self.files: Set[str] = set(files)
        self.files_with_data: Set[str] = set(files_with_data)
        self.files_with_xattr: Set[str] = set(files_with_xattr)
        self.dependencies: List[Operation] = []

    def state(self) -> State:
        return (frozenset(self.dirs), frozenset(self.files),
                frozenset(self.files_with_data), frozenset(self.files_with_xattr))

    # -- helpers -----------------------------------------------------------------

    def _ensure_parents(self, path: str) -> None:
        parts = path.split("/")[:-1]
        prefix = ""
        for part in parts:
            prefix = f"{prefix}/{part}" if prefix else part
            if prefix not in self.dirs:
                self.dependencies.append(_dependency(OpKind.MKDIR, (prefix,)))
                self.dirs.add(prefix)

    def _ensure_file(self, path: str) -> None:
        self._ensure_parents(path)
        if path not in self.files and path not in self.dirs:
            self.dependencies.append(_dependency(OpKind.CREAT, (path,)))
            self.files.add(path)

    def _ensure_dir(self, path: str) -> None:
        self._ensure_parents(path)
        if path not in self.dirs:
            self.dependencies.append(_dependency(OpKind.MKDIR, (path,)))
            self.dirs.add(path)

    def _ensure_data(self, path: str) -> None:
        if path not in self.files_with_data:
            self.dependencies.append(_dependency(OpKind.WRITE, (path, 0, BASE_FILE_SIZE)))
            self.files_with_data.add(path)

    def _ensure_xattr(self, path: str, name: str) -> None:
        if path not in self.files_with_xattr:
            self.dependencies.append(_dependency(OpKind.SETXATTR, (path, name, "depvalue")))
            self.files_with_xattr.add(path)

    # -- per-operation handling -----------------------------------------------------

    def process(self, op: Operation) -> bool:
        """Update state for ``op``; return False if the workload is invalid."""
        name = op.op
        args = op.args

        if name == OpKind.CREAT:
            path = str(args[0])
            self._ensure_parents(path)
            if path in self.dirs:
                return False
            self.files.add(path)
        elif name == OpKind.MKDIR:
            path = str(args[0])
            self._ensure_parents(path)
            if path in self.dirs or path in self.files:
                return False
            self.dirs.add(path)
        elif name == OpKind.RMDIR:
            path = str(args[0])
            self._ensure_dir(path)
            self.dirs.discard(path)
        elif name == OpKind.REMOVE:
            path = str(args[0])
            if path in self.dirs:
                self.dirs.discard(path)
            else:
                self._ensure_file(path)
                self.files.discard(path)
        elif name in _NEEDS_FILE:
            path = str(args[0])
            self._ensure_file(path)
            if name in _NEEDS_DATA or (
                name in (OpKind.WRITE, OpKind.DWRITE)
                and len(args) >= 2
                and int(args[1]) < BASE_FILE_SIZE
                and int(args[1]) > 0
            ):
                self._ensure_data(path)
            if name == OpKind.REMOVEXATTR:
                self._ensure_xattr(path, str(args[1]) if len(args) > 1 else "user.attr1")
            if name == OpKind.UNLINK:
                self.files.discard(path)
            elif name in (OpKind.WRITE, OpKind.DWRITE, OpKind.MWRITE, OpKind.FZERO):
                self.files_with_data.add(path)
        elif name in (OpKind.LINK, OpKind.SYMLINK):
            src, dst = str(args[0]), str(args[1])
            if name == OpKind.LINK:
                self._ensure_file(src)
            self._ensure_parents(dst)
            if dst in self.files or dst in self.dirs:
                return False
            self.files.add(dst)
        elif name == OpKind.RENAME:
            src, dst = str(args[0]), str(args[1])
            if src in self.dirs:
                self._ensure_parents(dst)
                if dst in self.files:
                    return False
                self.dirs.discard(src)
                self.dirs.add(dst)
            else:
                self._ensure_file(src)
                self._ensure_parents(dst)
                if dst in self.dirs:
                    return False
                self.files.discard(src)
                self.files.add(dst)
        elif name in (OpKind.FSYNC, OpKind.FDATASYNC, OpKind.MSYNC):
            path = str(args[0])
            if path not in self.dirs and path not in self.files:
                # The persistence target must exist.  Whether it is a file or
                # a directory follows the argument-set naming convention.
                if _looks_like_directory(path):
                    self._ensure_dir(path)
                else:
                    self._ensure_file(path)
        elif name in (OpKind.SYNC, OpKind.DROPCACHES):
            pass
        else:
            return False
        return True


class DependencySteps:
    """Phase 4 as a transition table: :meth:`DependencyResolver.process`
    memoised on ``(state number, operation number)``.

    Every distinct state and operation the table sees gets a small number
    (:meth:`state_number`, :meth:`number`), equal ones the same, so a step
    is keyed on two ints instead of on a state and an ``Operation`` that are
    equal but not identical.  State :data:`EMPTY` is :data:`EMPTY_STATE`.
    All of seq-2 reaches 737 states through 12 345 distinct steps, so a
    table shared by the workloads of one walk resolves each transition once.
    """

    def __init__(self):
        #: state number -> state, and back
        self.states: List[State] = []
        self._state_numbers: Dict[State, int] = {}
        #: operation number -> operation (the first one numbered), and back
        self.ops: List[Operation] = []
        self._op_numbers: Dict[Operation, int] = {}
        #: per state number: operation number -> step
        self._rows: List[Dict[int, Step]] = []
        self.state_number(EMPTY_STATE)

    def number(self, op: Operation) -> int:
        """The number of ``op`` (and of every operation equal to it)."""
        number = self._op_numbers.get(op)
        if number is None:
            number = self._op_numbers[op] = len(self.ops)
            self.ops.append(op)
        return number

    def state_number(self, state: State) -> int:
        """The number of ``state`` (and of every state equal to it)."""
        number = self._state_numbers.get(state)
        if number is None:
            number = self._state_numbers[state] = len(self.states)
            self.states.append(state)
            self._rows.append({})
        return number

    def step(self, state: int, op: int) -> Step:
        """Operation ``op`` applied to state ``state``: (state after,
        dependencies added) or None."""
        row = self._rows[state]
        try:
            return row[op]
        except KeyError:
            pass
        resolver = DependencyResolver(self.states[state])
        step = None
        if resolver.process(self.ops[op]):
            step = (self.state_number(resolver.state()), tuple(resolver.dependencies))
        row[op] = step
        return step


def resolve_dependencies(ops: Sequence[Operation],
                         steps: Optional[DependencySteps] = None) -> Optional[List[Operation]]:
    """Prepend the dependency operations for a phase-3 workload.

    Returns the full operation list, or ``None`` if the workload is invalid
    (phase 4 discards it).  ``steps`` is a table to fold through and fill;
    without one a fresh table serves this call alone.
    """
    if steps is None:
        steps = DependencySteps()
    state = EMPTY
    dependencies: List[Operation] = []
    for op in ops:
        step = steps.step(state, steps.number(op))
        if step is None:
            return None
        state, added = step
        dependencies.extend(added)
    return dependencies + list(ops)
