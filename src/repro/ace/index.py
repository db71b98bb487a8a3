"""Exact index of the bounded workload space: count it, and unrank into it.

:meth:`AceSynthesizer.generate` is a depth-first walk — skeleton, then every
core-parameter choice (first operation outermost), then every
persistence-point choice (first operation outermost) — that drops the
symmetric half of phase 2 and the workloads phase 4 finds invalid.  This
module sizes the sub-space under each of those choices without walking it,
so the workload at a given position of that walk can be built directly.

Whether a choice survives depends on very little of what came before: phase
4 rejects an operation by looking only at which directories and files exist
(the first two sets of a phase-4 state), and phase 2 calls an argument
order symmetric by looking only at which paths earlier core operations
named.  The number of valid completions of a skeleton suffix is therefore a
function of ``(dirs, files, used paths, suffix)`` and is memoised on exactly
that; thousands of operation prefixes collapse onto a few hundred keys.

Every rule is the generator's own: parameter and persistence choices come
from phases 2 and 3, the symmetry test is phase 2's, namespace transitions
are phase 4's ``DependencySteps`` table projected onto (dirs, files), and the
workload is built by ``resolve_dependencies`` folding the unranked operation
list through that same table.  Operations and states are that table's small
numbers (:class:`OperationTable`), so every memo here is keyed on ints.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..workload.operations import Operation
from ..workload.workload import Workload
from .bounds import Bounds
from .fileset import FileSet
from .phase1 import Skeleton, generate_skeletons
from .phase2 import TWO_PATH_OPS, is_symmetric_half, op_paths, parameter_choices
from .phase3 import persistence_choices
from .phase4 import EMPTY, DependencySteps, resolve_dependencies

_EMPTY: FrozenSet[str] = frozenset()


class OperationTable:
    """Phase 2's and phase 3's choices, numbered by one phase-4 table.

    Core choices are built once per operation name and persistence choices
    once per (operation, final), and each is a number of ``steps`` — the
    operation itself is ``steps.ops[number]`` — so a walk keys its memos on
    small ints, never on an ``Operation``.
    """

    def __init__(self, bounds: Bounds, fileset: FileSet):
        self.bounds = bounds
        self.fileset = fileset
        self.steps = DependencySteps()
        self._core: Dict[str, List[int]] = {}
        self._points: Dict[Tuple[int, bool], List[Optional[int]]] = {}

    def core(self, op_name: str) -> List[int]:
        """Phase 2's parameterizations of ``op_name``, in its order."""
        choices = self._core.get(op_name)
        if choices is None:
            choices = self._core[op_name] = [
                self.steps.number(op)
                for op in parameter_choices(op_name, self.fileset, self.bounds)]
        return choices

    def points(self, op: int, final: bool) -> List[Optional[int]]:
        """Phase 3's persistence choices after operation ``op`` (None: no point)."""
        points = self._points.get((op, final))
        if points is None:
            points = self._points[op, final] = [
                None if point is None else self.steps.number(point)
                for point in persistence_choices(self.steps.ops[op], self.bounds,
                                                 final=final)]
        return points


class SpaceIndex:
    """Counts and unranks the workloads of one :class:`Bounds`, lazily."""

    def __init__(self, bounds: Bounds, fileset: FileSet):
        self.bounds = bounds
        self.fileset = fileset
        self.operations = OperationTable(bounds, fileset)
        self.steps = self.operations.steps
        #: state number -> the number of its namespace (see :meth:`_step`)
        self._namespaces: Dict[int, int] = {EMPTY: EMPTY}
        #: (namespace, used paths, skeleton suffix) -> (size per choice, total)
        self._tables: Dict[Tuple[int, FrozenSet[str], Skeleton],
                           Tuple[Tuple[int, ...], int]] = {}
        #: (open namespaces, used paths, skeleton suffix) -> running sizes per choice
        self._running: Dict[Tuple[Tuple[int, ...], FrozenSet[str], Skeleton], List[int]] = {}
        #: (open namespaces, core operation) -> the namespaces open after it
        self._opened: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}
        #: (namespace, core suffix) -> running placements per persistence choice
        self._placed: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        #: required_ops -> (skeletons, running totals of their sub-space sizes)
        self._skeletons: Dict[Tuple[str, ...], Tuple[List[Skeleton], List[int]]] = {}

    # ------------------------------------------------------------------ the generator's rules

    def _step(self, namespace: int, op: Optional[int]) -> Optional[int]:
        """The namespace after operation ``op``, or None where phase 4 discards
        the workload.

        A namespace is a phase-4 state whose data and xattr sets are empty:
        the table projected onto (dirs, files).  The projection is exact:
        validity and the dirs / files transitions never read which files
        hold data or xattrs, so those sets may as well be empty.
        """
        if op is None:
            return namespace
        step = self.steps.step(namespace, op)
        if step is None:
            return None
        namespace = self._namespaces.get(step[0])
        if namespace is None:
            dirs, files = self.steps.states[step[0]][:2]
            namespace = self._namespaces[step[0]] = self.steps.state_number(
                (dirs, files, _EMPTY, _EMPTY))
        return namespace

    def _used_after(self, used: FrozenSet[str], op: int, rest: Skeleton) -> FrozenSet[str]:
        """Paths phase 2's symmetry test will see; dropped once nothing reads them."""
        if TWO_PATH_OPS.isdisjoint(rest):
            return _EMPTY
        return used | op_paths(self.steps.ops[op])

    # ------------------------------------------------------------------ counting

    def _table(self, namespace: int, used: FrozenSet[str],
               suffix: Skeleton) -> Tuple[Tuple[int, ...], int]:
        """Valid completions of ``suffix`` from this namespace and used-path set.

        Returns them per core-parameter choice of ``suffix[0]`` (0 for a
        symmetric half or an operation phase 4 rejects here), and in total.
        """
        key = (namespace, used, suffix)
        table = self._tables.get(key)
        if table is not None:
            return table
        rest = suffix[1:]
        sizes: List[int] = []
        for op in self.operations.core(suffix[0]):
            after = (None if is_symmetric_half(self.steps.ops[op], used)
                     else self._step(namespace, op))
            if after is None:
                sizes.append(0)
                continue
            points = self.operations.points(op, not rest)
            if not rest:
                # A persistence point never invalidates a workload.
                sizes.append(len(points))
                continue
            used_after = self._used_after(used, op, rest)
            sizes.append(sum(self._table(self._step(after, point), used_after, rest)[1]
                             for point in points))
        table = self._tables[key] = (tuple(sizes), sum(sizes))
        return table

    def _skeleton_totals(self, required_ops: Optional[Sequence[str]]
                         ) -> Tuple[List[Skeleton], List[int]]:
        key = tuple(required_ops or ())
        cached = self._skeletons.get(key)
        if cached is None:
            skeletons = list(generate_skeletons(self.bounds, required_ops))
            totals = list(itertools.accumulate(
                self._table(EMPTY, _EMPTY, skeleton)[1] for skeleton in skeletons))
            cached = self._skeletons[key] = (skeletons, totals)
        return cached

    def count(self, required_ops: Optional[Sequence[str]] = None) -> int:
        """Exact size of the space ``generate(required_ops)`` walks."""
        totals = self._skeleton_totals(required_ops)[1]
        return totals[-1] if totals else 0

    # ------------------------------------------------------------------ unranking

    def ops_at(self, position: int,
               required_ops: Optional[Sequence[str]] = None) -> List[Operation]:
        """Core operations and persistence points of the workload at ``position``."""
        if not 0 <= position < self.count(required_ops):
            raise IndexError(f"workload position {position} outside the space")
        skeletons, totals = self._skeleton_totals(required_ops)
        which = bisect_right(totals, position)
        skeleton = skeletons[which]
        rank = position - (totals[which - 1] if which else 0)

        # Core parameters are the outer loops, so while they are being chosen
        # every persistence choice of the operations already fixed is still
        # open: carry one namespace per open combination, and size a choice
        # by summing over them.
        core: List[int] = []
        open_namespaces: Tuple[int, ...] = (EMPTY,)
        used = _EMPTY
        for depth in range(len(skeleton)):
            suffix, rest = skeleton[depth:], skeleton[depth + 1:]
            running = self._running_sizes(open_namespaces, used, suffix)
            choice = bisect_right(running, rank)
            rank -= running[choice - 1] if choice else 0
            op = self.operations.core(suffix[0])[choice]
            core.append(op)
            if rest:
                open_namespaces = self._open_after(open_namespaces, op)
                used = self._used_after(used, op, rest)

        # ``rank`` now counts valid persistence combinations of this core
        # sequence, first operation outermost.
        ops: List[Operation] = []
        namespace = EMPTY
        for depth, op in enumerate(core):
            running = self._placements(namespace, tuple(core[depth:]))
            choice = bisect_right(running, rank)
            rank -= running[choice - 1] if choice else 0
            point = self.operations.points(op, depth == len(core) - 1)[choice]
            ops.append(self.steps.ops[op])
            if point is not None:
                ops.append(self.steps.ops[point])
            namespace = self._step(self._step(namespace, op), point)
        return ops

    def _running_sizes(self, open_namespaces: Tuple[int, ...], used: FrozenSet[str],
                       suffix: Skeleton) -> List[int]:
        """Running totals, over the core choices of ``suffix[0]``, of the
        completions from every open namespace."""
        key = (open_namespaces, used, suffix)
        running = self._running.get(key)
        if running is None:
            running = self._running[key] = list(itertools.accumulate(map(sum, zip(
                *(self._table(namespace, used, suffix)[0] for namespace in open_namespaces)))))
        return running

    def _open_after(self, open_namespaces: Tuple[int, ...], op: int) -> Tuple[int, ...]:
        """The namespaces open once core operation ``op`` and its persistence
        choice follow each open one."""
        key = (open_namespaces, op)
        opened = self._opened.get(key)
        if opened is None:
            opened = self._opened[key] = tuple(
                self._step(after, point)
                for after in (self._step(namespace, op) for namespace in open_namespaces)
                if after is not None
                for point in self.operations.points(op, False))
        return opened

    def _placements(self, namespace: int, core: Tuple[int, ...]) -> List[int]:
        """Running totals, over the persistence choices after ``core[0]``, of
        the valid persistence combinations of an already-chosen core
        sequence (empty where phase 4 rejects ``core[0]``)."""
        key = (namespace, core)
        running = self._placed.get(key)
        if running is not None:
            return running
        after = self._step(namespace, core[0])
        rest = core[1:]
        if after is None:
            running = []
        elif not rest:
            running = list(range(1, len(self.operations.points(core[0], True)) + 1))
        else:
            running = list(itertools.accumulate(
                (self._placements(self._step(after, point), rest) or [0])[-1]
                for point in self.operations.points(core[0], False)))
        self._placed[key] = running
        return running

    def workload_at(self, position: int,
                    required_ops: Optional[Sequence[str]] = None) -> Workload:
        """The workload ``generate(required_ops)`` yields at ``position`` (0-based)."""
        label = self.bounds.label or f"seq-{self.bounds.seq_length}"
        return Workload(
            ops=resolve_dependencies(self.ops_at(position, required_ops), self.steps),
            name=f"{label}-{position + 1:07d}",
            seq_length=self.bounds.seq_length,
            source=f"ace:{label}",
        )
