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
list through that same table.
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
from .phase4 import EMPTY_STATE, DependencySteps, resolve_dependencies

#: What phase-4 validity reads of a state: (directories, files).
Namespace = Tuple[FrozenSet[str], FrozenSet[str]]

_EMPTY: FrozenSet[str] = frozenset()
#: The rest of a phase-4 state a namespace stands for: no data, no xattrs.
_NO_CONTENT = (_EMPTY, _EMPTY)


class SpaceIndex:
    """Counts and unranks the workloads of one :class:`Bounds`, lazily."""

    def __init__(self, bounds: Bounds, fileset: FileSet):
        self.bounds = bounds
        self.fileset = fileset
        self.steps = DependencySteps()
        self._start: Namespace = EMPTY_STATE[:2]
        self._choices: Dict[str, List[Operation]] = {}
        self._points: Dict[Tuple[Operation, bool], List[Optional[Operation]]] = {}
        #: (namespace, used paths, skeleton suffix) -> (size per choice, total)
        self._tables: Dict[Tuple[Namespace, FrozenSet[str], Skeleton],
                           Tuple[Tuple[int, ...], int]] = {}
        #: required_ops -> (skeletons, running totals of their sub-space sizes)
        self._skeletons: Dict[Tuple[str, ...], Tuple[List[Skeleton], List[int]]] = {}

    # ------------------------------------------------------------------ the generator's rules

    def _core_choices(self, op_name: str) -> List[Operation]:
        choices = self._choices.get(op_name)
        if choices is None:
            choices = self._choices[op_name] = parameter_choices(
                op_name, self.fileset, self.bounds)
        return choices

    def _persistence(self, op: Operation, final: bool) -> List[Optional[Operation]]:
        points = self._points.get((op, final))
        if points is None:
            points = self._points[op, final] = persistence_choices(
                op, self.bounds, final=final)
        return points

    def _step(self, namespace: Namespace, op: Optional[Operation]) -> Optional[Namespace]:
        """The namespace after ``op``, or None where phase 4 discards the workload.

        The phase-4 table projected onto (dirs, files).  The projection is
        exact: validity and the dirs / files transitions never read which
        files hold data or xattrs, so those sets may as well be empty.
        """
        if op is None:
            return namespace
        step = self.steps.step(namespace + _NO_CONTENT, op)
        return None if step is None else step[0][:2]

    @staticmethod
    def _used_after(used: FrozenSet[str], op: Operation, rest: Skeleton) -> FrozenSet[str]:
        """Paths phase 2's symmetry test will see; dropped once nothing reads them."""
        if TWO_PATH_OPS.isdisjoint(rest):
            return _EMPTY
        return used | op_paths(op)

    # ------------------------------------------------------------------ counting

    def _table(self, namespace: Namespace, used: FrozenSet[str],
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
        for op in self._core_choices(suffix[0]):
            after = None if is_symmetric_half(op, used) else self._step(namespace, op)
            if after is None:
                sizes.append(0)
                continue
            points = self._persistence(op, not rest)
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
                self._table(self._start, _EMPTY, skeleton)[1] for skeleton in skeletons))
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
        core: List[Operation] = []
        open_namespaces: List[Namespace] = [self._start]
        used = _EMPTY
        for depth in range(len(skeleton)):
            suffix, rest = skeleton[depth:], skeleton[depth + 1:]
            sizes = map(sum, zip(*(self._table(namespace, used, suffix)[0]
                                   for namespace in open_namespaces)))
            for size, op in zip(sizes, self._core_choices(suffix[0])):
                if rank < size:
                    break
                rank -= size
            core.append(op)
            if rest:
                open_namespaces = [
                    self._step(after, point)
                    for after in (self._step(namespace, op) for namespace in open_namespaces)
                    if after is not None
                    for point in self._persistence(op, False)
                ]
                used = self._used_after(used, op, rest)

        # ``rank`` now counts valid persistence combinations of this core
        # sequence, first operation outermost.
        ops: List[Operation] = []
        namespace = self._start
        for depth, op in enumerate(core):
            rest = core[depth + 1:]
            namespace = self._step(namespace, op)
            for point in self._persistence(op, not rest):
                after = self._step(namespace, point)
                size = self._fixed_count(after, rest)
                if rank < size:
                    break
                rank -= size
            ops.append(op)
            if point is not None:
                ops.append(point)
            namespace = after
        return ops

    def _fixed_count(self, namespace: Namespace, core: Sequence[Operation]) -> int:
        """Valid persistence combinations of an already-chosen core sequence."""
        if not core:
            return 1
        after = self._step(namespace, core[0])
        if after is None:
            return 0
        rest = core[1:]
        points = self._persistence(core[0], not rest)
        if not rest:
            return len(points)
        return sum(self._fixed_count(self._step(after, point), rest) for point in points)

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

