"""The ACE workload synthesizer.

Glues the four generation phases together and exposes the operations a
campaign needs: exhaustive generation, counting, and deterministic sampling
of the bounded workload space (paper §5.2, Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..workload.operations import Operation
from ..workload.workload import Workload
from .bounds import Bounds
from .fileset import FileSet, build_fileset
from .index import OperationTable, SpaceIndex
from .phase1 import Skeleton, count_skeletons, generate_skeletons
from .phase2 import count_parameterizations, is_symmetric_half, op_paths, parameterize
from .phase3 import count_persistence_variants
from .phase4 import EMPTY

#: the widest stride a sample derives from the space estimate (every pinned
#: sample was taken with it)
MAX_SAMPLE_STRIDE = 2000


@dataclass
class GenerationStats:
    """How many workloads each phase produced (the Figure-4 funnel)."""

    skeletons: int = 0
    parameterized: int = 0
    with_persistence: int = 0
    final: int = 0
    discarded_invalid: int = 0

    def describe(self) -> str:
        return (
            f"phase1 skeletons={self.skeletons}, phase2 parameterized={self.parameterized}, "
            f"phase3 with persistence points={self.with_persistence}, "
            f"phase4 final={self.final} (discarded {self.discarded_invalid} invalid)"
        )


class AceSynthesizer:
    """Exhaustively generates workloads within the given bounds."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        self.fileset: FileSet = build_fileset(bounds)
        self.stats = GenerationStats()
        self._index: Optional[SpaceIndex] = None

    @property
    def index(self) -> SpaceIndex:
        """The exact space index, built (and its memo filled) on first use."""
        if self._index is None:
            self._index = SpaceIndex(self.bounds, self.fileset)
        return self._index

    # ------------------------------------------------------------------ generation

    def generate(self, required_ops: Optional[Sequence[str]] = None,
                 limit: Optional[int] = None) -> Iterator[Workload]:
        """Yield every workload in the bounded space (optionally capped).

        Phases 2-4 run as one depth-first walk over numbered operations
        (:class:`_Walk`): a core prefix and its persistence points are
        resolved once, through a phase-4 transition table shared by the whole
        walk, for all their completions, and each last operation's
        completions from a state are resolved once for every prefix that
        reaches that state.
        """
        stats = GenerationStats()
        self.stats = stats
        if limit is not None and limit <= 0:
            return
        label = self.bounds.label or f"seq-{self.bounds.seq_length}"
        seq_length, source = self.bounds.seq_length, f"ace:{label}"
        walk = _Walk(OperationTable(self.bounds, self.fileset))
        completions = walk.completions

        def skip(candidates: int) -> None:
            # Candidates phase 4 rejected whole still count as phase-3 ones.
            stats.with_persistence += candidates
            stats.discarded_invalid += candidates

        produced = 0
        for skeleton in generate_skeletons(self.bounds, required_ops):
            stats.skeletons += 1
            for last, prefixes, trailing in walk.core_sequences(skeleton):
                stats.parameterized += 1
                width = walk.width(last)
                for rejected, state, deps, ops in prefixes:
                    if rejected:
                        skip(rejected * width)
                    for completion in completions.get((state, last)) or walk.complete(state, last):
                        stats.with_persistence += 1
                        if completion is None:
                            stats.discarded_invalid += 1
                            continue
                        produced += 1
                        stats.final += 1
                        yield Workload(
                            ops=[*deps, *completion[0], *ops, *completion[1]],
                            name=f"{label}-{produced:07d}",
                            seq_length=seq_length,
                            source=source,
                        )
                        if limit is not None and produced >= limit:
                            return
                if trailing:
                    skip(trailing * width)

    def workload_at(self, position: int,
                    required_ops: Optional[Sequence[str]] = None) -> Workload:
        """The workload :meth:`generate` yields at ``position`` (0-based), built directly.

        Equal to ``list(generate(required_ops))[position]`` — same operations,
        same name — without enumerating the workloads before it.  Raises
        :class:`IndexError` outside ``range(count(required_ops))``.
        """
        return self.index.workload_at(position, required_ops)

    def _sample_positions(self, count: int, stride: Optional[int] = None,
                          required_ops: Optional[Sequence[str]] = None) -> range:
        """Positions (in :meth:`generate`'s order) a sample of ``count`` takes."""
        if count <= 0:
            return range(0)
        if stride is None:
            estimated = max(self.estimate_count(required_ops), 1)
            stride = min(max(estimated // count, 1), MAX_SAMPLE_STRIDE)
        return range(0, self.count(required_ops), stride)[:count]

    def sample_stream(self, count: int, stride: Optional[int] = None,
                      required_ops: Optional[Sequence[str]] = None) -> Iterator[Workload]:
        """Lazily yield ``count`` workloads deterministically spread over the space.

        Sampling takes every ``stride``-th workload of :meth:`generate`'s
        order, unranked directly (:meth:`workload_at`), so the cost follows
        the sample, not the space.  When no stride is given one is derived
        from :meth:`estimate_count`, capped at :data:`MAX_SAMPLE_STRIDE`,
        which confines the sample of a multi-million-workload seq-3 space to
        its first ``count * MAX_SAMPLE_STRIDE`` positions.
        A space with fewer than ``count`` stride positions yields those it
        has.  ``stats.final`` counts the workloads materialised.
        """
        stats = GenerationStats()
        self.stats = stats
        for position in self._sample_positions(count, stride, required_ops):
            workload = self.workload_at(position, required_ops)
            stats.final += 1
            yield workload

    def sample(self, count: int, stride: Optional[int] = None,
               required_ops: Optional[Sequence[str]] = None) -> List[Workload]:
        """Materialized :meth:`sample_stream` (kept for convenience)."""
        return list(self.sample_stream(count, stride=stride, required_ops=required_ops))

    def stream(self, limit: Optional[int] = None, sample: bool = False,
               required_ops: Optional[Sequence[str]] = None) -> Iterator[Workload]:
        """The campaign-facing workload supply, always lazy.

        This is what the execution engine consumes: an iterator over the
        bounded space — exhaustive, prefix-capped (``limit``) or spread over
        the space (``limit`` + ``sample``) — that is pulled chunk by chunk,
        never materialized.

        The stream is *prefix ordered*: generation is a depth-first walk of
        (skeleton, parameterization, persistence placement), so workloads
        sharing an operation prefix — ACE sibling families — come out
        consecutively.  The prefix-shared recorder and the engine's
        prefix-affine chunking both rely on exactly this adjacency.
        """
        if limit is not None and sample:
            return self.sample_stream(limit, required_ops=required_ops)
        return self.generate(required_ops=required_ops, limit=limit)

    def sibling_groups(self, limit: Optional[int] = None,
                       required_ops: Optional[Sequence[str]] = None
                       ) -> Iterator[List[Workload]]:
        """Lazily group the generated stream into ACE sibling families.

        A family is a maximal run of consecutive workloads with equal
        :meth:`Workload.family_key` — identical core and dependency
        operations, differing only in persistence-point placement.  These are
        the workloads whose shared prefixes the prefix-shared recorder
        records once.  Grouping is a streaming pass over :meth:`stream`
        (depth-first order makes families consecutive), so only one family
        is materialized at a time.
        """
        return group_siblings(self.stream(limit=limit, required_ops=required_ops))

    # ------------------------------------------------------------------ counting

    def count(self, required_ops: Optional[Sequence[str]] = None) -> int:
        """Exact number of final workloads (from the space index, in milliseconds)."""
        return self.index.count(required_ops)

    def stream_size(self, limit: Optional[int] = None, sample: bool = False,
                    required_ops: Optional[Sequence[str]] = None) -> int:
        """How many workloads :meth:`stream` yields for the same (positive) ``limit``."""
        if limit is not None and sample:
            return len(self._sample_positions(limit, required_ops=required_ops))
        total = self.count(required_ops)
        return total if limit is None else min(limit, total)

    def estimate_count(self, required_ops: Optional[Sequence[str]] = None) -> int:
        """The stride basis of :meth:`sample_stream`: a lower-biased size estimate.

        Per skeleton, the plain product of per-position parameter choices
        (no symmetry elimination, no phase-4 drops) times the persistence
        variants of one *representative* parameterization.  The
        representative is the first one — a top-level file, which has the
        fewest fsync targets — so the estimate usually falls short of the
        exact :meth:`count` (seq-3-data: 10 668 672 vs 21 249 536).  It is
        kept exactly as it is because the sample stride, and with it every
        pinned sample, derives from it; use :meth:`count` for the size.
        """
        return self._analytic_counts(required_ops)[1]

    def _analytic_counts(self, required_ops: Optional[Sequence[str]] = None) -> Tuple[int, int]:
        """Per skeleton, the plain product of per-position parameter choices,
        and that times the persistence variants of its representative
        parameterization: both summed over the skeletons."""
        parameterized = with_persistence = 0
        for skeleton in generate_skeletons(self.bounds, required_ops):
            parameter_count = count_parameterizations(skeleton, self.fileset, self.bounds)
            parameterized += parameter_count
            # Persistence choices depend only on the operation kinds, so use a
            # representative parameterization to count them.
            representative = next(parameterize(skeleton, self.fileset, self.bounds), None)
            if representative is not None:
                with_persistence += parameter_count * count_persistence_variants(
                    representative, self.bounds)
        return parameterized, with_persistence

    def phase_counts(self) -> Dict[str, int]:
        """Per-phase counts for a Figure-4 style funnel.

        Phases 1–3 are analytic (plain products; phase 3 on the representative
        parameterization of :meth:`estimate_count`); the phase-4 entry is the
        exact final count from the space index.
        """
        skeletons = count_skeletons(self.bounds)
        parameterized, with_persistence = self._analytic_counts()
        return {
            "phase1_skeletons": skeletons,
            "phase2_parameterized": parameterized,
            "phase3_with_persistence": with_persistence,
            "phase4_final": self.count(),
        }


#: A placed prefix of a core sequence — every operation but the last, each
#: with its persistence choice: (candidates phase 4 rejected just before it,
#: in placements of the prefix; the state number after it; its dependency
#: operations; its core operations and persistence points).
Prefix = Tuple[int, int, Tuple[Operation, ...], Tuple[Operation, ...]]

#: One persistence choice of a last operation: (the dependency operations the
#: operation and its point add, the operation and its point), or None where
#: phase 4 discards the workload.
Completion = Optional[Tuple[Tuple[Operation, ...], Tuple[Operation, ...]]]


class _Walk:
    """Phases 2-4 of one :meth:`AceSynthesizer.generate` walk over numbered operations.

    Core sequences come depth first in ``parameterize``'s order, each with
    the placed prefixes of its operations but the last, built once per core
    prefix for every sequence sharing it.  A prefix phase 4 rejects is not
    kept; its candidates ride on the next kept prefix (or the trailing
    count) so the caller's ``stats`` read as if every candidate had been
    resolved on its own.  The last operation's completions are memoised per
    (state, operation), so a workload costs one lookup and its construction.
    """

    def __init__(self, operations: OperationTable):
        self.operations = operations
        self.steps = operations.steps
        #: (state number, last operation) -> its completions, in phase 3's order
        self.completions: Dict[Tuple[int, int], Tuple[Completion, ...]] = {}

    def width(self, last: int) -> int:
        """Persistence choices of a last operation."""
        return len(self.operations.points(last, True))

    def core_sequences(self, skeleton: Skeleton
                       ) -> Iterator[Tuple[int, List[Prefix], int]]:
        """Every phase-2 sequence of ``skeleton`` as (last operation, placed
        prefixes of the others, placements of them rejected after the last
        kept one)."""
        choices = [self.operations.core(name) for name in skeleton]
        ops = self.steps.ops
        last = len(skeleton) - 1

        def descend(depth: int, prefixes: List[Prefix], trailing: int,
                    used: FrozenSet[str]) -> Iterator[Tuple[int, List[Prefix], int]]:
            for op in choices[depth]:
                if is_symmetric_half(ops[op], used):
                    continue
                if depth == last:
                    yield op, prefixes, trailing
                else:
                    yield from descend(depth + 1, *self._place(prefixes, trailing, op),
                                       used | op_paths(ops[op]))

        return descend(0, [(0, EMPTY, (), ())], 0, frozenset())

    def _place(self, prefixes: List[Prefix], trailing: int,
               op: int) -> Tuple[List[Prefix], int]:
        """``prefixes`` extended by core operation ``op`` and each of its
        non-final persistence choices."""
        step = self.steps.step
        core = self.steps.ops[op]
        points = self.operations.points(op, False)
        placed: List[Prefix] = []
        rejected = 0
        for before, state, deps, ops in prefixes:
            rejected += before * len(points)
            after = step(state, op)
            if after is None:
                rejected += len(points)
                continue
            state, added = after
            deps, ops = deps + added, ops + (core,)
            for point in points:
                if point is None:
                    placed.append((rejected, state, deps, ops))
                    rejected = 0
                    continue
                after = step(state, point)
                if after is None:
                    rejected += 1
                    continue
                placed.append((rejected, after[0], deps + after[1],
                               ops + (self.steps.ops[point],)))
                rejected = 0
        return placed, rejected + trailing * len(points)

    def complete(self, state: int, last: int) -> Tuple[Completion, ...]:
        """The completions of last operation ``last`` from state ``state``, memoised."""
        points = self.operations.points(last, True)
        after = self.steps.step(state, last)
        if after is None:
            completions: Tuple[Completion, ...] = (None,) * len(points)
        else:
            # Phase 3 always persists the last operation: no point is None here.
            after_state, added = after
            core = self.steps.ops[last]
            listed: List[Completion] = []
            for point in points:
                step = self.steps.step(after_state, point)
                listed.append(None if step is None
                              else (added + step[1], (core, self.steps.ops[point])))
            completions = tuple(listed)
        self.completions[state, last] = completions
        return completions


def group_siblings(workloads: Iterable[Workload]) -> Iterator[List[Workload]]:
    """Group a workload stream into maximal runs of equal ``family_key``."""
    group: List[Workload] = []
    group_key: Optional[str] = None
    for workload in workloads:
        key = workload.family_key()
        if group and key != group_key:
            yield group
            group = []
        group.append(workload)
        group_key = key
    if group:
        yield group


def generate_workloads(bounds: Bounds, limit: Optional[int] = None) -> List[Workload]:
    """Convenience wrapper: materialize (a prefix of) the bounded space."""
    return list(AceSynthesizer(bounds).generate(limit=limit))
