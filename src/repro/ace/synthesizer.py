"""The ACE workload synthesizer.

Glues the four generation phases together and exposes the operations a
campaign needs: exhaustive generation, counting, and deterministic sampling
of the bounded workload space (paper §5.2, Figure 4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..workload.operations import Operation
from ..workload.workload import Workload
from .bounds import Bounds
from .fileset import FileSet, build_fileset
from .index import SpaceIndex
from .phase1 import count_skeletons, generate_skeletons
from .phase2 import count_parameterizations, parameterize
from .phase3 import count_persistence_variants, persistence_choices
from .phase4 import EMPTY_STATE, DependencySteps, State


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

        Phases 3 and 4 run as one depth-first walk per core sequence: a
        persistence-point prefix is resolved once, through a phase-4
        transition table shared by the whole walk, for all its completions.
        """
        stats = GenerationStats()
        self.stats = stats
        if limit is not None and limit <= 0:
            return
        label = self.bounds.label or f"seq-{self.bounds.seq_length}"
        steps = DependencySteps()
        points = functools.lru_cache(maxsize=None)(
            lambda op, final: persistence_choices(op, self.bounds, final=final))
        produced = 0
        for skeleton in generate_skeletons(self.bounds, required_ops):
            stats.skeletons += 1
            last = len(skeleton) - 1
            for core_ops in parameterize(skeleton, self.fileset, self.bounds):
                stats.parameterized += 1
                choices = [points(op, depth == last) for depth, op in enumerate(core_ops)]
                for ops in _walk(steps, core_ops, choices, stats):
                    produced += 1
                    stats.final += 1
                    yield Workload(
                        ops=ops,
                        name=f"{label}-{produced:07d}",
                        seq_length=self.bounds.seq_length,
                        source=f"ace:{label}",
                    )
                    if limit is not None and produced >= limit:
                        return

    def workload_at(self, position: int,
                    required_ops: Optional[Sequence[str]] = None) -> Workload:
        """The workload :meth:`generate` yields at ``position`` (0-based), built directly.

        Equal to ``list(generate(required_ops))[position]`` — same operations,
        same name — without enumerating the workloads before it.  Raises
        :class:`IndexError` outside ``range(count(required_ops))``.
        """
        return self.index.workload_at(position, required_ops)

    def _sample_positions(self, count: int, stride: Optional[int] = None,
                          required_ops: Optional[Sequence[str]] = None,
                          max_stride: int = 2000) -> range:
        """Positions (in :meth:`generate`'s order) a sample of ``count`` takes."""
        if count <= 0:
            return range(0)
        if stride is None:
            estimated = max(self.estimate_count(required_ops), 1)
            stride = min(max(estimated // count, 1), max(max_stride, 1))
        return range(0, self.count(required_ops), stride)[:count]

    def sample_stream(self, count: int, stride: Optional[int] = None,
                      required_ops: Optional[Sequence[str]] = None,
                      max_stride: int = 2000) -> Iterator[Workload]:
        """Lazily yield ``count`` workloads deterministically spread over the space.

        Sampling takes every ``stride``-th workload of :meth:`generate`'s
        order, unranked directly (:meth:`workload_at`), so the cost follows
        the sample, not the space.  When no stride is given one is derived
        from :meth:`estimate_count`; ``max_stride`` caps it, which confines
        the sample of a multi-million-workload seq-3 space to its first
        ``count * max_stride`` positions (a larger value spreads it wider).
        A space with fewer than ``count`` stride positions yields those it
        has.  ``stats.final`` counts the workloads materialised.
        """
        stats = GenerationStats()
        self.stats = stats
        for position in self._sample_positions(count, stride, required_ops, max_stride):
            workload = self.workload_at(position, required_ops)
            stats.final += 1
            yield workload

    def sample(self, count: int, stride: Optional[int] = None,
               required_ops: Optional[Sequence[str]] = None,
               max_stride: int = 2000) -> List[Workload]:
        """Materialized :meth:`sample_stream` (kept for convenience)."""
        return list(self.sample_stream(count, stride=stride,
                                       required_ops=required_ops,
                                       max_stride=max_stride))

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
        total = 0
        for skeleton in generate_skeletons(self.bounds, required_ops):
            parameter_count = count_parameterizations(skeleton, self.fileset, self.bounds)
            # Persistence choices depend only on the operation kinds, so use a
            # representative parameterization to count them.
            representative = next(parameterize(skeleton, self.fileset, self.bounds), None)
            if representative is None:
                continue
            persistence_count = count_persistence_variants(representative, self.bounds)
            total += parameter_count * persistence_count
        return total

    def phase_counts(self) -> Dict[str, int]:
        """Per-phase counts for a Figure-4 style funnel.

        Phases 1–3 are analytic (plain products; phase 3 on the representative
        parameterization of :meth:`estimate_count`); the phase-4 entry is the
        exact final count from the space index.
        """
        skeletons = count_skeletons(self.bounds)
        parameterized = 0
        with_persistence = 0
        for skeleton in generate_skeletons(self.bounds):
            parameter_count = count_parameterizations(skeleton, self.fileset, self.bounds)
            parameterized += parameter_count
            representative = next(parameterize(skeleton, self.fileset, self.bounds), None)
            if representative is None:
                continue
            with_persistence += parameter_count * count_persistence_variants(representative, self.bounds)
        return {
            "phase1_skeletons": skeletons,
            "phase2_parameterized": parameterized,
            "phase3_with_persistence": with_persistence,
            "phase4_final": self.count(),
        }


def _walk(steps: DependencySteps, core_ops: Sequence[Operation],
          choices: Sequence[Sequence[Optional[Operation]]],
          stats: GenerationStats) -> Iterator[List[Operation]]:
    """Phases 3 and 4 of one core sequence: every valid full operation list.

    Depth first over the persistence choices, first operation outermost —
    ``add_persistence_points``' order — carrying (state, dependencies,
    operations) down, so each prefix is resolved once for all its
    completions.  A prefix phase 4 rejects is skipped whole; its completions
    still count as phase-3 candidates and as discarded, so ``stats`` reads as
    if every candidate had been resolved on its own.
    """
    # below[d]: the phase-3 candidates that complete a prefix of d core operations
    below = [1] * (len(core_ops) + 1)
    for depth in reversed(range(len(core_ops))):
        below[depth] = below[depth + 1] * len(choices[depth])
    last = len(core_ops) - 1

    def skip(candidates: int) -> None:
        stats.with_persistence += candidates
        stats.discarded_invalid += candidates

    def descend(depth: int, state: State, deps: Tuple[Operation, ...],
                ops: Tuple[Operation, ...]) -> Iterator[List[Operation]]:
        op = core_ops[depth]
        step = steps.step(state, op)
        if step is None:
            skip(below[depth])
            return
        state, added = step
        deps, ops = deps + added, ops + (op,)
        for point in choices[depth]:
            after, more, tail = state, deps, ops
            if point is not None:
                step = steps.step(state, point)
                if step is None:
                    skip(below[depth + 1])
                    continue
                after, added = step
                more, tail = deps + added, ops + (point,)
            if depth == last:
                stats.with_persistence += 1
                yield [*more, *tail]
            else:
                yield from descend(depth + 1, after, more, tail)

    return descend(0, EMPTY_STATE, (), ())


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
