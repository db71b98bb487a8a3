"""Campaign results.

A B3 campaign tests many workloads on one file system; this module aggregates
the per-workload :class:`CrashTestResult` objects into the quantities the
paper reports: how many workloads were tested, how long testing took, how
many bug reports were produced, and (after Figure-5 post-processing) how many
distinct bugs remain.  The counts and the Figure-5 groups are roll-ups merged
from the chunks that computed them, so a report of G groups reads G
representatives, not every failing result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..crashmonkey.report import (
    PHASE_FIELDS,
    BugReport,
    CrashTestResult,
    GroupKey,
    GroupPartial,
    Totals,
    merge_partials,
    merge_roll_ups,
    partial_of,
    roll_ups_of,
)
from ..engine.backends import ChunkOutcome
from .dedup import KnownBugDatabase, ReportGroup, groups_of, unique_groups


class _ReportsOf:
    """Every bug report of ``results``, in stream order, read on each pass."""

    __slots__ = ("results",)

    def __init__(self, results: Sequence[CrashTestResult]):
        self.results = results

    def __iter__(self) -> Iterator[BugReport]:
        for result in self.results:
            yield from result.bug_reports


@dataclass
class CampaignResult(Totals):
    """Aggregated outcome of one testing campaign.

    Its counts and its Figure-5 groups are fields each source fills once:
    a plain run merges its chunks' roll-ups and group partials
    (:meth:`of_outcomes`), a state store its chunks' stored ones, and a
    result built from bare ``results`` (:meth:`from_dict`, a caller's list)
    computes them from those when it is constructed.  No read of an aggregate looks at a
    result, and the grouped report reads one row per group, for its
    representative, and only when that is asked for.
    """

    fs_name: str
    fs_model: str
    label: str = ""
    #: in stream order: a list, or for a durable campaign a sequence read
    #: from its state store on demand
    results: Sequence[CrashTestResult] = field(default_factory=list)
    generation_seconds: float = 0.0
    testing_seconds: float = 0.0
    #: generated workloads dropped by the adapter because validation failed
    #: (surfaced, never silently swallowed: tested + invalid = generated)
    invalid_workloads: int = 0
    #: every counter's campaign-wide aggregate, by aggregate name; each reads
    #: as an attribute too (``campaign.prefix_hits``).  Computed from
    #: ``results``, with the next two fields, when not given.
    totals: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: workloads with bug reports
    failing_workloads: Optional[int] = None
    #: the results with bug reports, in stream order: what the reports are read from
    failing_results: Optional[Sequence[CrashTestResult]] = field(default=None, repr=False)
    #: the Figure-5 groups, as the merged group partial of every chunk
    #: (:func:`~repro.crashmonkey.report.merge_partials`); computed from
    #: ``failing_results`` when not given
    groups: Optional[GroupPartial] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.totals is None:
            self.totals = roll_ups_of(self.results)
            self.failing_results = [result for result in self.results if not result.passed]
            self.failing_workloads = len(self.failing_results)
        if self.groups is None:
            self.groups = partial_of(enumerate(self.failing_results))

    @classmethod
    def of_outcomes(cls, outcomes: Iterable[ChunkOutcome], **fields) -> "CampaignResult":
        """The result of a run whose chunks came out as ``outcomes``, in any
        order: their results in stream order, their roll-ups and group
        partials merged once."""
        outcomes = sorted(outcomes, key=attrgetter("record.index"))
        return cls(
            results=[result for outcome in outcomes for result in outcome.results],
            totals=merge_roll_ups(outcome.totals for outcome in outcomes),
            failing_workloads=sum(outcome.record.failing_workloads for outcome in outcomes),
            failing_results=[outcome.results[position] for outcome in outcomes
                             for position in outcome.failing_positions],
            groups=merge_partials((outcome.groups for outcome in outcomes), into={}),
            **fields)

    # -- serialization (campaign state store / --json-out) -----------------------

    def _derived(self, session: bool) -> dict:
        """The headline aggregates both payloads repeat for summary-only readers."""
        groups = self.grouped_reports()
        derived = {
            "workloads_tested": self.workloads_tested,
            "crash_points_tested": self.crash_points_tested,
            "failing_workloads": self.failing_workloads,
            "raw_reports": sum(len(group) for group in groups),
            "report_groups": len(groups),
            "deduped_scenarios": self.deduped_scenarios,
            "cross_deduped_scenarios": self.cross_deduped_scenarios,  # always 0; shape kept
            "memoized_scenarios": self.memoized_scenarios,
        }
        if session:
            derived.update(inherited_verdicts=self.inherited_verdicts,
                           prefix_hits=self.prefix_hits, replay_hits=self.replay_hits)
        return derived

    def to_dict(self) -> dict:
        """JSON-ready view of the full campaign outcome.

        ``results`` round-trips byte-for-byte via
        :meth:`CrashTestResult.to_dict`; the ``derived`` block repeats the
        headline aggregates for consumers that only read the summary (it is
        ignored by :meth:`from_dict`, which computes everything from the
        raw results).
        """
        return {
            "fs_name": self.fs_name,
            "fs_model": self.fs_model,
            "label": self.label,
            "generation_seconds": self.generation_seconds,
            "testing_seconds": self.testing_seconds,
            "invalid_workloads": self.invalid_workloads,
            "results": [result.to_dict() for result in self.results],
            "derived": self._derived(session=True),
        }

    def canonical_dict(self) -> dict:
        """Schedule-invariant view: what was tested, not how the run went.

        Drops wall-clock timings and every counter tagged ``SESSION`` (see
        :func:`~repro.crashmonkey.report.counter`) — those depend on harness
        lifetimes, so an interrupted-and-resumed campaign or a different
        chunk->worker assignment legitimately reports different values.
        Everything that remains is identical across schedules; the
        crash-resume tests and the CI smoke compare exactly this payload.
        """
        return {
            "fs_name": self.fs_name,
            "fs_model": self.fs_model,
            "label": self.label,
            "invalid_workloads": self.invalid_workloads,
            "results": [result.canonical_dict() for result in self.results],
            "derived": self._derived(session=False),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignResult":
        return cls(
            fs_name=payload["fs_name"],
            fs_model=payload["fs_model"],
            label=payload.get("label", ""),
            results=[CrashTestResult.from_dict(r) for r in payload.get("results", [])],
            generation_seconds=payload.get("generation_seconds", 0.0),
            testing_seconds=payload.get("testing_seconds", 0.0),
            invalid_workloads=payload.get("invalid_workloads", 0),
        )

    # -- aggregation ------------------------------------------------------------
    # Every counter's campaign-wide aggregate (``crash_points_tested``,
    # ``prefix_hits``, ``spine_spills``, ...) is an attribute through
    # :class:`Totals`; seconds are CPU time summed across workers, not wall clock.

    @property
    def workloads_tested(self) -> int:
        return len(self.results)

    @property
    def mounted_scenarios(self) -> int:
        """Tested scenarios that were really mounted and checked."""
        return self.scenarios_tested - self.memoized_scenarios - self.inherited_verdicts

    def recording_seconds_saved(self) -> float:
        """Recording-phase seconds prefix sharing avoided (summed over workers)."""
        return self.prefix_seconds_saved

    def all_reports(self) -> List[BugReport]:
        """Every raw report, in stream order: decodes every failing row of a stored result."""
        return list(_ReportsOf(self.failing_results))

    def grouped_reports(self) -> List[ReportGroup]:
        """Figure-5 grouping of every raw report, read from the merged partials.

        No report is read to build it: a group's representative is read when
        it is first asked for (one row per group for a stored result), and
        ``group.reports`` reads the failing results each time.
        """
        return groups_of(self.groups, self._representative, _ReportsOf(self.failing_results))

    def _representative(self, key: GroupKey) -> BugReport:
        entry = self.groups[key]
        if entry[2] is None:
            # The partials of a stored result hold positions: read every
            # representative not read yet, one row each, in one pass.
            missing = [other for other in self.groups.values() if other[2] is None]
            found = self.failing_results.reports_at(other[1] for other in missing)
            for other in missing:
                other[2] = found[other[1]]
        return entry[2]

    def unique_reports(self, database: Optional[KnownBugDatabase] = None) -> List[ReportGroup]:
        """Figure-5 grouping after filtering against a known-bug database."""
        return unique_groups(self.grouped_reports(), database)

    def consequences(self) -> Dict[str, int]:
        """Raw reports per consequence, in stream order of each one's first report."""
        counts: Dict[str, int] = {}
        for group in self.grouped_reports():
            counts[group.consequence] = counts.get(group.consequence, 0) + len(group)
        return counts

    def mean_test_seconds(self) -> float:
        tested = self.workloads_tested
        return sum(self.phase_seconds()) / tested if tested else 0.0

    def phase_seconds(self) -> Tuple[float, float, float, float, float]:
        """Total (profile, replay, mount, fsck, check) seconds across all
        workloads — the §6.3 phases, with crash-state construction (replay),
        mounting/recovery, and fsck attributed separately.  The five components
        sum to the CPU time spent testing, summed over workers; under a
        parallel backend that exceeds ``testing_seconds``, which is wall
        clock."""
        return tuple(getattr(self, name) for name in PHASE_FIELDS)

    def check_timings(self) -> Dict[str, float]:
        """Per-check wall-clock attribution summed across every workload.

        The per-component breakdown of the checking phase: check name ->
        total seconds spent in that check over the whole campaign.
        """
        totals: Dict[str, float] = {}
        for result in self.results:
            for name, seconds in result.check_timings.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def summary(self, groups: Optional[List[ReportGroup]] = None) -> str:
        """The headline line; ``groups`` spares a caller that already grouped."""
        if groups is None:
            groups = self.grouped_reports()
        invalid = (f" (+{self.invalid_workloads} invalid dropped)"
                   if self.invalid_workloads else "")
        return (
            f"campaign {self.label or '-'} on {self.fs_model}: "
            f"{self.workloads_tested} workloads{invalid}, "
            f"{self.crash_points_tested} crash points, "
            f"{self.failing_workloads} failing workloads, "
            f"{sum(len(group) for group in groups)} raw reports, "
            f"{len(groups)} report groups, "
            f"{self.generation_seconds:.2f}s generation + {self.testing_seconds:.2f}s testing"
        )

    def recording_summary(self) -> str:
        """One line of prefix-sharing / dedup accounting for this campaign."""
        return (
            f"recording: {self.prefix_hits}/{self.workloads_tested} prefix hits, "
            f"{self.prefix_ops_reused} ops and {self.prefix_writes_reused} writes reused, "
            f"{self.recording_seconds_saved():.2f}s saved; "
            f"dedup: {self.deduped_scenarios} repeat-checkpoint scenarios skipped, "
            f"{self.mounted_scenarios} crash states mounted + "
            f"{self.inherited_verdicts} inherited + "
            f"{self.memoized_scenarios} memoized of {self.scenarios_tested} tested"
        )

    def spine_summary(self) -> str:
        """One line of spine-spill accounting for this campaign."""
        return (
            f"spine spill: {self.spine_spills} nodes "
            f"({self.spine_spilled_bytes} bytes) spilled, "
            f"{self.spine_rehydrations} rehydrated, "
            f"peak resident {self.spine_peak_resident_bytes} bytes per worker"
        )

    def describe(self) -> str:
        groups = self.grouped_reports()
        lines = [self.summary(groups)]
        if self.prefix_hits or self.memoized_scenarios:
            lines.append(self.recording_summary())
        if self.spine_spills or self.spine_rehydrations:
            lines.append(self.spine_summary())
        lines.append("report groups:")
        for group in groups:
            lines.append("  " + group.describe())
        return "\n".join(lines)
