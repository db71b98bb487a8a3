"""Post-processing of bug reports (paper §5.3, Figure 5).

A single underlying bug typically makes many generated workloads fail.  The
paper mitigates this in two ways, both implemented here:

* **grouping** — bug reports are grouped by the workload *skeleton* (the
  sequence of core operations) and the consequence, so four reports that only
  differ in which file from the argument set they used collapse into one
  group to inspect;
* **known-bug matching** — ACE keeps a database of already-found bugs (core
  operations + consequence); new reports that match it are filtered out so
  only genuinely new findings reach the user.

A campaign's grouping is a roll-up, like its counts: each chunk's *group
partial* is computed where the chunk ran and partials merge by adding counts
and keeping the earliest first report
(:func:`~repro.crashmonkey.report.partial_of` /
:func:`~repro.crashmonkey.report.merge_partials`, beside the chunk's other
roll-ups), so the merged groups, their order and their representatives are
what :func:`group_reports` gives over every report in stream order.  This
module turns a merged partial into :class:`ReportGroup` objects
(:func:`groups_of`): a group holds its count and a reader of its
representative, not its reports, and known-bug matching reads the groups
too (:func:`unique_groups`): a report's signature is a function of its
group key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from ..crashmonkey.report import BugReport, GroupKey, GroupPartial
from .known_bugs import KnownBug


class ReportGroup:
    """All bug reports that share a skeleton and a consequence.

    A group is its key, its raw report count and a reader of its
    representative (its first report in stream order): ``len``,
    :attr:`representative` and :meth:`describe` need nothing else.
    :attr:`reports` reads the group's reports from ``source`` — every report
    of its campaign, in stream order — each time it is asked; for a stored
    result that decodes the failing rows.
    """

    __slots__ = ("skeleton", "consequence", "count", "_read", "_source")

    def __init__(self, skeleton: Tuple[str, ...], consequence: str, count: int,
                 read: Callable[[GroupKey], BugReport], source: Iterable[BugReport]):
        self.skeleton = skeleton
        self.consequence = consequence
        self.count = count
        self._read = read
        self._source = source

    @property
    def representative(self) -> BugReport:
        return self._read((self.skeleton, self.consequence))

    @property
    def reports(self) -> List[BugReport]:
        """The group's reports in stream order, read from its source."""
        key = (self.skeleton, self.consequence)
        return list(islice((report for report in self._source if report.group_key() == key),
                           self.count))

    def __len__(self) -> int:
        return self.count

    def describe(self) -> str:
        ops = ", ".join(self.skeleton) or "<no core ops>"
        return (
            f"[{self.consequence}] skeleton ({ops}): {self.count} report(s); "
            f"representative workload {self.representative.workload.display_name()}"
        )


def groups_of(partial: GroupPartial, read: Callable[[GroupKey], BugReport],
              source: Iterable[BugReport]) -> List[ReportGroup]:
    """A merged partial's groups, in stream order of their first reports."""
    ordered = sorted(partial.items(), key=lambda item: item[1][1])
    return [ReportGroup(skeleton, consequence, count, read, source)
            for (skeleton, consequence), (count, _, _) in ordered]


def group_reports(reports: Iterable[BugReport]) -> List[ReportGroup]:
    """Group bug reports by (skeleton, consequence) — the Figure-5 GROUP BY."""
    reports = list(reports)
    partial: GroupPartial = {}
    for index, report in enumerate(reports):
        partial.setdefault(report.group_key(), [0, (0, 0, index), report])[0] += 1
    return groups_of(partial, lambda key: partial[key][2], reports)


@dataclass
class KnownBugDatabase:
    """The database of already-found bugs ACE consults before reporting.

    Entries are (set of core operations, consequence) pairs: the same
    matching rule §5.3 describes.
    """

    entries: Set[Tuple[Tuple[str, ...], str]] = field(default_factory=set)

    @classmethod
    def from_known_bugs(cls, bugs: Sequence[KnownBug]) -> "KnownBugDatabase":
        database = cls()
        for bug in bugs:
            if not bug.workload_text:
                continue
            database.add_workload_signature(
                tuple(sorted(bug.workload().operations_used())), bug.consequence
            )
        return database

    def add_workload_signature(self, operations: Tuple[str, ...], consequence: str) -> None:
        self.entries.add((tuple(sorted(operations)), consequence))

    def add_report(self, report: BugReport) -> None:
        self.add_workload_signature(report.workload.operations_used(), report.consequence)

    def matches(self, report: BugReport) -> bool:
        signature = (tuple(sorted(report.workload.operations_used())), report.consequence)
        return signature in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def filter_new_reports(reports: Iterable[BugReport],
                       database: Optional[KnownBugDatabase] = None) -> List[BugReport]:
    """Drop reports matching the known-bug database (and feed it the rest)."""
    database = database if database is not None else KnownBugDatabase()
    fresh: List[BugReport] = []
    for report in reports:
        if database.matches(report):
            continue
        fresh.append(report)
        database.add_report(report)
    return fresh


def deduplicate(reports: Iterable[BugReport],
                database: Optional[KnownBugDatabase] = None) -> List[ReportGroup]:
    """Full Figure-5 pipeline: filter against the database, then group."""
    return group_reports(filter_new_reports(reports, database))


def unique_groups(groups: Sequence[ReportGroup],
                  database: Optional[KnownBugDatabase] = None) -> List[ReportGroup]:
    """:func:`deduplicate` of the reports of ``groups`` (in stream order of their
    first reports), read from the groups alone.

    A report's known-bug signature is the set of its skeleton's operations and
    its consequence, so the reports of one group share one, and the first
    report with a signature is the representative of the first group with it:
    that group survives as that one report, unless the database knows it.
    """
    database = database if database is not None else KnownBugDatabase()
    fresh: List[ReportGroup] = []
    for group in groups:
        operations = tuple(sorted(set(group.skeleton)))
        if (operations, group.consequence) in database.entries:
            continue
        database.add_workload_signature(operations, group.consequence)
        fresh.append(ReportGroup(group.skeleton, group.consequence, 1,
                                 group._read, group._source))
    return fresh
