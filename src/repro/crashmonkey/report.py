"""Bug reports.

The output of CrashMonkey is a bug report per failing crash point: which
workload, which crash point, which file system, what was expected (from the
oracle) and what was actually found in the recovered crash state (paper
Figure 2's "Output").  The per-workload :class:`CrashTestResult` carrying
those reports is also where every per-workload counter is declared, once,
with its canonical/session tag and its roll-up rule (see :func:`counter`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields
from operator import add, attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..fs.bugs import Consequence
from ..workload.workload import Workload


class Severity(enum.IntEnum):
    """Public severity ordering over consequence classes.

    Lower values are more severe; ``Severity`` members therefore sort
    most-severe-first, and ``min()`` over mismatch severities picks the
    primary one.  ``HARNESS_ERROR`` outranks everything: it means the
    checker could not do its job, so no conclusion about the crash state
    is trustworthy.
    """

    HARNESS_ERROR = 0
    UNMOUNTABLE = 1
    DIR_UNREMOVABLE = 2
    ATOMICITY = 3
    FILE_MISSING = 4
    DATA_LOSS = 5
    WRONG_SIZE = 6
    CORRUPTION = 7
    DATA_INCONSISTENCY = 8

    @property
    def consequence(self) -> str:
        """The consequence string this severity level ranks."""
        return _SEVERITY_TO_CONSEQUENCE[self]

    @classmethod
    def of(cls, consequence: str) -> "Severity":
        """Severity of a consequence string (raises ``KeyError`` if unknown)."""
        return _CONSEQUENCE_TO_SEVERITY[consequence]

    @classmethod
    def rank_of(cls, consequence: str) -> int:
        """Sort key for a consequence string; unknown strings rank last."""
        severity = _CONSEQUENCE_TO_SEVERITY.get(consequence)
        return int(severity) if severity is not None else len(cls)


#: Consequence class reported when the harness itself failed (e.g. a missing
#: oracle or tracker view); not one of the paper's Table-1 classes.
HARNESS_ERROR = "harness internal error"

_SEVERITY_TO_CONSEQUENCE: Dict[Severity, str] = {
    Severity.HARNESS_ERROR: HARNESS_ERROR,
    Severity.UNMOUNTABLE: Consequence.UNMOUNTABLE,
    Severity.DIR_UNREMOVABLE: Consequence.DIR_UNREMOVABLE,
    Severity.ATOMICITY: Consequence.ATOMICITY,
    Severity.FILE_MISSING: Consequence.FILE_MISSING,
    Severity.DATA_LOSS: Consequence.DATA_LOSS,
    Severity.WRONG_SIZE: Consequence.WRONG_SIZE,
    Severity.CORRUPTION: Consequence.CORRUPTION,
    Severity.DATA_INCONSISTENCY: Consequence.DATA_INCONSISTENCY,
}

_CONSEQUENCE_TO_SEVERITY: Dict[str, Severity] = {
    consequence: severity for severity, consequence in _SEVERITY_TO_CONSEQUENCE.items()
}


@dataclass(frozen=True, slots=True)
class Mismatch:
    """One failed correctness check."""

    check: str                 #: which checker produced it ("read", "write", "mount", "atomicity")
    consequence: str           #: one of :class:`repro.fs.bugs.Consequence`
    path: str                  #: the path (or entity) the check concerns
    expected: str              #: human-readable expected state
    actual: str                #: human-readable observed state
    #: crash-plan scenario id of the crash state that failed the check
    #: ("prefix" for the classic one-state-per-checkpoint model); stamped by
    #: the harness, empty when the mismatch was produced outside it
    scenario: str = ""

    @property
    def severity(self) -> Optional[Severity]:
        """Severity of this mismatch's consequence (None if unknown)."""
        return _CONSEQUENCE_TO_SEVERITY.get(self.consequence)

    def describe(self) -> str:
        return (
            f"[{self.check}] {self.consequence}: {self.path or '<file system>'}\n"
            f"    expected: {self.expected}\n"
            f"    actual:   {self.actual}"
        )

    # -- serialization (campaign state store / --json-out) -------------------

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "consequence": self.consequence,
            "path": self.path,
            "expected": self.expected,
            "actual": self.actual,
            "scenario": self.scenario,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Mismatch":
        return cls(
            check=payload["check"],
            consequence=payload["consequence"],
            path=payload["path"],
            expected=payload["expected"],
            actual=payload["actual"],
            scenario=payload.get("scenario", ""),
        )


@dataclass(slots=True)
class BugReport:
    """A crash-consistency violation found at one crash point of one workload."""

    workload: Workload
    fs_type: str
    fs_model: str                      #: the real file system the simulator stands in for
    checkpoint_id: int
    crash_point: str                   #: description of the persistence op crashed after
    mismatches: List[Mismatch] = field(default_factory=list)
    kernel_version: str = "4.16"       #: reported for parity with the paper's reports
    #: crash-plan scenario that produced the failing state; grouping and
    #: known-bug matching deliberately ignore it (same skeleton + consequence
    #: found by different plans is the same underlying bug)
    scenario: str = "prefix"
    notes: str = ""

    @property
    def primary(self) -> Optional[Mismatch]:
        """The most severe mismatch (stable: first wins among equals)."""
        if not self.mismatches:
            return None
        return min(self.mismatches, key=lambda m: Severity.rank_of(m.consequence))

    @property
    def consequence(self) -> str:
        """The most severe consequence among the mismatches.

        Consequence strings outside the known :class:`Severity` classes are
        surfaced as-is (they rank last via :meth:`Severity.rank_of`), never
        silently relabelled as corruption — rewriting them would hide new
        consequence classes from grouping and the Figure-5 post-processing.
        """
        primary = self.primary
        if primary is None:
            return Consequence.CORRUPTION
        return primary.consequence

    @property
    def consequences(self) -> Tuple[str, ...]:
        return tuple(sorted({mismatch.consequence for mismatch in self.mismatches}))

    def skeleton(self) -> Tuple[str, ...]:
        return self.workload.skeleton()

    def group_key(self) -> Tuple:
        """Key used by the Figure-5 post-processing (skeleton + consequence)."""
        return (self.skeleton(), self.consequence)

    # -- serialization (campaign state store / --json-out) -------------------

    def to_dict(self) -> dict:
        return {
            "workload": self.workload.to_json(),
            "fs_type": self.fs_type,
            "fs_model": self.fs_model,
            "checkpoint_id": self.checkpoint_id,
            "crash_point": self.crash_point,
            "mismatches": [mismatch.to_dict() for mismatch in self.mismatches],
            "kernel_version": self.kernel_version,
            "scenario": self.scenario,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BugReport":
        return cls(
            workload=Workload.from_json(payload["workload"]),
            fs_type=payload["fs_type"],
            fs_model=payload["fs_model"],
            checkpoint_id=payload["checkpoint_id"],
            crash_point=payload["crash_point"],
            mismatches=[Mismatch.from_dict(m) for m in payload.get("mismatches", [])],
            kernel_version=payload.get("kernel_version", "4.16"),
            scenario=payload.get("scenario", "prefix"),
            notes=payload.get("notes", ""),
        )

    def summary(self) -> str:
        tag = "" if self.scenario == "prefix" else f" [{self.scenario}]"
        return (
            f"{self.fs_model} ({self.fs_type}) workload {self.workload.display_name()} "
            f"crash after #{self.checkpoint_id} {self.crash_point}{tag}: {self.consequence} "
            f"({len(self.mismatches)} failed check(s))"
        )

    def describe(self) -> str:
        lines = [
            "=" * 72,
            f"Bug report: {self.consequence}",
            f"  file system : {self.fs_model} (simulated by {self.fs_type})",
            f"  kernel      : {self.kernel_version}",
            f"  workload    : {self.workload.display_name()}",
            f"  crash point : after persistence op #{self.checkpoint_id} ({self.crash_point})",
        ]
        if self.scenario != "prefix":
            lines.append(f"  crash plan  : {self.scenario}")
        if self.notes:
            lines.append(f"  notes       : {self.notes}")
        lines.append("  workload operations:")
        for op in self.workload.ops:
            lines.append(f"    {op.describe()}")
        lines.append("  failed checks:")
        for mismatch in self.mismatches:
            for text_line in mismatch.describe().splitlines():
                lines.append("    " + text_line)
        lines.append("=" * 72)
        return "\n".join(lines)


# ------------------------------------------------------------------- counters

#: a function of the workload, the file system and the plan alone: identical
#: on every schedule, so ``canonical_dict()`` keeps it
CANONICAL = "canonical"
#: how this session happened to run — wall clock, and whatever depends on
#: which workloads shared a harness or on what a spine still held (chunk ->
#: worker assignment under a pool, session boundaries under a durable resume,
#: the spill budget): ``canonical_dict()`` drops it
SESSION = "session"

#: how a chunk or a campaign aggregates a counter over its results
SUM, MAX, COUNT = "sum", "max", "count"
_ROLLUPS = {
    SUM: sum,
    MAX: lambda values: max(values, default=0),
    COUNT: lambda values: sum(1 for value in values if value),
}
#: how the aggregates of two disjoint result sets combine into their union's
_MERGES = {SUM: add, MAX: max, COUNT: add}
#: aggregate name -> roll-up rule, of every ``counted`` class (a subclass adds its own)
_AGGREGATE_RULES: Dict[str, str] = {}

#: producers the harness gathers same-named attributes from: the workload's
#: profile, its crash-state generator, and the plan that generator enumerated
PROFILE, GENERATOR, PLAN = "profile", "generator", "plan"


def counter(help: str, *, tag: str = CANONICAL, rollup: str = SUM,
            aggregate: Optional[str] = None, source: Optional[str] = None,
            default: Any = 0):
    """Declare one per-workload counter: a field whose metadata holds the rest.

    The JSON codec, ``canonical_dict()``'s filter, the harness's by-name
    gather and every campaign / chunk aggregate are derived from these
    declarations: adding a counter is one field plus the line that increments
    it.  ``tag`` says whether ``canonical_dict()`` keeps it, ``rollup`` how a
    chunk or a campaign aggregates it, ``aggregate`` the aggregate's name
    where history chose another than the field's, and ``source`` the producer
    (``PROFILE`` / ``GENERATOR`` / ``PLAN``) whose attribute of the same name the
    harness copies — none for the counters the harness computes itself.
    """
    if tag not in (CANONICAL, SESSION) or rollup not in _ROLLUPS or not help:
        raise ValueError(f"counter needs help, a tag and a roll-up rule: {tag!r}, {rollup!r}")
    return field(default=default, metadata={
        "help": help, "tag": tag, "rollup": rollup, "aggregate": aggregate, "source": source,
    })


def counted(cls):
    """A slotted ``@dataclass`` plus what its ``counter`` fields derive, computed once.

    Slotted because a held result would otherwise carry an instance dict of
    its own: with more attributes than CPython shares an instance dict's keys
    for, each result pays ~1.6 KiB for one.  ``dataclass(slots=True)`` returns
    a new class, so the derived attributes are set on that one, and no method
    of a counted class may use zero-argument ``super()``.
    """
    cls = dataclass(cls, slots=True)
    declared = [f for f in fields(cls) if "rollup" in f.metadata]
    #: every counter, in declaration order (the codec's scalar keys)
    cls.COUNTERS = tuple(f.name for f in declared)
    #: the counters ``canonical_dict()`` drops
    cls.SESSION_FIELDS = tuple(f.name for f in declared if f.metadata["tag"] == SESSION)
    #: counter -> roll-up rule, and aggregate name -> counter
    cls.ROLLUPS = {f.name: f.metadata["rollup"] for f in declared}
    cls.AGGREGATES = {f.metadata["aggregate"] or f.name: f.name for f in declared}
    _AGGREGATE_RULES.update((aggregate, cls.ROLLUPS[name])
                            for aggregate, name in cls.AGGREGATES.items())
    #: producer -> the counters gathered from it by name
    cls.GATHERED = {
        source: tuple(f.name for f in declared if f.metadata["source"] == source)
        for source in (PROFILE, GENERATOR, PLAN)
    }
    return cls


@counted
class CrashTestResult:
    """Result of running CrashMonkey on one workload.

    What was tested on what (``workload``, ``fs_type``, ``fs_model``), the
    structured payloads (``bug_reports``, ``check_timings``), and the
    counters — each declared once, see :func:`counter`.
    """

    workload: Workload
    fs_type: str
    fs_model: str
    checkpoints_tested: int = counter(
        "persistence points selected for testing (a checkpoint whose scenarios were all skipped "
        "by cross-checkpoint dedup still counts as tested — its byte-identical states were "
        "checked at an earlier checkpoint)", aggregate="crash_points_tested")
    scenarios_tested: int = counter(
        "crash scenarios constructed and given a verdict (by a mount and a check run, or by an "
        "identical state's — see ``memoized_scenarios`` and ``inherited_verdicts``); equals "
        "``checkpoints_tested`` under the prefix plan with dedup disabled, larger when a "
        "reordering plan enumerates several states per checkpoint, smaller when dedup skips "
        "repeat checkpoints")
    deduped_scenarios: int = counter(
        "scenarios skipped because an earlier checkpoint already tested the byte-identical state "
        "against identical expectations (cross-checkpoint dedup on flush-free windows: each one "
        "would have constructed, mounted and checked a state identical to one already tested — "
        "and double-counted its bug reports); scenarios_tested + deduped_scenarios is the full "
        "planner enumeration", source=GENERATOR)
    cross_deduped_scenarios: int = counter(
        "always 0, nothing skips scenarios across workloads (the verdict memo avoids their "
        "mounts, report grouping does the counting); kept so stored results and readers of "
        "the field keep their shape")
    memoized_scenarios: int = counter(
        "tested scenarios whose crash state agreed with an earlier scenario of the same checkpoint "
        "*in this workload's own pass* on every block that state's recovery and checks read "
        "(byte-identical or not), and took its verdict instead of a device, a mount and a check "
        "run of their own (included in ``scenarios_tested``).  Per pass, every state of a "
        "read-equivalence class but the first: a function of the recorded stream and the plan "
        "only, hence canonical.")
    inherited_verdicts: int = counter(
        "tested scenarios that were the first of their read-equivalence class in this workload's "
        "pass and took the verdict an *earlier workload* filed for a state of that class at the "
        "same checkpoint record, under the same oracle and tracker "
        "view objects (included in ``scenarios_tested``: scenarios_tested - memoized_scenarios - "
        "inherited_verdicts states were actually mounted).  Depends on what the recorder's spine "
        "still held (spill budget, chunk -> worker assignment), hence session telemetry: only a "
        "prefix node still resident when resumed carries verdicts (a thawed node's records start "
        "without), which under a budget is typically the node handed over in memory.",
        tag=SESSION)
    bug_reports: List[BugReport] = field(default_factory=list)
    # Timing breakdown, the §6.3 phases: profile / replay / mount / fsck / check.
    profile_seconds: float = counter(
        "seconds spent profiling the workload (recording its block I/O, oracles and persisted "
        "set)", tag=SESSION, source=PROFILE, default=0.0)
    replay_seconds: float = counter(
        "seconds spent on crash-state *construction* only (the paper's §6.3 replay phase: taking "
        "the recorded checkpoint records, the static analysis when it runs, and each state's own "
        "device and writes); mounting (recovery) and fsck are attributed separately instead of "
        "being lumped into replay", tag=SESSION, default=0.0)
    mount_seconds: float = counter(
        "seconds spent mounting crash states (the file system's recovery)",
        tag=SESSION, default=0.0)
    fsck_seconds: float = counter(
        "seconds spent in fsck on crash states that failed to mount", tag=SESSION, default=0.0)
    check_seconds: float = counter(
        "seconds spent running the consistency checks on mounted crash states",
        tag=SESSION, default=0.0)
    replayed_write_requests: int = counter(
        "in-flight window writes re-applied onto crash-state devices for this workload: those "
        "each non-baseline scenario keeps, counted only when its device was really built (a "
        "state that took another's verdict builds none, a baseline state forks the recorded "
        "device at its marker and applies nothing)",
        tag=SESSION, source=GENERATOR)
    #: per-check wall-clock attribution, check name -> seconds (summed over
    #: every crash point tested for this workload)
    check_timings: Dict[str, float] = field(default_factory=dict)
    # Resource accounting (paper §6.5).
    recorded_requests: int = counter("block I/O requests in the workload's recorded log")
    recorded_bytes: int = counter("payload bytes of the recorded write requests", source=PROFILE)
    crash_state_overlay_bytes: int = counter(
        "largest copy-on-write overlay any one crash state of this workload held over the shared "
        "base image", rollup=MAX)
    executed_ops: int = counter("workload operations the executor ran", source=PROFILE)
    skipped_ops: int = counter(
        "workload operations the executor skipped because the file system refused them",
        source=PROFILE)
    prefix_shared: bool = counter(
        "prefix-shared recording accounting: True when the profile resumed from the recorder's "
        "shared-prefix cache instead of re-running mkfs + prefix (even a depth-0 resume skips the "
        "per-workload mkfs image copy + mount)",
        tag=SESSION, rollup=COUNT, aggregate="prefix_hits", source=PROFILE, default=False)
    prefix_ops_reused: int = counter(
        "operations inherited from the shared prefix instead of re-executed",
        tag=SESSION, source=PROFILE)
    prefix_writes_reused: int = counter(
        "write requests inherited from the shared prefix (recorded_requests still counts them: "
        "the io_log is identical to from-scratch recording)", tag=SESSION, source=PROFILE)
    prefix_seconds_saved: float = counter(
        "recording seconds the prefix reuse avoided for this workload (the cached wall clock the "
        "original run spent reaching the resume point)", tag=SESSION, source=PROFILE, default=0.0)
    replay_shared: bool = counter(
        "always False, no crash-state build walks the recorded stream or resumes a walk (the "
        "recording run captures the checkpoint records); kept so stored results and readers of "
        "the field and its ``replay_hits`` aggregate keep their shape",
        tag=SESSION, rollup=COUNT, aggregate="replay_hits", default=False)
    replay_writes_reused: int = counter(
        "always 0, for the same reason as ``replay_shared``; kept so stored results and readers "
        "of the field keep their shape", tag=SESSION)
    replay_seconds_saved: float = counter(
        "always 0.0, for the same reason as ``replay_shared``; kept so stored results and "
        "readers of the field keep their shape", tag=SESSION, default=0.0)
    # Mechanism-planner accounting, kept by the workload's mechanism plan (0
    # under any other).  Counted from the recorded stream whether or not dedup
    # skips a checkpoint, so these are schedule-invariant (canonical) rather
    # than session telemetry.
    mechanism_checkpoints: int = counter(
        "checkpoints whose crash window was collapsed to representative states by an inferred "
        "mechanism", source=PLAN)
    mechanism_fallback_checkpoints: int = counter(
        "checkpoints where the mechanism planner fell back to the exhaustive torn plan",
        source=PLAN)
    mechanism_demoted_checkpoints: int = counter(
        "the subset of fallback checkpoints caused by the contract auditor demoting a reasoner's "
        "claim (exhaustive coverage, audit-attributed)", source=PLAN)
    audit_demotions: int = counter(
        "evidence claims the contract auditor demoted for this workload's report (0 on a correct "
        "file system; >= 1 whenever a reference bug breaks a claimed mechanism contract)",
        source=PLAN)
    # Spine-spill telemetry (session, not canonical: how much spilled depends
    # on the budget and on which workloads shared a harness).
    spine_resident_bytes: int = counter(
        "bytes of frozen spine nodes resident in the harness's spill store after this workload "
        "(the node handed to the next workload in memory is not in the store)",
        tag=SESSION, rollup=MAX)
    spine_peak_resident_bytes: int = counter(
        "high-water mark of resident spine bytes over the harness's lifetime (bounded by the "
        "configured ``spine_memory_budget`` — per harness, so per worker under a pool backend)",
        tag=SESSION, rollup=MAX)
    spine_spilled_bytes: int = counter(
        "bytes of spine nodes written to the spill directory for this workload", tag=SESSION)
    spine_spills: int = counter(
        "spine nodes spilled to disk while testing this workload (under a spine plan only the "
        "nodes a workload after the next resumes from are pushed, hence spillable)",
        tag=SESSION)
    spine_rehydrations: int = counter(
        "spilled spine nodes read back from disk while testing this workload", tag=SESSION)

    @property
    def passed(self) -> bool:
        return not self.bug_reports

    @property
    def total_seconds(self) -> float:
        return sum(getattr(self, name) for name in PHASE_FIELDS)

    def consequences(self) -> Tuple[str, ...]:
        return tuple(sorted({report.consequence for report in self.bug_reports}))

    # -- serialization (campaign state store / --json-out) -------------------

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.COUNTERS}
        payload["workload"] = self.workload.to_json()
        payload["fs_type"] = self.fs_type
        payload["fs_model"] = self.fs_model
        payload["bug_reports"] = [report.to_dict() for report in self.bug_reports]
        payload["check_timings"] = dict(self.check_timings)
        return payload

    def to_row(self) -> str:
        """The state store's row text for this result: compact :meth:`to_dict` JSON.

        Encoded where the result was tested (a pool worker, or the serial
        backend) when a sink owns the chunk; :meth:`from_row` is its inverse.
        """
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_row(cls, row: str) -> "CrashTestResult":
        """Inverse of :meth:`to_row`: one stored result row, decoded."""
        return cls.from_dict(json.loads(row))

    def canonical_dict(self) -> dict:
        """``to_dict`` minus everything tagged ``SESSION`` (and the timings).

        Two runs of the same campaign — uninterrupted, resumed after a
        crash, serial or pooled — agree on this payload.
        """
        payload = self.to_dict()
        for name in self.SESSION_FIELDS:
            del payload[name]
        del payload["check_timings"]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashTestResult":
        """Inverse of :meth:`to_dict`; a counter the payload lacks keeps its default."""
        return cls(
            workload=Workload.from_json(payload["workload"]),
            fs_type=payload["fs_type"],
            fs_model=payload["fs_model"],
            bug_reports=[BugReport.from_dict(r) for r in payload.get("bug_reports", [])],
            check_timings=dict(payload.get("check_timings", {})),
            **{name: payload[name] for name in cls.COUNTERS if name in payload},
        )

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        scenarios = ""
        if self.scenarios_tested != self.checkpoints_tested:
            scenarios = f" / {self.scenarios_tested} crash scenarios"
        return (
            f"[{status}] {self.fs_model} {self.workload.display_name()} "
            f"({self.checkpoints_tested} crash points{scenarios}, "
            f"{len(self.bug_reports)} bug report(s), {self.total_seconds * 1000:.1f} ms)"
        )


#: the §6.3 phases, in reporting order: their sum is the time spent testing
PHASE_FIELDS = ("profile_seconds", "replay_seconds", "mount_seconds",
                "fsck_seconds", "check_seconds")


def _record_of(results: Sequence[CrashTestResult]) -> type:
    """The class whose declarations govern ``results`` (a subclass may add counters)."""
    return type(results[0]) if results else CrashTestResult


def roll_up(results: Sequence[CrashTestResult], name: str):
    """Counter ``name`` aggregated over ``results`` by its declared rule."""
    rule = _record_of(results).ROLLUPS[name]
    return _ROLLUPS[rule](map(attrgetter(name), results))


def roll_ups_of(results: Sequence[CrashTestResult]) -> Dict[str, Any]:
    """Every aggregate of ``results`` by name (what a chunk keeps once its results are gone)."""
    return {aggregate: roll_up(results, name)
            for aggregate, name in _record_of(results).AGGREGATES.items()}


def merge_roll_ups(parts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The aggregates of a union of result sets, from each set's :func:`roll_ups_of`.

    Sums and counts add and maxima take the largest.  An aggregate a part
    lacks (stored before its counter existed) is its counter's 0, as the
    part's decoded results would say; one a ``counted`` subclass declares is
    kept, and one no counted class declares is dropped.  The parts are read
    once, one at a time, so a store's thousands of chunks merge in the memory
    of one.
    """
    merged = dict.fromkeys(CrashTestResult.AGGREGATES, 0)
    for part in parts:
        for name, value in part.items():
            rule = _AGGREGATE_RULES.get(name)
            if rule is not None:
                merged[name] = _MERGES[rule](merged.get(name, 0), value)
    return merged


#: a Figure-5 group: (skeleton, consequence), a report's :meth:`BugReport.group_key`
GroupKey = Tuple[Tuple[str, ...], str]
#: where a report sits in stream order: (chunk index, position in the chunk,
#: index among its result's reports)
Position = Tuple[int, int, int]
#: A Figure-5 group partial: per key, ``[raw report count, first position,
#: the report there]`` — the report is ``None`` where only its row holds it
#: (a partial that crossed a process boundary packed, or was read from a store).
GroupPartial = Dict[GroupKey, list]


def partial_of(failing: Iterable[Tuple[int, CrashTestResult]], chunk: int = 0) -> GroupPartial:
    """The group partial of chunk ``chunk``'s ``(position, result)`` pairs with bug reports.

    Given the failing results alone, so a passing result costs nothing.
    """
    partial: GroupPartial = {}
    for position, result in failing:
        for index, report in enumerate(result.bug_reports):
            key = report.group_key()
            entry = partial.get(key)
            if entry is None:
                partial[key] = [1, (chunk, position, index), report]
            else:
                entry[0] += 1
    return partial


def merge_partials(parts: Iterable[GroupPartial], into: GroupPartial) -> GroupPartial:
    """``into`` merged with ``parts`` (chunks disjoint from its own), and returned:
    counts add and the earliest first report wins.

    So the merged groups' order and representatives are what grouping every
    report in stream order gives (:func:`~repro.core.dedup.group_reports`),
    however the chunks land.
    """
    for part in parts:
        for key, (count, first, report) in part.items():
            entry = into.get(key)
            if entry is None:
                into[key] = [count, first, report]
            else:
                entry[0] += count
                if first < entry[1]:
                    entry[1], entry[2] = first, report
    return into


class Totals:
    """Mixin for a holder of ``totals``: each aggregate in it is an attribute.

    ``holder.crash_points_tested``, ``holder.prefix_hits``, ... — one per
    declared counter, under its ``aggregate`` name, computed once by whoever
    built the holder (:func:`roll_ups_of` where the results are, else
    :func:`merge_roll_ups` of parts), never on access.
    """

    totals: Dict[str, Any]

    def __getattr__(self, name: str):
        # Reached only for names normal lookup missed.  ``__dict__`` directly:
        # unpickling and deepcopy probe an instance with no fields yet.
        try:
            return self.__dict__["totals"][name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}") from None

    def roll_ups(self) -> Dict[str, Any]:
        """Every aggregate by name."""
        return dict(self.totals)
