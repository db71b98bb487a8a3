"""Cross-mechanism contract auditor.

The per-family reasoners claim *optimistically* (an unsealed record batch
still claims a sealing fence; a mirror is trusted after one observed pair).
Soundness therefore cannot rest on the reasoners alone: before the
:class:`~repro.crashmonkey.crashplan.MechanismPlanner` consumes a
:class:`~repro.analysis.mechanisms.MechanismReport`, this module re-checks
every claim in it against the recorded stream itself and *demotes* evidence
whose claims do not hold.  Demoted evidence moves to
``report.demoted_evidence``; the planner turns the windows that depended on
it into exhaustive (verbatim torn-write) windows, so a wrong claim costs
scenarios, never bugs.

Four checks per evidence, all recomputed from the stream — its raw fence
edges, and an analysis cursor fed all of it (the one that built the
report, when the caller hands it over):

* ``fence-edges-exist`` — every claimed fence edge is an actual fence in the
  stream (a flush request or an FUA write completion).  A reasoner that
  claimed a plain write index as its sealing fence fails here.
* ``block-ranges`` — the block ranges claimed by distinct mechanisms are
  pairwise disjoint, except for ranges that are *identical* and explicitly
  shared (the superblock pair, which both the checkpoint-generation and the
  replicated-metadata families legitimately cover).
* ``epochs-monotonic`` — the family's sequence tag really was monotonic
  (journal/segment sequence numbers strictly increasing within an era,
  superblock and replica generations never stepping backwards), and the
  claimed epoch count matches the recomputed one.
* ``confidence-calibration`` — the claimed confidence does not exceed the
  attribution coverage recomputed from the stream (how many of the family's
  writes actually parsed, how many replica transitions actually paired).

The auditor never *adds* evidence and never raises a confidence: it can only
keep a claim or demote it, which keeps the audited report a conservative
refinement of the reasoners' output.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Set, Tuple

from .mechanisms import (
    AnalysisCursor,
    AuditCheck,
    AuditVerdict,
    MechanismEvidence,
    MechanismReport,
)

#: identical block ranges that more than one mechanism may legitimately
#: claim: the primary superblock (named by both the checkpoint-generation
#: and the replicated-metadata families) and its replica.
_SHARED_RANGES: Set[Tuple[int, int]] = set()


def _init_shared_ranges() -> None:
    from ..fs import layout

    _SHARED_RANGES.add((layout.SUPERBLOCK_BLOCK, layout.SUPERBLOCK_BLOCK))
    _SHARED_RANGES.add(
        (layout.REPLICA_SUPERBLOCK_BLOCK, layout.REPLICA_SUPERBLOCK_BLOCK)
    )


_init_shared_ranges()

#: slack on the confidence comparison so float formatting never demotes
_CONFIDENCE_SLACK = 0.01


def actual_fence_edges(io_log: Sequence) -> Set[int]:
    """The stream's real fence edges: flush requests and FUA writes.

    Indices match the analysis cursor's numbering (position in the stream).
    """
    fences: Set[int] = set()
    for index, request in enumerate(io_log):
        if request.is_flush:
            fences.add(index)
        elif request.is_write and request.is_fua:
            fences.add(index)
    return fences


def _ranges_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    return a_lo <= b_hi and b_lo <= a_hi


def _recomputed_coverage(mechanism: str, cursor: AnalysisCursor) -> float:
    """Attribution coverage for ``mechanism`` recomputed from the stream."""
    if mechanism == "journal-commit":
        parsed, broken = cursor.journal_writes, cursor.journal_malformed
        return parsed / (parsed + broken) if parsed + broken else 0.0
    if mechanism == "checkpoint-generation":
        commits = cursor.superblock_commits
        return (commits - cursor.generation_breaks) / commits if commits else 0.0
    if mechanism == "log-structured-write":
        lsw = cursor.lsw
        total = lsw.writes + lsw.malformed
        return lsw.writes / total if total else 0.0
    if mechanism == "replicated-metadata":
        replicas = cursor.replicas
        if not replicas.transitions:
            return 1.0 if replicas.replica_writes else 0.0
        return replicas.paired_transitions / replicas.transitions
    return 0.0


def _monotonic_breaks(mechanism: str, cursor: AnalysisCursor) -> int:
    """Sequence-tag breaks for ``mechanism`` recomputed from the stream."""
    if mechanism == "journal-commit":
        return cursor.journal_malformed
    if mechanism == "checkpoint-generation":
        return cursor.generation_breaks
    if mechanism == "log-structured-write":
        return cursor.lsw.monotonic_breaks
    if mechanism == "replicated-metadata":
        # Generations are tracked newest-wins; a replica ahead of its primary
        # would have registered as an unpaired transition instead, so the
        # break signal here is a primary generation that stepped backwards —
        # which _observe-style tracking folds into generation_breaks.
        return cursor.generation_breaks
    return 0


def _recomputed_epochs(mechanism: str, cursor: AnalysisCursor) -> int:
    if mechanism == "journal-commit":
        return cursor.journal_fenced_epochs + cursor.journal_unfenced_epochs
    if mechanism == "checkpoint-generation":
        return cursor.checkpoint_fenced_epochs + cursor.checkpoint_unfenced_epochs
    if mechanism == "log-structured-write":
        return cursor.lsw.fenced_epochs + cursor.lsw.unfenced_epochs
    if mechanism == "replicated-metadata":
        return cursor.replicas.transitions
    return 0


def _audit_evidence(
    evidence: MechanismEvidence,
    others: Sequence[MechanismEvidence],
    fences: Set[int],
    cursor: AnalysisCursor,
) -> AuditVerdict:
    checks: List[AuditCheck] = []

    # 1. Every claimed fence edge must be a real one.
    bogus = sorted(set(evidence.fence_edges) - fences)
    checks.append(AuditCheck(
        name="fence-edges-exist",
        passed=not bogus,
        detail=(
            "all %d claimed fence edges are real" % len(evidence.fence_edges)
            if not bogus else
            "claimed fence edges %s are plain writes, not fences"
            % (bogus[:4],)
        ),
    ))

    # 2. Block ranges disjoint from every other mechanism's, unless the
    #    overlapping ranges are identical and explicitly shared.
    conflicts: List[str] = []
    for other in others:
        for mine in evidence.block_ranges:
            for theirs in other.block_ranges:
                if not _ranges_overlap(mine, theirs):
                    continue
                if mine == theirs and mine in _SHARED_RANGES:
                    continue
                conflicts.append(
                    "%s vs %s of %s" % (mine, theirs, other.mechanism)
                )
    checks.append(AuditCheck(
        name="block-ranges",
        passed=not conflicts,
        detail=(
            "ranges disjoint (shared superblock pair exempt)"
            if not conflicts else
            "overlapping claims: " + "; ".join(conflicts[:3])
        ),
    ))

    # 3. The family's sequence tag really was monotonic, and the claimed
    #    epoch count is the one the stream supports.
    breaks = _monotonic_breaks(evidence.mechanism, cursor)
    expected_epochs = _recomputed_epochs(evidence.mechanism, cursor)
    monotonic_ok = breaks == 0 and evidence.epochs == expected_epochs
    checks.append(AuditCheck(
        name="epochs-monotonic",
        passed=monotonic_ok,
        detail=(
            "%d epochs, sequence tags monotonic" % evidence.epochs
            if monotonic_ok else
            "%d sequence breaks, claimed %d epochs vs %d recomputed"
            % (breaks, evidence.epochs, expected_epochs)
        ),
    ))

    # 4. Confidence no higher than the recomputed attribution coverage.
    coverage = _recomputed_coverage(evidence.mechanism, cursor)
    calibrated = evidence.confidence <= coverage + _CONFIDENCE_SLACK
    checks.append(AuditCheck(
        name="confidence-calibration",
        passed=calibrated,
        detail=(
            "confidence %.2f within coverage %.2f" % (evidence.confidence, coverage)
            if calibrated else
            "confidence %.2f exceeds recomputed coverage %.2f"
            % (evidence.confidence, coverage)
        ),
    ))

    return AuditVerdict(
        mechanism=evidence.mechanism,
        ok=all(check.passed for check in checks),
        checks=tuple(checks),
    )


def audit_report(report: MechanismReport, io_log: Sequence,
                 cursor: Optional[AnalysisCursor] = None) -> MechanismReport:
    """Second static pass: check every claim, demote violated evidence.

    Returns a new report whose ``evidence`` holds only the claims that
    survived all four checks; the rest move to ``demoted_evidence`` with a
    failed :class:`AuditVerdict` explaining why.  Auditing an already-audited
    report is a no-op refinement (verdicts are recomputed, surviving
    evidence can only shrink).

    ``cursor`` is an :class:`AnalysisCursor` already fed all of ``io_log``
    (the one the report was inferred from); without it the stream is
    fed into a fresh one.  The fence edges are always recomputed from the
    raw log.
    """
    if not report.evidence:
        return dataclasses.replace(report, audit_verdicts=(), demoted_evidence=report.demoted_evidence)
    fences = actual_fence_edges(io_log)
    if cursor is None:
        cursor = AnalysisCursor().feed_all(io_log)
    verdicts: List[AuditVerdict] = []
    kept: List[MechanismEvidence] = []
    demoted: List[MechanismEvidence] = list(report.demoted_evidence)
    for evidence in report.evidence:
        others = [e for e in report.evidence if e is not evidence]
        verdict = _audit_evidence(evidence, others, fences, cursor)
        verdicts.append(verdict)
        if verdict.ok:
            kept.append(evidence)
        else:
            demoted.append(evidence)
    return dataclasses.replace(
        report,
        evidence=tuple(kept),
        audit_verdicts=tuple(verdicts),
        demoted_evidence=tuple(demoted),
    )


def audited_analysis(io_log: Sequence, fs_name: str = "") -> MechanismReport:
    """``io_log``'s mechanism report, audited: one cursor is fed the stream
    once and serves both the inference and the audit."""
    cursor = AnalysisCursor().feed_all(io_log)
    return audit_report(cursor.finish(fs_name), io_log, cursor)
