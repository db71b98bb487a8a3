"""Mechanism inference over recorded write streams.

Everything here is *content-based*: the recorded requests' payloads are
parsed with the same envelope/superblock codecs recovery itself uses
(:func:`repro.fs.layout.parse_chunk_header`, the superblock JSON).  The
debugging ``tag`` field on :class:`~repro.storage.io_request.IORequest` is
deliberately ignored — the replayer ignores it too, so an analysis keyed on
tags could claim invariants the storage state does not actually carry.

Two reasoners ship:

* **journal-commit** — log-area chunk envelopes (``B3-LOG`` magic) appended
  in sequence and persist-fenced by a cache flush form a commit epoch.
  Recovery scans the log from the start and stops at the first
  missing/foreign block, so a crash can only lose a *suffix* of committed
  entries: every drop combination inside one entry (and everything after it)
  collapses to "that entry never persisted".
* **checkpoint-generation** — checkpoint-area chunk envelopes (``B3-CKPT``)
  written to alternating A/B areas under monotonically increasing generation
  counters, committed by a FUA superblock naming the new generation.
  Recovery validates every chunk header: any dropped chunk falls back to the
  previous generation's area (one representative state), while a sector-torn
  chunk passes the header check and fails reassembly (unmountable — the
  state the ``missing_flush_before_fua`` class of bugs leaks).

The :class:`AnalysisCursor` is an incremental state machine (copyable, so the
shared replay trie can snapshot it at flush/checkpoint barriers) and
:func:`analyze_io_log` is the one-shot convenience over a full stream.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..fs import layout
from ..storage.io_request import IORequest


class WriteClass:
    """Content classes of a recorded write (string constants, not an enum,
    so reports serialize to plain JSON)."""

    JOURNAL = "journal"          #: log-area chunk envelope (``B3-LOG``)
    CHECKPOINT = "checkpoint"    #: checkpoint-area chunk envelope (``B3-CKPT``)
    SUPERBLOCK = "superblock"    #: block 0 superblock JSON (``B3-REPRO-FS``)
    SEGMENT = "segment"          #: LSW segment-record envelope (``B3-SEG``)
    SEGMENT_SUMMARY = "segment-summary"  #: lazily-written segment-usage cache
    REPLICA = "replica"          #: replica-superblock JSON at its mirror block
    DATA = "data"                #: anything else (file data, unrecognized)


def _first_sector(data) -> bytes:
    raw = data[: layout.SECTOR_SIZE] if data is not None else b""
    return raw if isinstance(raw, bytes) else bytes(raw)


def _decode_block_json(data) -> Optional[dict]:
    payload = layout.decode_block(data)  # shared with every mount: read-only
    return payload if isinstance(payload, dict) else None


#: recorded writes :func:`classify_write` remembers, oldest dropped first;
#: siblings arrive back to back, so a short window catches almost every repeat
_CLASSIFIED_CAP = 64

#: id(request) -> (weak reference to the request, answer).  Prefix-shared
#: recording hands every sibling the same ``IORequest`` objects, which the
#: analysis cursor and the planner each classify, so an
#: answer is kept per object.  The reference guards against id reuse: an entry
#: answers only the object it was made for, and pins none of its payload (a
#: strong reference would keep each request's slab chunk alive).
_classified: Dict[int, Tuple[weakref.ref, Tuple[str, Optional[dict]]]] = {}


def classify_write(request: IORequest) -> Tuple[str, Optional[dict]]:
    """Classify one recorded write by payload content.

    Returns ``(write_class, header)`` where ``header`` is the parsed chunk
    envelope identity (``{"generation", "index", "magic"}``) for journal and
    checkpoint writes, the parsed superblock JSON for superblock writes, and
    ``None`` for data.  Classification requires the payload *and* the target
    region to agree — a data block that happens to contain envelope-shaped
    bytes is not in the log area and stays data.

    Each request object is parsed once (while it stays among the last
    :data:`_CLASSIFIED_CAP` classified), so ``header`` is shared between
    callers: read it, never mutate it.
    """
    if not request.is_write or request.block is None or request.data is None:
        return WriteClass.DATA, None
    entry = _classified.get(id(request))
    if entry is not None and entry[0]() is request:
        return entry[1]
    answer = _classify_payload(request)
    if len(_classified) >= _CLASSIFIED_CAP:
        del _classified[next(iter(_classified))]
    _classified[id(request)] = (weakref.ref(request), answer)
    return answer


def _classify_payload(request: IORequest) -> Tuple[str, Optional[dict]]:
    block = request.block
    if block == layout.SUPERBLOCK_BLOCK or block == layout.REPLICA_SUPERBLOCK_BLOCK:
        payload = _decode_block_json(request.data)
        if payload is not None and payload.get("magic") == layout.SUPERBLOCK_MAGIC:
            if block == layout.SUPERBLOCK_BLOCK:
                return WriteClass.SUPERBLOCK, payload
            return WriteClass.REPLICA, payload
        return WriteClass.DATA, None
    header = layout.parse_chunk_header(_first_sector(request.data))
    in_log = layout.LOG_START <= block < layout.SEGMENT_START
    in_checkpoint = layout.CHECKPOINT_A_START <= block < layout.LOG_START
    if header is not None:
        if header["magic"] == layout.LOG_MAGIC and in_log:
            return WriteClass.JOURNAL, header
        if header["magic"] == layout.CHECKPOINT_MAGIC and in_checkpoint:
            return WriteClass.CHECKPOINT, header
        return WriteClass.DATA, None
    if block == layout.SEGMENT_SUMMARY_BLOCK:
        payload = _decode_block_json(request.data)
        if payload is not None and payload.get("magic") == layout.SEGMENT_SUMMARY_MAGIC:
            return WriteClass.SEGMENT_SUMMARY, payload
        return WriteClass.DATA, None
    segment_header = layout.parse_segment_header(_first_sector(request.data))
    in_segment = layout.SEGMENT_START <= block < layout.SEGMENT_SUMMARY_BLOCK
    if (
        segment_header is not None
        and segment_header["magic"] == layout.SEGMENT_MAGIC
        and in_segment
    ):
        return WriteClass.SEGMENT, segment_header
    return WriteClass.DATA, None


# ----------------------------------------------------------------------- report


@dataclass(frozen=True)
class MechanismEvidence:
    """One inferred persistence mechanism and the trace facts supporting it."""

    #: mechanism kind: ``"journal-commit"`` or ``"checkpoint-generation"``
    mechanism: str
    #: participating device block range(s), inclusive ``(start, end)`` pairs
    block_ranges: Tuple[Tuple[int, int], ...]
    #: stream indices of the fence edges (flush barriers / FUA commits) that
    #: persist-fence this mechanism's write groups, capped for report size
    fence_edges: Tuple[int, ...]
    #: commit epochs observed (journal entries fenced / generations committed)
    epochs: int
    #: epochs whose writes were still in flight at a persistence point — the
    #: signature of a missing-barrier bug (and the planner's pruning target)
    unfenced_epochs: int
    #: fraction of this mechanism's observed structure that parsed cleanly
    confidence: float
    #: the crash-consistency invariant the mechanism implies
    invariant: str

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "block_ranges": [list(pair) for pair in self.block_ranges],
            "fence_edges": list(self.fence_edges),
            "epochs": self.epochs,
            "unfenced_epochs": self.unfenced_epochs,
            "confidence": self.confidence,
            "invariant": self.invariant,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MechanismEvidence":
        return cls(
            mechanism=payload["mechanism"],
            block_ranges=tuple(tuple(pair) for pair in payload.get("block_ranges", [])),
            fence_edges=tuple(payload.get("fence_edges", [])),
            epochs=int(payload.get("epochs", 0)),
            unfenced_epochs=int(payload.get("unfenced_epochs", 0)),
            confidence=float(payload.get("confidence", 0.0)),
            invariant=payload.get("invariant", ""),
        )


@dataclass(frozen=True)
class AuditCheck:
    """One contract check the auditor ran against one mechanism claim."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditCheck":
        return cls(
            name=payload.get("name", ""),
            passed=bool(payload.get("passed", False)),
            detail=payload.get("detail", ""),
        )


@dataclass(frozen=True)
class AuditVerdict:
    """The contract auditor's verdict on one mechanism's claims.

    A failed verdict demotes the mechanism's evidence: its windows fall back
    to the exhaustive plan, so an unsound claim can only cost scenarios,
    never coverage.
    """

    mechanism: str
    ok: bool
    checks: Tuple[AuditCheck, ...]

    def failed_checks(self) -> Tuple[AuditCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditVerdict":
        return cls(
            mechanism=payload.get("mechanism", ""),
            ok=bool(payload.get("ok", False)),
            checks=tuple(AuditCheck.from_dict(c) for c in payload.get("checks", [])),
        )


#: schema version of :meth:`MechanismReport.to_dict` payloads.  Version 2
#: added the LSW / replicated-metadata families, audit verdicts, and demoted
#: evidence.
REPORT_SCHEMA = 2


@dataclass(frozen=True)
class MechanismReport:
    """Typed result of a static pass over one recorded write stream."""

    fs_name: str
    total_requests: int
    write_requests: int
    checkpoints: int
    evidence: Tuple[MechanismEvidence, ...]
    #: in-flight writes at persistence points not attributed to any mechanism
    #: (the planner must fall back to exhaustive enumeration for those)
    unattributed_window_writes: int
    #: contract-auditor verdicts, one per originally-claimed mechanism
    #: (empty when the report has not been audited)
    audit_verdicts: Tuple[AuditVerdict, ...] = ()
    #: evidence whose claims the auditor rejected; kept for the record but
    #: invisible to the planner, whose windows fall back to exhaustive
    demoted_evidence: Tuple[MechanismEvidence, ...] = ()

    @property
    def mechanisms(self) -> Tuple[str, ...]:
        return tuple(e.mechanism for e in self.evidence)

    @property
    def has_mechanisms(self) -> bool:
        return bool(self.evidence)

    @property
    def audited(self) -> bool:
        return bool(self.audit_verdicts)

    @property
    def demotions(self) -> int:
        return len(self.demoted_evidence)

    def evidence_for(self, mechanism: str) -> Optional[MechanismEvidence]:
        for entry in self.evidence:
            if entry.mechanism == mechanism:
                return entry
        return None

    def demoted_for(self, mechanism: str) -> Optional[MechanismEvidence]:
        for entry in self.demoted_evidence:
            if entry.mechanism == mechanism:
                return entry
        return None

    def verdict_for(self, mechanism: str) -> Optional[AuditVerdict]:
        for verdict in self.audit_verdicts:
            if verdict.mechanism == mechanism:
                return verdict
        return None

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "fs_name": self.fs_name,
            "total_requests": self.total_requests,
            "write_requests": self.write_requests,
            "checkpoints": self.checkpoints,
            "evidence": [e.to_dict() for e in self.evidence],
            "unattributed_window_writes": self.unattributed_window_writes,
            "audit_verdicts": [v.to_dict() for v in self.audit_verdicts],
            "demoted_evidence": [e.to_dict() for e in self.demoted_evidence],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MechanismReport":
        return cls(
            fs_name=payload.get("fs_name", ""),
            total_requests=int(payload.get("total_requests", 0)),
            write_requests=int(payload.get("write_requests", 0)),
            checkpoints=int(payload.get("checkpoints", 0)),
            evidence=tuple(
                MechanismEvidence.from_dict(e) for e in payload.get("evidence", [])
            ),
            unattributed_window_writes=int(payload.get("unattributed_window_writes", 0)),
            audit_verdicts=tuple(
                AuditVerdict.from_dict(v) for v in payload.get("audit_verdicts", [])
            ),
            demoted_evidence=tuple(
                MechanismEvidence.from_dict(e) for e in payload.get("demoted_evidence", [])
            ),
        )

    def summary(self) -> str:
        """Human-readable report (the ``analyze`` subcommand's output)."""
        lines = [
            f"mechanism report — {self.fs_name or 'unknown fs'}: "
            f"{self.total_requests} recorded requests "
            f"({self.write_requests} writes, {self.checkpoints} persistence points)",
        ]
        if not self.evidence and not self.demoted_evidence:
            lines.append(
                "  no persistence mechanism inferred — the mechanism planner "
                "falls back to exhaustive enumeration"
            )
        for entry in self.evidence:
            ranges = ", ".join(f"{a}..{b}" for a, b in entry.block_ranges)
            lines.append(
                f"  {entry.mechanism}: {entry.epochs} epoch(s), "
                f"{entry.unfenced_epochs} unfenced, blocks [{ranges}], "
                f"confidence {entry.confidence:.2f}"
            )
            lines.append(f"    invariant: {entry.invariant}")
        for verdict in self.audit_verdicts:
            if verdict.ok:
                lines.append(f"  audit {verdict.mechanism}: ok "
                             f"({len(verdict.checks)} checks passed)")
            else:
                failed = "; ".join(
                    f"{check.name}: {check.detail}" for check in verdict.failed_checks()
                )
                lines.append(
                    f"  audit {verdict.mechanism}: DEMOTED to exhaustive — {failed}"
                )
        if self.unattributed_window_writes:
            lines.append(
                f"  {self.unattributed_window_writes} in-flight write(s) at "
                "persistence points are unattributed: those checkpoints keep "
                "the exhaustive plan"
            )
        return "\n".join(lines)


_JOURNAL_INVARIANT = (
    "log entries persist in append order and recovery stops at the first "
    "missing or foreign block, so a crash can only lose a suffix of "
    "committed entries — one representative state per entry boundary"
)
_CHECKPOINT_INVARIANT = (
    "a FUA superblock commits generation g in one area only after that "
    "area's chunks are durable; a dropped chunk is detected by its header "
    "and recovery falls back to generation g-1, while a sector-torn chunk "
    "passes the header check and fails reassembly (unmountable)"
)


# ----------------------------------------------------------------------- cursor


def _make_lsw_reasoner():
    # Imported lazily: reasoners.py imports the evidence types from this
    # module, so a top-level import here would be circular.
    from .reasoners import LogStructuredWriteReasoner
    return LogStructuredWriteReasoner()


def _make_replica_reasoner():
    from .reasoners import ReplicatedMetadataReasoner
    return ReplicatedMetadataReasoner()


#: cursor fields that hold mutable/nested state and therefore need explicit
#: handling in :meth:`AnalysisCursor.copy`
_CURSOR_NESTED_FIELDS = ("fence_edges", "lsw", "replicas")


@dataclass
class AnalysisCursor:
    """Incremental mechanism inference, fed one recorded request at a time.

    Copyable: the shared replay trie snapshots the cursor at flush and
    checkpoint barriers so sibling workloads resume the analysis on their
    shared stream prefix instead of re-parsing it.
    """

    total_requests: int = 0
    write_requests: int = 0
    checkpoints: int = 0

    # journal-commit reasoner state
    journal_writes: int = 0
    journal_entries: int = 0        #: envelope headers with index == 0
    journal_malformed: int = 0      #: log-area writes whose envelope broke
    journal_fenced_epochs: int = 0
    journal_unfenced_epochs: int = 0
    journal_block_min: Optional[int] = None
    journal_block_max: Optional[int] = None
    _journal_in_flight: int = 0     #: journal writes since the last fence

    # checkpoint-generation reasoner state
    checkpoint_writes: int = 0
    superblock_commits: int = 0
    generation_breaks: int = 0      #: superblock sequence not +1/ping-pong
    checkpoint_fenced_epochs: int = 0
    checkpoint_unfenced_epochs: int = 0
    checkpoint_block_min: Optional[int] = None
    checkpoint_block_max: Optional[int] = None
    _checkpoint_in_flight: int = 0  #: checkpoint-chunk writes since last fence
    _last_generation: Optional[int] = None
    _last_area: Optional[str] = None

    #: in-flight writes at persistence points attributed to no mechanism
    unattributed_window_writes: int = 0
    _data_in_flight: int = 0

    #: stream indices of observed fence edges (flushes / FUA commits), capped
    fence_edges: List[int] = field(default_factory=list)

    # per-family reasoners for the LSW and replicated-metadata mechanisms
    lsw: "LogStructuredWriteReasoner" = field(default_factory=_make_lsw_reasoner)  # noqa: F821
    replicas: "ReplicatedMetadataReasoner" = field(default_factory=_make_replica_reasoner)  # noqa: F821

    _FENCE_EDGE_CAP = 64

    def copy(self) -> "AnalysisCursor":
        twin = AnalysisCursor(**{
            name: value for name, value in self.__dict__.items()
            if name not in _CURSOR_NESTED_FIELDS
        })
        twin.fence_edges = list(self.fence_edges)
        twin.lsw = self.lsw.copy()
        twin.replicas = self.replicas.copy()
        return twin

    # ------------------------------------------------------------------ feeding

    def feed(self, request: IORequest) -> None:
        """Consume the next recorded request, in stream order."""
        index = self.total_requests
        self.total_requests += 1
        if request.is_flush:
            self._fence(index)
            return
        if request.is_checkpoint:
            self.checkpoints += 1
            # A persistence point with mechanism writes still in flight is an
            # unfenced commit epoch — exactly what the planner prunes.
            if self._journal_in_flight:
                self.journal_unfenced_epochs += 1
                self._journal_in_flight = 0
            if self._checkpoint_in_flight:
                self.checkpoint_unfenced_epochs += 1
                self._checkpoint_in_flight = 0
            self.lsw.note_checkpoint()
            self.unattributed_window_writes += self._data_in_flight
            self._data_in_flight = 0
            return
        if not request.is_write:
            return
        self.write_requests += 1
        write_class, header = classify_write(request)
        if write_class not in (WriteClass.SEGMENT, WriteClass.SEGMENT_SUMMARY):
            # Any non-segment write closes an open record batch: the batch
            # was not sealed by a flush before other traffic followed it.
            # (The lazily-written summary is part of the segment protocol
            # and rides along without affecting the batch.)
            self.lsw.observe_other_write()
        if write_class == WriteClass.JOURNAL:
            self.journal_writes += 1
            self._journal_in_flight += 1
            if header is not None and header["index"] == 0:
                self.journal_entries += 1
            self._track_journal_block(request.block)
        elif write_class == WriteClass.CHECKPOINT:
            self.checkpoint_writes += 1
            self._checkpoint_in_flight += 1
            self._track_checkpoint_block(request.block)
        elif write_class == WriteClass.SEGMENT:
            self.lsw.observe_segment(index, header, request.block)
        elif write_class == WriteClass.SEGMENT_SUMMARY:
            self.lsw.observe_summary(request.block)
        elif write_class == WriteClass.REPLICA:
            self.replicas.observe_replica(header)
            if request.is_fua:
                self._note_fence_edge(index)
        elif write_class == WriteClass.SUPERBLOCK:
            self.superblock_commits += 1
            self._observe_superblock(header)
            self.replicas.observe_primary(index, header, bool(request.is_fua))
            # A committed superblock names a new generation: the segment
            # area resets with it, so the lsn era restarts.
            self.lsw.note_area_reset()
            if request.is_fua:
                # The FUA superblock is itself a fence edge for its own block
                # (it is durable on completion), but it does *not* fence the
                # checkpoint chunks before it — only a flush does that.
                self._note_fence_edge(index)
        else:
            block = request.block or 0
            if layout.LOG_START <= block < layout.SEGMENT_START:
                # A log-area write whose envelope did not parse: the journal
                # structure is broken, not merely absent.
                self.journal_malformed += 1
            elif layout.SEGMENT_START <= block < layout.REPLICA_SUPERBLOCK_BLOCK:
                self.lsw.observe_malformed()
            self._data_in_flight += 1

    def feed_all(self, requests: Iterable[IORequest]) -> "AnalysisCursor":
        for request in requests:
            self.feed(request)
        return self

    def _fence(self, index: int) -> None:
        self._note_fence_edge(index)
        self.lsw.note_fence(index)
        if self._journal_in_flight:
            self.journal_fenced_epochs += 1
            self._journal_in_flight = 0
        if self._checkpoint_in_flight:
            self.checkpoint_fenced_epochs += 1
            self._checkpoint_in_flight = 0
        self._data_in_flight = 0

    def _note_fence_edge(self, index: int) -> None:
        if len(self.fence_edges) < self._FENCE_EDGE_CAP:
            self.fence_edges.append(index)

    def _track_journal_block(self, block: int) -> None:
        if self.journal_block_min is None or block < self.journal_block_min:
            self.journal_block_min = block
        if self.journal_block_max is None or block > self.journal_block_max:
            self.journal_block_max = block

    def _track_checkpoint_block(self, block: int) -> None:
        if self.checkpoint_block_min is None or block < self.checkpoint_block_min:
            self.checkpoint_block_min = block
        if self.checkpoint_block_max is None or block > self.checkpoint_block_max:
            self.checkpoint_block_max = block

    def _observe_superblock(self, payload: Optional[dict]) -> None:
        if payload is None:
            return
        generation = payload.get("generation")
        area = payload.get("checkpoint_area")
        if self._last_generation is not None and generation is not None:
            # Shadow-header ping-pong: the generation advances by one and the
            # area alternates.  A repeated commit of the *same* generation is
            # the mount-time dirty-superblock rewrite, not a break.
            if generation > self._last_generation and not (
                generation == self._last_generation + 1 and area != self._last_area
            ):
                self.generation_breaks += 1
        if generation is not None:
            self._last_generation = generation
            self._last_area = area

    # ------------------------------------------------------------------ report

    def finish(self, fs_name: str = "") -> MechanismReport:
        """Build the report from everything fed so far (cursor stays usable)."""
        evidence: List[MechanismEvidence] = []
        if self.journal_entries:
            parsed = self.journal_writes
            broken = self.journal_malformed
            confidence = parsed / (parsed + broken) if parsed + broken else 0.0
            evidence.append(MechanismEvidence(
                mechanism="journal-commit",
                block_ranges=((self.journal_block_min, self.journal_block_max),),
                fence_edges=tuple(self.fence_edges),
                epochs=self.journal_fenced_epochs + self.journal_unfenced_epochs,
                unfenced_epochs=self.journal_unfenced_epochs,
                confidence=confidence,
                invariant=_JOURNAL_INVARIANT,
            ))
        if self.superblock_commits and self.checkpoint_writes:
            breaks = self.generation_breaks
            confidence = (
                (self.superblock_commits - breaks) / self.superblock_commits
                if self.superblock_commits else 0.0
            )
            block_ranges: List[Tuple[int, int]] = [
                (self.checkpoint_block_min, self.checkpoint_block_max),
                (layout.SUPERBLOCK_BLOCK, layout.SUPERBLOCK_BLOCK),
            ]
            evidence.append(MechanismEvidence(
                mechanism="checkpoint-generation",
                block_ranges=tuple(block_ranges),
                fence_edges=tuple(self.fence_edges),
                epochs=self.checkpoint_fenced_epochs + self.checkpoint_unfenced_epochs,
                unfenced_epochs=self.checkpoint_unfenced_epochs,
                confidence=confidence,
                invariant=_CHECKPOINT_INVARIANT,
            ))
        for reasoner in (self.lsw, self.replicas):
            family_evidence = reasoner.finish()
            if family_evidence is not None:
                evidence.append(family_evidence)
        return MechanismReport(
            fs_name=fs_name,
            total_requests=self.total_requests,
            write_requests=self.write_requests,
            checkpoints=self.checkpoints,
            evidence=tuple(evidence),
            unattributed_window_writes=self.unattributed_window_writes,
        )


def analyze_io_log(io_log: Sequence[IORequest], fs_name: str = "") -> MechanismReport:
    """One-shot static analysis of a full recorded stream."""
    return AnalysisCursor().feed_all(io_log).finish(fs_name)
