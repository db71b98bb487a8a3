"""Per-family mechanism reasoners for the incremental analysis cursor.

The journal-commit and checkpoint-generation families live directly on
:class:`~repro.analysis.mechanisms.AnalysisCursor` (they predate this
module); the two families added here follow the Silhouette-style split of
one small state machine per mechanism:

* :class:`LogStructuredWriteReasoner` — append-only segment records carrying
  a monotonic sequence tag (lsn).  Recovery scans the segment area to the
  last valid record, so a crash can only manifest as record-boundary suffix
  loss: one dropped-record state per record replaces per-block enumeration.
* :class:`ReplicatedMetadataReasoner` — N-way mirrored metadata blocks (the
  2-way superblock pair) recovered newest-wins.  A crash is observable only
  when it straddles the replica writes of one transition, so one
  representative state per replica-set transition suffices.

Both reasoners claim *optimistically*: a batch that is not visibly sealed by
a flush is still claimed as sealed at its last write, and a mirror is
trusted once one full replica pair has been observed.  Soundness does not
rest on these claims — the cross-mechanism contract auditor
(:mod:`repro.analysis.audit`) re-checks every claim against the stream's
actual fence/FUA edges and demotes violated ones to exhaustive windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..fs import layout
from .mechanisms import MechanismEvidence

#: claimed fence edges are capped like the cursor's fence_edges list
_CLAIM_CAP = 64

LSW_INVARIANT = (
    "segment records persist append-only under a strictly increasing lsn and "
    "recovery scans to the last valid record, so a crash can only lose a "
    "record-boundary suffix — one dropped-record state per record"
)
REPLICA_INVARIANT = (
    "metadata is mirrored across a replica set committed FUA per transition "
    "and recovered newest-wins, so a crash is observable only when it "
    "straddles the replica writes of one transition — one representative "
    "state per replica-set transition"
)


@dataclass
class LogStructuredWriteReasoner:
    """Infers the log-structured-write (LSW) mechanism from segment writes."""

    writes: int = 0            #: segment-area envelope writes that parsed
    records: int = 0           #: envelope headers with index == 0
    summaries: int = 0         #: lazily-written segment-usage summary writes
    malformed: int = 0         #: segment-area writes whose envelope broke
    monotonic_breaks: int = 0  #: lsn not strictly increasing within an era
    last_lsn: int = 0
    block_min: Optional[int] = None
    block_max: Optional[int] = None
    fenced_epochs: int = 0
    unfenced_epochs: int = 0
    _in_flight: int = 0        #: segment writes since the last fence
    _batch_open: bool = False  #: a record batch awaits its sealing flush
    _batch_last_index: int = -1
    #: per-batch claimed sealing fence edges.  A batch sealed by a real flush
    #: claims that flush's stream index; an unsealed batch *optimistically*
    #: claims its own last write — a claim the contract auditor will reject,
    #: because a write index is not a fence edge.
    claimed_fences: List[int] = field(default_factory=list)

    # -- stream events ------------------------------------------------------

    def observe_segment(self, index: int, header: dict, block: int) -> None:
        self.writes += 1
        self._in_flight += 1
        self._batch_open = True
        self._batch_last_index = index
        if self.block_min is None or block < self.block_min:
            self.block_min = block
        if self.block_max is None or block > self.block_max:
            self.block_max = block
        if header.get("index") == 0:
            self.records += 1
            lsn = int(header.get("lsn", 0))
            if lsn <= self.last_lsn:
                self.monotonic_breaks += 1
            self.last_lsn = lsn

    def observe_summary(self, block: int) -> None:
        """A segment-usage summary write: part of the protocol, outside the
        durability contract — it neither opens nor closes a record batch."""
        self.summaries += 1
        if self.block_min is None or block < self.block_min:
            self.block_min = block
        if self.block_max is None or block > self.block_max:
            self.block_max = block

    def observe_malformed(self) -> None:
        self.malformed += 1
        self._close_batch_unsealed()

    def observe_other_write(self) -> None:
        """A non-segment write arrived while a record batch was open."""
        self._close_batch_unsealed()

    def note_fence(self, index: int) -> None:
        if self._batch_open:
            self._claim(index)
            self._batch_open = False
        if self._in_flight:
            self.fenced_epochs += 1
            self._in_flight = 0

    def note_checkpoint(self) -> None:
        self._close_batch_unsealed()
        if self._in_flight:
            self.unfenced_epochs += 1
            self._in_flight = 0

    def note_area_reset(self) -> None:
        """A checkpoint commit reset the segment area; the lsn era restarts."""
        self.last_lsn = 0

    def _close_batch_unsealed(self) -> None:
        if self._batch_open:
            self._claim(self._batch_last_index)
            self._batch_open = False

    def _claim(self, index: int) -> None:
        if len(self.claimed_fences) < _CLAIM_CAP:
            self.claimed_fences.append(index)

    # -- evidence -----------------------------------------------------------

    def finish(self) -> Optional[MechanismEvidence]:
        if not self.records:
            return None
        confidence = (
            self.writes / (self.writes + self.malformed)
            if self.writes + self.malformed else 0.0
        )
        return MechanismEvidence(
            mechanism="log-structured-write",
            block_ranges=((self.block_min, self.block_max),),
            fence_edges=tuple(self.claimed_fences),
            epochs=self.fenced_epochs + self.unfenced_epochs,
            unfenced_epochs=self.unfenced_epochs,
            confidence=confidence,
            invariant=LSW_INVARIANT,
        )


@dataclass
class ReplicatedMetadataReasoner:
    """Infers the replicated-metadata mechanism from the superblock pair."""

    replica_writes: int = 0    #: parsed writes to the replica superblock
    primary_commits: int = 0   #: parsed writes to the primary superblock
    transitions: int = 0       #: primary generation advances
    paired_transitions: int = 0  #: transitions whose replica caught up
    unfenced_transitions: int = 0  #: transitions whose primary was not FUA
    last_primary_generation: Optional[int] = None
    last_replica_generation: Optional[int] = None
    #: claimed commit edges: the primary write of each transition, claimed as
    #: a FUA fence edge whether or not the write actually carried FUA (the
    #: contract auditor rejects the claim when it did not).
    claimed_fences: List[int] = field(default_factory=list)

    # -- stream events ------------------------------------------------------

    def observe_primary(self, index: int, payload: Optional[dict], is_fua: bool) -> None:
        if payload is None:
            return
        self.primary_commits += 1
        generation = payload.get("generation")
        if generation is None:
            return
        last = self.last_primary_generation
        if last is not None and generation > last:
            self.transitions += 1
            if not is_fua:
                self.unfenced_transitions += 1
            if len(self.claimed_fences) < _CLAIM_CAP:
                self.claimed_fences.append(index)
            if self.last_replica_generation == generation:
                self.paired_transitions += 1
        self.last_primary_generation = generation

    def observe_replica(self, payload: Optional[dict]) -> None:
        if payload is None:
            return
        self.replica_writes += 1
        generation = payload.get("generation")
        if generation is None:
            return
        if (
            generation == self.last_primary_generation
            and generation != self.last_replica_generation
            and self.transitions
        ):
            self.paired_transitions += 1
        self.last_replica_generation = generation

    # -- evidence -----------------------------------------------------------

    def finish(self) -> Optional[MechanismEvidence]:
        if not self.replica_writes:
            return None
        # Optimistic by design: once one full replica pair has been observed
        # the mirror protocol is trusted for the whole stream.  The contract
        # auditor recomputes the actual pair coverage and demotes the claim
        # when the mirror lagged.
        confidence = 1.0 if self.paired_transitions or not self.transitions else 0.5
        return MechanismEvidence(
            mechanism="replicated-metadata",
            block_ranges=(
                (layout.SUPERBLOCK_BLOCK, layout.SUPERBLOCK_BLOCK),
                (layout.REPLICA_SUPERBLOCK_BLOCK, layout.REPLICA_SUPERBLOCK_BLOCK),
            ),
            fence_edges=tuple(self.claimed_fences),
            epochs=self.transitions,
            unfenced_epochs=self.unfenced_transitions,
            confidence=confidence,
            invariant=REPLICA_INVARIANT,
        )
