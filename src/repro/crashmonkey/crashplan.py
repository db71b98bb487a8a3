"""Crash plans: which storage states are tested at each persistence point.

For every checkpoint marker the replay phase hands the active
:class:`CrashPlanner` the *in-flight window* the recording captured — the
writes issued after the last cache-flush barrier — and the planner enumerates
:class:`CrashScenario` objects describing the storage states a crash at that
point could leave behind.

Two planners ship:

* ``prefix`` — the classic CrashMonkey model: one state per checkpoint, every
  recorded write up to the marker applied in order.  Byte-for-byte identical
  to replaying the prefix from scratch.
* ``reorder`` — additionally explores crashes where a bounded subset of the
  in-flight (post-last-flush, non-FUA) writes never reached the platter.  A
  disk may complete cached writes in any order and lose any subset of them on
  power failure, but it never loses a write issued *before* a completed flush
  and never loses a FUA write, so those are off-limits to the planner.
* ``torn`` — a strict superset of ``reorder`` that additionally *tears*
  in-flight writes at sector granularity: blocks are 4096 bytes but disks
  persist 512-byte sectors, so a power failure mid-write leaves the first
  *k* sectors of the new payload over the block's prior content.  This is
  exactly the failure mode journaling checksums exist for, and the only one
  that exposes a checkpoint committed by a FUA superblock whose blocks were
  never flushed.  The tear budget is spent preferentially on metadata-tagged
  writes (superblock / log / checkpoint areas) before data blocks.

The reorder enumeration relies on a collapse of the scenario space: since the
final content of a block is decided solely by the *last* surviving write to
it, every (subset, permutation) of the in-flight window is state-equivalent
to choosing, independently per block, which of its writes lands last — or
none.  Enumerating per-block "drop a non-empty suffix of this block's writes"
choices therefore covers every reachable reordering state exactly once, and
``bound`` caps how many blocks may deviate from the fully-persisted baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.audit import audited_analysis
from ..analysis.mechanisms import MechanismReport, WriteClass, classify_write
from ..errors import HarnessError, WorkloadError
from ..storage.block import SECTORS_PER_BLOCK
from ..storage.io_request import IORequest

if TYPE_CHECKING:
    from .recorder import WorkloadProfile

#: Scenario id of the fully-persisted state at a checkpoint (the only state
#: the prefix plan tests, and the reorder plan's baseline).
BASELINE_SCENARIO = "prefix"


@dataclass(frozen=True)
class CrashScenario:
    """One storage state to construct and check at a checkpoint.

    ``dropped_seqs`` names the in-flight write requests (by their recorded
    sequence number) that never reached stable storage; ``torn`` holds
    ``(seq, sectors_applied)`` pairs for in-flight writes a crash tore
    mid-block (only the first ``sectors_applied`` sectors of the payload
    landed).  Both empty means the fully-persisted baseline.  Frozen and made
    of plain tuples so scenarios pickle cleanly through process-pool backends.
    """

    checkpoint_id: int
    plan: str
    dropped_seqs: Tuple[int, ...] = ()
    torn: Tuple[Tuple[int, int], ...] = ()
    description: str = ""

    @property
    def is_baseline(self) -> bool:
        return not self.dropped_seqs and not self.torn

    @property
    def scenario_id(self) -> str:
        """Stable tag used to label crash states and bug reports."""
        if self.is_baseline:
            return BASELINE_SCENARIO
        parts = []
        if self.dropped_seqs:
            parts.append("drop=" + ",".join(str(seq) for seq in self.dropped_seqs))
        if self.torn:
            parts.append("tear=" + ",".join(f"{seq}:{sectors}" for seq, sectors in self.torn))
        return f"{self.plan}[{';'.join(parts)}]"


class CrashPlanner:
    """Enumerates crash scenarios from a checkpoint's in-flight window."""

    name = "abstract"

    def for_profile(self, profile: WorkloadProfile) -> CrashPlanner:
        """The plan whose :meth:`scenarios` enumerate ``profile``'s checkpoints.

        The generator asks once per workload, before the first scenario.
        Planners that keep no per-workload state are their own plan.
        """
        return self

    def scenarios(self, checkpoint_id: int,
                  window: Sequence[IORequest]) -> Iterator[CrashScenario]:
        """Yield the scenarios to test at ``checkpoint_id``.

        ``window`` holds the write requests issued after the last flush
        barrier preceding the checkpoint marker, in issue order (FUA writes
        included — planners must never drop those).
        """
        raise NotImplementedError


class PrefixPlanner(CrashPlanner):
    """The paper's crash model: everything recorded before the marker landed."""

    name = "prefix"

    def scenarios(self, checkpoint_id: int,
                  window: Sequence[IORequest]) -> Iterator[CrashScenario]:
        yield CrashScenario(
            checkpoint_id=checkpoint_id,
            plan=self.name,
            description="all recorded writes up to the persistence point applied in order",
        )


class ReorderPlanner(CrashPlanner):
    """Bounded exploration of dropped/reordered in-flight writes.

    Args:
        bound: maximum number of distinct blocks whose final content may
            deviate from the fully-persisted baseline in one scenario.  The
            scenario count per checkpoint is
            ``1 + sum_{d=1..bound} (combinations of d blocks × per-block
            suffix choices)``, so small bounds keep the blow-up controlled.
    """

    name = "reorder"

    def __init__(self, bound: int = 2):
        if bound < 1:
            raise ValueError(f"reorder bound must be >= 1, got {bound}")
        self.bound = bound

    def scenarios(self, checkpoint_id: int,
                  window: Sequence[IORequest]) -> Iterator[CrashScenario]:
        # The baseline first: the reorder plan is a strict superset of prefix.
        yield CrashScenario(
            checkpoint_id=checkpoint_id,
            plan=self.name,
            description="baseline: every in-flight write persisted",
        )

        by_block = self._droppable_by_block(window)
        if not by_block:
            return
        blocks = list(by_block)
        max_deviating = min(self.bound, len(blocks))
        for deviating in range(1, max_deviating + 1):
            for chosen in combinations(blocks, deviating):
                # Per chosen block: drop a non-empty suffix of its writes
                # (drop-from index 0 = the block never hit the platter).
                per_block = [range(len(by_block[block])) for block in chosen]
                for drop_from in product(*per_block):
                    dropped: List[int] = []
                    for block, start in zip(chosen, drop_from):
                        dropped.extend(req.seq for req in by_block[block][start:])
                    dropped.sort()
                    yield CrashScenario(
                        checkpoint_id=checkpoint_id,
                        plan=self.name,
                        dropped_seqs=tuple(dropped),
                        description=(
                            f"crash lost {len(dropped)} in-flight write(s) "
                            f"on block(s) {', '.join(str(b) for b in chosen)}"
                        ),
                    )

    @staticmethod
    def _droppable_by_block(window: Sequence[IORequest]) -> Dict[int, List[IORequest]]:
        """Group the window's droppable writes by target block, in issue order.

        FUA writes are durable on completion and are therefore never dropped;
        the flush barrier before the window already excluded everything older.
        A FUA write also makes the earlier window writes to *its own* block
        unobservable (the FUA content overwrites whatever subset of them
        landed), so only the suffix after a block's last FUA write can produce
        a state distinct from the baseline.
        """
        by_block: Dict[int, List[IORequest]] = {}
        for request in window:
            if not request.is_write or request.block is None:
                continue
            if request.is_fua:
                by_block.pop(request.block, None)
                continue
            by_block.setdefault(request.block, []).append(request)
        return by_block


#: Tag values the fs layer stamps on writes to the commit-critical disk areas.
#: The torn planner spends its tear budget on these first: a torn data block
#: loses one file's bytes, a torn commit structure can take down recovery.
_COMMIT_AREA_TAGS = frozenset(
    {"superblock", "checkpoint", "log", "segment", "segment_summary"}
)


class TornWritePlanner(ReorderPlanner):
    """Reorder scenarios plus sector-granular torn writes.

    A strict superset of :class:`ReorderPlanner` (which is itself a strict
    superset of the prefix plan): after the baseline and the bounded dropped
    states, the planner tears up to ``torn_bound`` in-flight writes — one per
    scenario, at every sector cut ``1..SECTORS_PER_BLOCK - 1`` — so the crash
    state carries the first *k* sectors of the new payload over the block's
    prior content.

    Only each block's *last* surviving write is a tear candidate: tearing an
    earlier write is unobservable under the later one, and a block whose
    window ends in a FUA write cannot deviate from the baseline at all.
    Candidates are ordered metadata-first (commit-area tags, then other
    metadata, then data) which is where the bounded budget buys the most
    coverage — torn log/checkpoint blocks are exactly what journaling
    checksums guard against.

    Args:
        torn_bound: maximum number of distinct in-flight writes that receive
            tear scenarios per checkpoint.  Each torn write contributes
            ``SECTORS_PER_BLOCK - 1`` scenarios (one per sector cut).
        reorder_bound: passed through to the reorder superset (see
            :class:`ReorderPlanner`).
    """

    name = "torn"

    def __init__(self, torn_bound: int = 2, reorder_bound: int = 2):
        super().__init__(bound=reorder_bound)
        if torn_bound < 1:
            raise ValueError(f"torn bound must be >= 1, got {torn_bound}")
        self.torn_bound = torn_bound

    def scenarios(self, checkpoint_id: int,
                  window: Sequence[IORequest]) -> Iterator[CrashScenario]:
        yield from super().scenarios(checkpoint_id, window)
        for request in self._tear_candidates(window):
            for sectors in range(1, SECTORS_PER_BLOCK):
                yield CrashScenario(
                    checkpoint_id=checkpoint_id,
                    plan=self.name,
                    torn=((request.seq, sectors),),
                    description=(
                        f"crash tore the in-flight write to block {request.block} "
                        f"({request.tag or 'untagged'}) after {sectors} of "
                        f"{SECTORS_PER_BLOCK} sectors"
                    ),
                )

    def _tear_candidates(self, window: Sequence[IORequest]) -> List[IORequest]:
        """The bounded, metadata-first list of writes to tear."""
        candidates = [writes[-1] for writes in self._droppable_by_block(window).values()]

        def priority(request: IORequest) -> Tuple[int, int]:
            if request.tag in _COMMIT_AREA_TAGS:
                rank = 0
            elif request.is_metadata:
                rank = 1
            else:
                rank = 2
            return (rank, request.seq)

        candidates.sort(key=priority)
        return candidates[: self.torn_bound]


class MechanismPlanner(CrashPlanner):
    """Mechanism-epoch pruning: representative states instead of cross-products.

    Uses the statically inferred :class:`~repro.analysis.MechanismReport` of
    one workload (:meth:`for_profile` binds a fresh plan to it) plus a
    content classification of each checkpoint's in-flight window to emit
    only the states that are *distinguishable under the mechanism's recovery
    invariant*.  The droppable writes of a window are decomposed into five
    component kinds (a window may mix them — e.g. flashfs commits a log entry,
    data blocks and a checkpoint chunk inside one fsync epoch):

    * **journal entries** (log-area chunk envelopes): recovery scans the log
      from the start and stops at the first missing/foreign block, so every
      drop combination among an entry's blocks (and everything after it)
      collapses to "entries valid up to entry *e*".  Emitted: one
      drop-first-block state per in-flight entry.  Tears collapse too — a
      torn log block either still reassembles (baseline) or breaks the scan
      at the same entry boundary as a drop.
    * **checkpoint chunks** (checkpoint-area envelopes of one in-flight
      generation): *any* dropped chunk fails the header check and recovery
      falls back to the previous generation, so one drop-first-chunk state
      represents every drop combination.  Torn chunks are the one class
      drops cannot represent (valid header, unassemblable payload →
      unmountable), and a chunk tear has exactly two outcome classes — the
      cut truncates the envelope's meaningful content (payload cannot
      reassemble) or it preserves it (only stale tail bytes past the
      content differ) — so the representative first chunk is torn at the
      two extreme cuts (first sector only, all but the last sector), one
      per class, instead of at every cut.
    * **segment records** (LSW segment-area envelopes under a monotonic
      lsn): recovery scans the segment area to the last valid record and
      stops, so — exactly like journal entries — every drop/tear combination
      collapses to "records valid up to record *r*".  Emitted: one
      drop-first-block state per in-flight record.
    * **segment summaries** (the lazily-written segment-usage cache):
      recovery rebuilds segment usage from the record scan and never reads
      the summary block, so a dropped, rewritten or torn summary is
      unobservable — the component contributes *zero* scenarios beyond the
      baseline.
    * **data blocks** (data-area content): a crashed data block is
      distinguishable only per block — which of its in-flight writes landed
      last — never in combination with other blocks (recovery does not read
      one file's content to interpret another's).  Emitted: per data block,
      one drop-suffix state per non-empty suffix of its writes, alone.

    Replica-set transitions (the FUA-committed superblock pair of the
    replicated-metadata family) never put droppable writes in a window —
    FUA writes are durable on completion — so a window whose only writes
    are the replica pair is classified ``replica-transition`` and tests the
    baseline alone: one representative state per transition.

    Soundness is by construction, not trust: any window containing a write
    the reasoners cannot attribute (a droppable superblock or replica copy,
    envelope-shaped bytes outside their region, a rewritten log/checkpoint
    block) — and any workload whose report inferred no mechanism at all —
    is delegated verbatim to the exhaustive :class:`TornWritePlanner`,
    never silently under-tested.  Windows whose explaining evidence the
    contract auditor *demoted* are classified ``demoted`` and delegated the
    same way, but counted separately so harness results show when the
    fallback was audit-driven.  A bound plan counts its windows by kind in
    :attr:`window_kinds` and keeps the ``CrashTestResult`` counters of the
    same names (``mechanism_checkpoints``, ``mechanism_fallback_checkpoints``,
    ``mechanism_demoted_checkpoints``, ``audit_demotions``), which the harness
    gathers from it.  The exhaustive-comparison tests
    (`tests/test_mechanism_soundness.py`) pin the pruned bug set to the
    exhaustive one over the seq-1 space and a seq-2 slice.
    """

    name = "mechanism"

    #: window classifications (the keys of :attr:`window_kinds`)
    WINDOW_EMPTY = "empty"
    WINDOW_MECHANISM = "mechanism"
    WINDOW_EXHAUSTIVE = "exhaustive"
    WINDOW_DEMOTED = "demoted"
    WINDOW_REPLICA = "replica-transition"

    def __init__(self, reorder_bound: int = 2, torn_bound: int = 2,
                 report: Optional[MechanismReport] = None):
        self._fallback = TornWritePlanner(torn_bound=torn_bound, reorder_bound=reorder_bound)
        #: the audited report of the workload this plan is bound to (``None``:
        #: unbound, enumerates nothing); one with no inferred mechanism
        #: switches every checkpoint to the exhaustive fallback
        self.report = report
        #: window kind -> checkpoints enumerated under it (the ``analyze`` view)
        self.window_kinds: Dict[str, int] = {}
        self.mechanism_checkpoints = 0
        self.mechanism_fallback_checkpoints = 0
        self.mechanism_demoted_checkpoints = 0
        self.audit_demotions = report.demotions if report is not None else 0

    def for_profile(self, profile: WorkloadProfile) -> MechanismPlanner:
        """A fresh plan bound to ``profile``'s audited mechanism report.

        The analysis folds the finished recorded stream, and the contract
        auditor demotes every claim the stream's fence/FUA edges violate
        before any window is classified.
        """
        return MechanismPlanner(self._fallback.bound, self._fallback.torn_bound,
                                report=audited_analysis(profile.io_log, profile.fs_name))

    # ------------------------------------------------------------ classification

    #: droppable write class → the mechanism family whose invariant covers it
    _CLASS_FAMILIES = {
        WriteClass.JOURNAL: "journal-commit",
        WriteClass.CHECKPOINT: "checkpoint-generation",
        WriteClass.SEGMENT: "log-structured-write",
        WriteClass.SEGMENT_SUMMARY: "log-structured-write",
        WriteClass.SUPERBLOCK: "replicated-metadata",
        WriteClass.REPLICA: "replicated-metadata",
    }

    def _classify(self, window: Sequence[IORequest]) -> Tuple[str, Optional[tuple]]:
        """The window's kind and, when that is ``mechanism``, its decomposition."""
        report = self.report
        if report is None:
            raise HarnessError("an unbound mechanism plan: enumerate for_profile(profile)")
        by_block = ReorderPlanner._droppable_by_block(window)
        if not by_block:
            if any(
                request.is_write
                and classify_write(request)[0] == WriteClass.REPLICA
                for request in window
            ):
                # The window's writes are the FUA-committed replica pair:
                # one representative state per replica-set transition, which
                # is the baseline itself.
                return self.WINDOW_REPLICA, None
            return self.WINDOW_EMPTY, None
        if not (report.has_mechanisms or report.demotions):
            return self.WINDOW_EXHAUSTIVE, None
        parts = self._decompose(by_block)
        if parts is None:
            if self._touches_demoted(by_block, report):
                return self.WINDOW_DEMOTED, None
            return self.WINDOW_EXHAUSTIVE, None
        entries, chunks, segments, summaries, _ = parts
        for component, mechanism in (
            (entries, "journal-commit"),
            (chunks, "checkpoint-generation"),
            (segments, "log-structured-write"),
            (summaries, "log-structured-write"),
        ):
            if component and not report.evidence_for(mechanism):
                if report.demoted_for(mechanism):
                    return self.WINDOW_DEMOTED, None
                return self.WINDOW_EXHAUSTIVE, None
        return self.WINDOW_MECHANISM, parts

    def _touches_demoted(self, by_block: Dict[int, List[IORequest]],
                         report: MechanismReport) -> bool:
        """Whether an unattributable window holds writes of a demoted family.

        Distinguishes audit-driven fallbacks (the reasoner claimed the
        family, the auditor rejected the claim) from plain unattributed
        ones, so harness counters surface which windows the audit cost.
        """
        for writes in by_block.values():
            for request in writes:
                family = self._CLASS_FAMILIES.get(classify_write(request)[0])
                if family and report.demoted_for(family):
                    return True
        return False

    @staticmethod
    def _decompose(
        by_block: Dict[int, List[IORequest]],
    ) -> Optional[Tuple[List[List[IORequest]], List[IORequest],
                        List[List[IORequest]], List[IORequest],
                        List[Tuple[int, List[IORequest]]]]]:
        """Split the droppable writes (by block) into (journal entries, checkpoint
        chunks, segment records, segment summaries, data blocks); ``None``
        when any write defies attribution.

        Attribution is strict — the caller falls back to the exhaustive plan
        on ``None``: log/checkpoint/segment blocks rewritten within one
        window, a droppable (non-FUA) superblock or replica write,
        envelope-shaped payloads outside their region, inconsistent
        entry/chunk/record indexing, or chunks from more than one in-flight
        generation all disqualify the window.  The summary block is the one
        exception to the rewrite rule: it is a lazily-rewritten cache, and
        rewrites are as unobservable as drops.
        """
        from ..fs import layout

        journal: List[IORequest] = []
        chunk_headers: List[Tuple[dict, IORequest]] = []
        segment: List[IORequest] = []
        summaries: List[IORequest] = []
        data: List[Tuple[int, List[IORequest]]] = []
        for block in sorted(by_block):
            writes = by_block[block]
            kinds = {classify_write(w)[0] for w in writes}
            if kinds == {WriteClass.JOURNAL}:
                if len(writes) != 1:
                    return None  # append-only log never rewrites a block
                journal.append(writes[0])
            elif kinds == {WriteClass.CHECKPOINT}:
                if len(writes) != 1:
                    return None  # one chunk write per block per generation
                header = classify_write(writes[0])[1]
                chunk_headers.append((header, writes[0]))
            elif kinds == {WriteClass.SEGMENT}:
                if len(writes) != 1:
                    return None  # append-only segment never rewrites a block
                segment.append(writes[0])
            elif kinds == {WriteClass.SEGMENT_SUMMARY}:
                summaries.extend(writes)
            elif kinds == {WriteClass.DATA} and block >= layout.DATA_START:
                data.append((block, list(writes)))
            else:
                return None
        # Journal component: group into entries by envelope index (an entry
        # starts at index 0 and continues with contiguous indices, in append
        # order).
        entries = MechanismPlanner._group_by_index(journal)
        if entries is None:
            return None
        # Segment component: records group exactly like journal entries —
        # the envelope index restarts at 0 per record and runs contiguously.
        records = MechanismPlanner._group_by_index(segment)
        if records is None:
            return None
        # Checkpoint component: exactly the chunk set 0..k-1 of one in-flight
        # generation (one commit).
        if chunk_headers:
            if len({header["generation"] for header, _ in chunk_headers}) != 1:
                return None
            chunk_headers.sort(key=lambda pair: pair[0]["index"])
            if [h["index"] for h, _ in chunk_headers] != list(range(len(chunk_headers))):
                return None
        chunks = [request for _, request in chunk_headers]
        return entries, chunks, records, summaries, data

    @staticmethod
    def _group_by_index(
        writes: List[IORequest],
    ) -> Optional[List[List[IORequest]]]:
        """Group append-ordered envelope writes into index-contiguous units."""
        writes = sorted(writes, key=lambda request: request.seq)
        groups: List[List[IORequest]] = []
        expected_index = 0
        for request in writes:
            header = classify_write(request)[1]
            if header["index"] == 0:
                groups.append([request])
                expected_index = 1
            elif groups and header["index"] == expected_index:
                groups[-1].append(request)
                expected_index += 1
            else:
                return None
        return groups

    # ------------------------------------------------------------ enumeration

    def scenarios(self, checkpoint_id: int,
                  window: Sequence[IORequest]) -> Iterator[CrashScenario]:
        kind, parts = self._classify(window)
        self.window_kinds[kind] = self.window_kinds.get(kind, 0) + 1
        if kind in (self.WINDOW_EXHAUSTIVE, self.WINDOW_DEMOTED):
            # Never silently under-test: unattributed windows, workloads
            # with no inferred mechanism, and windows whose evidence the
            # contract auditor demoted all get the full exhaustive plan.
            # Audit-driven fallbacks are counted apart.
            self.mechanism_fallback_checkpoints += 1
            self.mechanism_demoted_checkpoints += kind == self.WINDOW_DEMOTED
            yield from self._fallback.scenarios(checkpoint_id, window)
            return
        self.mechanism_checkpoints += kind != self.WINDOW_EMPTY
        yield CrashScenario(
            checkpoint_id=checkpoint_id,
            plan=self.name,
            description=(
                "replica-set transition: the FUA pair is durable on "
                "completion, so the baseline is the one representative state"
                if kind == self.WINDOW_REPLICA
                else "baseline: every in-flight write persisted"
            ),
        )
        if kind in (self.WINDOW_EMPTY, self.WINDOW_REPLICA):
            return
        entries, chunks, records, _summaries, data = parts
        for unit, scan, units in (("journal epoch: commit entry", "log", entries),
                                  ("LSW epoch: segment record", "lsn", records)):
            for position, blocks in enumerate(units):
                first = blocks[0]
                yield CrashScenario(
                    checkpoint_id=checkpoint_id,
                    plan=self.name,
                    dropped_seqs=(first.seq,),
                    description=(
                        f"{unit} {position + 1}/{len(units)} never persisted "
                        f"(recovery's {scan} scan stops at block {first.block})"
                    ),
                )
        # Segment summaries contribute nothing: recovery rebuilds segment
        # usage from the record scan and never reads the summary block, so
        # every drop/rewrite/tear of it recovers identically to the baseline.
        if chunks:
            first = chunks[0]
            yield CrashScenario(
                checkpoint_id=checkpoint_id,
                plan=self.name,
                dropped_seqs=(first.seq,),
                description=(
                    f"checkpoint generation: chunk 0/{len(chunks)} never persisted "
                    "(header check fails, recovery falls back a generation)"
                ),
            )
            # Two tear representatives, one per outcome class: the minimal
            # cut truncates the envelope's content (reassembly must fail),
            # the maximal cut preserves all but the last sector (the
            # content-survives class, which can even equal the baseline when
            # the stale tail matches).  Intermediate cuts land in one of the
            # same two classes.
            for sectors in sorted({1, SECTORS_PER_BLOCK - 1}):
                yield CrashScenario(
                    checkpoint_id=checkpoint_id,
                    plan=self.name,
                    torn=((first.seq, sectors),),
                    description=(
                        f"checkpoint generation: chunk 0 torn after {sectors} of "
                        f"{SECTORS_PER_BLOCK} sectors (header valid, payload broken)"
                    ),
                )
        for block, writes in data:
            for start in range(len(writes)):
                dropped = tuple(request.seq for request in writes[start:])
                yield CrashScenario(
                    checkpoint_id=checkpoint_id,
                    plan=self.name,
                    dropped_seqs=dropped,
                    description=(
                        f"data epoch: block {block} kept "
                        f"{'no in-flight content' if start == 0 else f'write {start}'} "
                        f"of {len(writes)} in-flight write(s)"
                    ),
                )


#: Registered plan names → planner factories.  ``reorder_bound`` and
#: ``torn_bound`` are accepted by every factory so harness specs can rebuild
#: planners uniformly.
PLAN_NAMES: Tuple[str, ...] = ("prefix", "reorder", "torn", "mechanism")

#: One-line description per registered plan (the CLI's ``--list-planners``).
PLAN_DESCRIPTIONS: Dict[str, str] = {
    "prefix": "one state per persistence point: every recorded write applied in order",
    "reorder": "prefix plus bounded dropping of in-flight (post-flush, non-FUA) writes",
    "torn": "reorder plus sector-granular torn writes (metadata-first tear budget)",
    "mechanism": (
        "representative states per inferred commit-protocol epoch; exhaustive "
        "torn fallback for windows no mechanism explains"
    ),
}


def describe_planners() -> List[str]:
    """``name — description`` lines for every registered planner."""
    return [f"{name} — {PLAN_DESCRIPTIONS[name]}" for name in PLAN_NAMES]


def make_planner(name: str, reorder_bound: int = 2, torn_bound: int = 2) -> CrashPlanner:
    """Build a planner by registered name (the harness-spec rebuild path)."""
    if name == "prefix":
        return PrefixPlanner()
    if name == "reorder":
        return ReorderPlanner(bound=reorder_bound)
    if name == "torn":
        return TornWritePlanner(torn_bound=torn_bound, reorder_bound=reorder_bound)
    if name == "mechanism":
        return MechanismPlanner(reorder_bound=reorder_bound, torn_bound=torn_bound)
    raise WorkloadError(
        f"unknown crash plan {name!r}; registered planners: {', '.join(PLAN_NAMES)}"
    )
