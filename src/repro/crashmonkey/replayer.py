"""Crash-state generator (CrashMonkey phase 2).

A crash state is a storage state a crash could leave behind at a persistence
point: the base disk image plus some crash-plan-chosen portion of the recorded
write stream.  Mounting the crash state runs the file system's own recovery
code (log/journal replay); if that fails, the crash state is un-mountable and
``fsck`` is consulted, exactly as in the paper.

Construction is *incremental*: one cursor walks the recorded stream exactly
once, applying every write to a chained-overlay :class:`CowDevice` and forking
an O(1) snapshot at each flush barrier and checkpoint marker.  Each crash
state then mounts on a private fork, so generating all states of a workload
replays each recorded write once — linear in the log length — instead of
re-scanning the prefix per checkpoint.

Which states exist at a checkpoint is decided by the pluggable crash plan
(:mod:`repro.crashmonkey.crashplan`): the ``prefix`` plan reproduces the
classic one-state-per-checkpoint model byte for byte, while the ``reorder``
plan additionally explores crashes that lose bounded subsets of the in-flight
(post-last-flush, non-FUA) writes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..analysis.audit import audit_report
from ..analysis.mechanisms import AnalysisCursor, MechanismReport
from ..errors import HarnessError, SpillMissError, UnmountableError
from ..fs import fsck
from ..fs.registry import get_fs_class
from ..storage.block import BLOCK_SIZE, compose_torn_block, pad_block
from ..storage.cow_device import CowDevice, ReadLog
from ..storage.io_request import IORequest
from ..storage.spill import SpineStore, flatten_requests, freeze_overlay
from .crashplan import CrashPlanner, CrashScenario, PrefixPlanner
from .oracle import Oracle
from .recorder import WorkloadProfile
from .sightings import SightingStore
from .tracker import TrackerView

if TYPE_CHECKING:
    from .report import Mismatch


@dataclass(eq=False)
class CrashVerdict:
    """What mounting and checking one crash state concluded.

    One verdict is shared by the state that was mounted (the representative)
    and every later state of the same checkpoint that makes recovery and the
    checks read the same bytes (its twins) — later in the same workload's
    pass, or in the pass of a sibling workload that shares the checkpoint
    record and its expectation objects.  Recovery and every check are
    deterministic functions of the device blocks they read, the checkpoint's
    oracle and its tracker view, so equal reads at one checkpoint mean an
    equal verdict by construction.
    """

    #: whether recovery mounted the representative
    mountable: bool
    #: the window blocks mounting, fsck and the checks read from the representative;
    #: complete, and sealed, once :attr:`mismatches` is filed.  ``None`` for a
    #: state constructed outside any memo
    reads: Optional[ReadLog] = None
    _mismatches: Optional[List["Mismatch"]] = None

    @property
    def mismatches(self) -> Optional[List["Mismatch"]]:
        """The check pipeline's findings on the representative, filed by the
        harness once it has checked it and read back for each twin.  ``None``
        until filed: such a verdict is never handed to another workload, and
        nothing is compared against its reads."""
        return self._mismatches

    @mismatches.setter
    def mismatches(self, found: List["Mismatch"]) -> None:
        self._mismatches = found
        if self.reads is not None:
            self.reads.seal()


@dataclass
class CrashState:
    """A recovered (or unrecoverable) crash state for one crash scenario."""

    checkpoint_id: int
    crash_point: str
    #: builds the device realizing the scenario; run on the first read of
    #: :attr:`device`, which a twin never needs
    build_device: Callable[[], CowDevice] = field(repr=False)
    fs: Optional[object] = None                #: mounted file system, if recovery succeeded
    mount_error: Optional[UnmountableError] = None
    fsck_report: Optional[fsck.FsckReport] = None
    fsck_recovered_fs: Optional[object] = None
    #: the crash-plan scenario this state realizes (None = plain prefix state)
    scenario: Optional[CrashScenario] = None
    #: phase timing: constructing the device / mounting (recovery) / fsck
    replay_seconds: float = 0.0
    mount_seconds: float = 0.0
    fsck_seconds: float = 0.0
    #: ``device.overlay_bytes()`` as constructed (before any mount wrote to it)
    overlay_bytes: int = 0
    #: verdict slot shared with the read-equivalent states of this checkpoint
    verdict: Optional[CrashVerdict] = None
    #: True when an earlier state of this checkpoint that agrees with this
    #: one on every block its recovery and checks read was already mounted:
    #: this state carries its own scenario but was neither built, mounted nor
    #: fsck'ed, and the representative's verdict stands for it
    is_twin: bool = False
    #: twin whose representative was mounted and checked by an *earlier
    #: workload* sharing this checkpoint's record (how often that happens
    #: depends on what the replay trail still holds: session telemetry)
    inherited: bool = False
    _device: Optional[CowDevice] = field(default=None, init=False, repr=False)

    @property
    def device(self) -> CowDevice:
        if self._device is None:
            self._device = self.build_device()
        return self._device

    @property
    def mountable(self) -> bool:
        if self.is_twin:
            return self.verdict.mountable
        return self.fs is not None

    @property
    def scenario_id(self) -> str:
        """Stable tag of the scenario that produced this state."""
        return self.scenario.scenario_id if self.scenario is not None else "prefix"

    def describe(self) -> str:
        tag = "" if self.scenario_id == "prefix" else f" [{self.scenario_id}]"
        if self.is_twin:
            outcome = "mounted" if self.mountable else "UNMOUNTABLE"
            return (
                f"crash state @ {self.checkpoint_id}{tag}: read-equivalent to an "
                f"already-checked state of this checkpoint ({outcome})"
            )
        if self.mountable:
            return (
                f"crash state @ {self.checkpoint_id}{tag}: mounted, "
                f"recovery ran={self.fs.recovery_ran}"
            )
        detail = str(self.mount_error) if self.mount_error else "unknown mount failure"
        return f"crash state @ {self.checkpoint_id}{tag}: UNMOUNTABLE ({detail})"


#: a crash state's content key: what it holds in each of the window's blocks
ContentKey = Tuple[bytes, ...]


class _VerdictTable:
    """The verdicts filed under one oracle and one tracker view.

    ``exact`` maps a representative's full content key to its verdict.  Once
    a representative's findings are filed, its verdict is also indexed under
    *what it read*: the positions (in the key) of the window blocks in its
    read log, and its content at those positions.  A later state that agrees
    with it there made recovery take the same first read, hence the same
    branch, hence the same second read ... hence the same verdict — whatever
    it holds in the blocks nobody looked at.  The restricted keys share their
    ``bytes`` with the exact one, so the index costs tuples, not content.
    """

    def __init__(self, positions: Dict[int, int]):
        self._positions = positions
        self.exact: Dict[ContentKey, CrashVerdict] = {}
        #: read positions -> content at those positions -> verdict
        self._by_reads: Dict[Tuple[int, ...], Dict[ContentKey, CrashVerdict]] = {}
        #: representatives mounted but not yet indexed by their reads
        self._unindexed: List[Tuple[ContentKey, CrashVerdict]] = []

    def file(self, key: ContentKey, verdict: CrashVerdict) -> None:
        self.exact[key] = verdict
        self._unindexed.append((key, verdict))

    def find(self, key: ContentKey, fresh: Set[CrashVerdict]) -> Optional[CrashVerdict]:
        """The verdict that stands for a state with content ``key``, if any.

        ``fresh`` holds the verdicts the calling pass has itself produced or
        already taken.  A byte-identical representative is trusted when it is
        one of those or its findings are filed; a merely read-equivalent one
        only once they are filed, because the checks' reads are part of what
        it must agree on and an unfiled log may not hold them yet.
        """
        verdict = self.exact.get(key)
        if verdict is not None:
            return verdict if verdict in fresh or verdict.mismatches is not None else None
        if self._unindexed:
            self._index_filed()
        for positions, filed in self._by_reads.items():
            verdict = filed.get(tuple([key[position] for position in positions]))
            if verdict is not None:
                return verdict
        return None

    def _index_filed(self) -> None:
        unfiled = []
        for key, verdict in self._unindexed:
            if verdict.mismatches is None:
                unfiled.append((key, verdict))
                continue
            positions = tuple(sorted(self._positions[block] for block in verdict.reads.blocks))
            verdict.reads = None  # sealed and projected: the set has served
            self._by_reads.setdefault(positions, {}).setdefault(
                tuple([key[position] for position in positions]), verdict)
        self._unindexed = unfiled


class _VerdictMemo:
    """Verdicts of the distinct crash states seen at one checkpoint.

    Every scenario of a checkpoint derives from the same ``stable`` fork plus
    a subset of ``window``'s writes (the baseline is ``stable`` plus all of
    them), so two scenario devices are byte-identical iff the visible content
    of the window's written blocks is equal, and every other block is shared.
    The key is exactly that content — never the scenario's shape — and
    :meth:`fold` computes it from ``stable`` and the scenario alone, so a
    state that turns out to be a twin never builds a device.  The memo holds
    keys and verdicts only, never a scenario device or a mounted fs.

    The memo lives on its :class:`_CheckpointRecord`, so it is shared by
    exactly the workloads that share the record: siblings resuming the
    replay trail.  A verdict also depends on the checkpoint's oracle and
    tracker view, so the memo remembers the two *objects* it was filled
    under and starts over when handed any others (:meth:`verdicts_under`);
    prefix-shared recording gives siblings the same objects, and anything
    that rebuilt them — a spilled spine node, from-scratch recording —
    gives new ones.
    """

    def __init__(self, stable: CowDevice, window: Tuple[IORequest, ...]):
        self._stable = stable
        self._writes = [request for request in window if request.is_write]
        self.blocks = sorted({request.block for request in self._writes})
        #: where each window block sits in a key
        self.positions = {block: position for position, block in enumerate(self.blocks)}
        #: block-sized ``bytes`` of each window write (by seq) and of
        #: ``stable``'s content of each window block (by block): built on
        #: first use, then shared by every key that contains them
        self._payloads: Dict[int, bytes] = {}
        self._prior: Dict[int, bytes] = {}
        #: window blocks ``stable`` already holds in its overlay
        self._overlaid = frozenset(block for block in self.blocks if stable.modifies(block))
        self._oracle: Optional[Oracle] = None
        self._view: Optional[TrackerView] = None
        self._table = _VerdictTable(self.positions)

    def key(self, device: CowDevice) -> ContentKey:
        """Content of the window's blocks as ``device`` exposes them: what the
        key *is*.  The generator never calls this — :meth:`fold` gets the same
        tuple without a device — the tests hold the two against each other."""
        return tuple([bytes(device.read_block(block)) for block in self.blocks])

    def _prior_content(self, block: int) -> bytes:
        content = self._prior.get(block)
        if content is None:
            content = self._prior[block] = bytes(self._stable.read_block(block))
        return content

    def fold(self, scenario: Optional[CrashScenario]) -> Tuple[ContentKey, int]:
        """``key(device)`` and ``device.overlay_bytes()`` of the device that
        realizes ``scenario``, without building it."""
        dropped = scenario.dropped_seqs if scenario is not None else ()
        torn = dict(scenario.torn) if scenario is not None and scenario.torn else {}
        content: Dict[int, bytes] = {}
        for request in self._writes:
            seq = request.seq
            if seq in dropped:
                continue
            sectors = torn.get(seq)
            if sectors is None:
                payload = self._payloads.get(seq)
                if payload is None:
                    payload = self._payloads[seq] = bytes(pad_block(request.data))
            else:
                block = request.block
                payload = bytes(compose_torn_block(
                    request.data, content.get(block) or self._prior_content(block), sectors))
            content[request.block] = payload
        key = tuple([content.get(block) or self._prior_content(block) for block in self.blocks])
        overlay_blocks = self._stable.overlay_blocks() + sum(
            1 for block in content if block not in self._overlaid)
        return key, overlay_blocks * BLOCK_SIZE

    def verdicts_under(self, oracle: Optional[Oracle], view: Optional[TrackerView]
                       ) -> _VerdictTable:
        """The verdicts filed under exactly these expectation objects.

        Other expectations get a new, empty table rather than a cleared one:
        a pass still filing into the table it was handed cannot leak a
        verdict to a workload holding different expectations.
        """
        if oracle is not self._oracle or view is not self._view:
            self._oracle, self._view = oracle, view
            self._table = _VerdictTable(self.positions)
        return self._table


@dataclass(frozen=True)
class _CheckpointRecord:
    """Forks and in-flight window captured at one checkpoint marker."""

    checkpoint_id: int
    #: every recorded write up to the marker applied (the prefix state)
    baseline: CowDevice
    #: state as of the last flush barrier before the marker
    stable: CowDevice
    #: writes issued after that barrier, in issue order (FUA included)
    window: Tuple[IORequest, ...]
    #: running digest of the recorded stream up to the marker (writes and
    #: flushes; markers excluded — they do not change the storage state).
    #: Together with the fixed base image this identifies every crash state
    #: any planner can reach at this checkpoint.  None when no cross-workload
    #: cache is attached (the digest is only needed for its keys).
    state_digest: Optional[str] = None

    @cached_property
    def memo(self) -> _VerdictMemo:
        """Verdicts of this checkpoint's crash states; born with the record's
        first scenario and dropped with the record, so a record rebuilt after
        a spill or a trail miss starts empty."""
        return _VerdictMemo(self.stable, self.window)


def _requests_match(a: IORequest, b: IORequest) -> bool:
    """Whether two recorded requests are the same request.

    Identity is the fast path: prefix-shared recording hands every sibling
    the *same* leading request objects, so matching a shared prefix is one
    pointer comparison per entry.  From-scratch profiles carry equal-content
    copies instead; field equality keeps replay sharing correct (never just
    an optimization artifact) for them too.
    """
    if a is b:
        return True
    return (
        a.seq == b.seq
        and a.kind == b.kind
        and a.block == b.block
        and a.flags == b.flags
        and a.checkpoint_id == b.checkpoint_id
        and a.tag == b.tag
        and (a.data == b.data if (a.data is not None and b.data is not None)
             else a.data is b.data)
    )


@dataclass
class _ReplayNode:
    """Frozen cursor state after consuming a prefix of the recorded stream.

    Captured at every flush barrier and checkpoint marker of the most
    recently built workload — exactly the points where the one-pass build
    already forks an O(1) snapshot, so freezing a node adds no device work.
    A sibling workload whose recorded stream shares the node's prefix resumes
    from here instead of re-applying every shared write.
    """

    #: number of io_log entries consumed to reach this state
    index: int
    #: frozen fork of the replay cursor (never written; siblings fork it)
    cursor: CowDevice
    #: stable fork as of the last flush barrier before ``index``
    stable: CowDevice
    #: in-flight window at ``index``, in issue order
    window: Tuple[IORequest, ...]
    #: checkpoint records completed so far (snapshot copy, shared records)
    records: Dict[int, "_CheckpointRecord"]
    #: running cross-workload digest state at ``index`` (None when the build
    #: ran without a cross-workload cache)
    hasher: Optional[object]
    #: write requests applied from the start of the stream to reach this node
    replayed_writes: int
    #: build wall-clock seconds a from-scratch run spends reaching this node
    elapsed: float
    #: mechanism-analysis cursor state at ``index`` (None when the build ran
    #: without static analysis); siblings resume the inference on their
    #: shared prefix exactly like they resume the replay itself
    analysis: Optional[AnalysisCursor] = None


@dataclass
class _TrailSlot:
    """The always-resident stub of one trail node.

    Holds the fields :meth:`SharedReplayCache.begin` reads without
    rehydrating (prefix matching and reuse accounting) plus the two pieces
    of state that cannot round-trip through pickle: the running sha1 digest
    and the analysis cursor.  Both stay resident in the slot — they are tiny
    compared to the device forks — and are reattached to the node after a
    rehydration.
    """

    index: int
    replayed_writes: int
    elapsed: float
    #: retrieval key of the full :class:`_ReplayNode` in the spine store
    key: int
    hasher: Optional[object]
    analysis: Optional[AnalysisCursor]


class SharedReplayCache:
    """Replay-trie spine shared by sibling workloads' crash-state builds.

    The replay counterpart of the recorder's prefix-shared trie: ACE sibling
    families share long recorded-stream prefixes (byte-identical when
    recording was prefix-shared, content-identical otherwise), so the
    one-pass crash-state construction of each sibling re-applies the same
    prefix writes onto the same base image.  This cache keeps the frozen
    cursor forks of the most recently built workload, keyed by stream prefix;
    the next sibling resumes from the deepest node on its longest shared
    prefix and replays only its own suffix.  The resulting checkpoint records
    (hence every crash state any planner derives from them) are byte-for-byte
    identical to from-scratch construction — the shared prefix writes are
    just applied once instead of once per sibling.

    Like the recording trie, a single cached path is enough for ACE's
    depth-first family order; an out-of-order stream merely falls back to
    building from scratch (the cache is an optimization, never a correctness
    requirement).
    """

    def __init__(self, spine_store: Optional[SpineStore] = None):
        """
        Args:
            spine_store: budgeted spill store for the frozen trail.  Pass the
                harness-wide store so recorder and replay spines share one
                resident budget; ``None`` builds a private store with the
                default budget.  Crash states are byte-for-byte identical
                whether nodes spill or stay resident.
        """
        #: budgeted node store; frozen trail nodes live here and spill to
        #: disk when the resident budget is exceeded
        self.spine_store = spine_store if spine_store is not None else SpineStore(
            name="replay"
        )
        self.spine_store.register_codec(
            "replay", self._freeze_replay_payload, self._thaw_replay_payload
        )
        #: always-resident stubs of the cached trail; the full nodes live in
        #: :attr:`spine_store`
        self._trail: List[_TrailSlot] = []
        self._log: Tuple[IORequest, ...] = ()
        self._base = None
        self._hashed = False
        self._analyzed = False
        # -- campaign-lifetime accounting ------------------------------------
        #: builds that resumed from the cache instead of starting from scratch
        self.replay_hits = 0
        #: write requests inherited from shared prefixes across all builds
        self.replay_writes_reused = 0
        #: build seconds saved by resuming instead of re-applying prefixes
        self.replay_seconds_saved = 0.0

    def clear(self) -> None:
        """Drop the cached trail, restoring the full freshly-constructed state.

        Every piece of matching state is reset — not just the trail list:
        a cleared cache must behave exactly like a new one, so ``begin`` can
        never seed a resume from a stale digest/analysis mode or a stale
        base-image reference after a spill-triggered (or any other) clear.
        """
        for slot in self._trail:
            self.spine_store.drop(slot.key)
        self._trail = []
        self._log = ()
        self._base = None
        self._hashed = False
        self._analyzed = False

    # ------------------------------------------------------------------ matching

    def _base_matches(self, base) -> bool:
        if base is self._base:
            return True
        return (
            self._base is not None
            and base.num_blocks == self._base.num_blocks
            and base.content_equal(self._base)
        )

    def _shared_prefix_len(self, log: Sequence[IORequest]) -> int:
        old = self._log
        limit = min(len(old), len(log))
        index = 0
        while index < limit and _requests_match(old[index], log[index]):
            index += 1
        return index

    # ------------------------------------------------------------------ build protocol

    def begin(self, profile: WorkloadProfile, want_hasher: bool,
              want_analysis: bool = False) -> Optional[_ReplayNode]:
        """Start a build for ``profile``; returns the resume node or None.

        Drops trail nodes past the divergence point (they belong to the
        previous sibling's suffix) and resets the trail entirely when the
        base image, digest mode or analysis mode changed — a node frozen
        without a running digest (or analysis cursor) cannot seed a build
        that needs one, and vice versa.
        """
        log = profile.io_log
        node: Optional[_ReplayNode] = None
        if (self._trail and self._hashed == want_hasher
                and self._analyzed == want_analysis
                and self._base_matches(profile.base_image)):
            shared = self._shared_prefix_len(log)
            while self._trail and self._trail[-1].index > shared:
                self.spine_store.drop(self._trail.pop().key)
            if self._trail:
                try:
                    node = self._fetch(self._trail[-1])
                except SpillMissError:
                    # Spill file gone or torn: the trail is only a cache, so
                    # this build starts from scratch like a divergent stream.
                    pass
        if node is None:
            for slot in self._trail:
                self.spine_store.drop(slot.key)
            self._trail = []
            self._base = profile.base_image
        else:
            self.replay_hits += 1
            self.replay_writes_reused += node.replayed_writes
            self.replay_seconds_saved += node.elapsed
        self._log = log
        self._hashed = want_hasher
        self._analyzed = want_analysis
        return node

    def freeze(self, *, index: int, cursor: CowDevice, stable: CowDevice,
               window: Tuple[IORequest, ...],
               records: Dict[int, "_CheckpointRecord"],
               hasher: Optional[object], replayed_writes: int,
               elapsed: float, analysis: Optional[AnalysisCursor] = None) -> None:
        """Append a trail node for the build in progress.

        ``records``, ``hasher`` and ``analysis`` are snapshotted here (the
        walk keeps mutating its own copies); ``cursor``/``stable`` are
        already frozen forks, shared as-is.
        """
        node = _ReplayNode(
            index=index,
            cursor=cursor,
            stable=stable,
            window=window,
            records=dict(records),
            hasher=hasher.copy() if hasher is not None else None,
            replayed_writes=replayed_writes,
            elapsed=elapsed,
            analysis=analysis.copy() if analysis is not None else None,
        )
        self._trail.append(self._remember(node))

    # ------------------------------------------------------------------ trail spill

    def _remember(self, node: _ReplayNode) -> _TrailSlot:
        """Hand a frozen node to the spine store, keeping a resident stub."""
        seen = set()
        nbytes = 0
        for device in self._node_devices(node):
            if id(device) not in seen:
                seen.add(id(device))
                nbytes += device.overlay_bytes()
        nbytes += sum(request.size_bytes() for request in node.window)
        for record in node.records.values():
            nbytes += sum(request.size_bytes() for request in record.window)
        key = self.spine_store.put("replay", node, nbytes)
        return _TrailSlot(index=node.index, replayed_writes=node.replayed_writes,
                          elapsed=node.elapsed, key=key,
                          hasher=node.hasher, analysis=node.analysis)

    def _fetch(self, slot: _TrailSlot) -> _ReplayNode:
        """Rehydrate a slot's full node, reattaching the resident cursors.

        The sha1 digest object and the analysis cursor cannot round-trip
        through pickle, so they live in the slot; a node that never spilled
        already holds the same objects and the reattachment is a no-op.
        """
        node = self.spine_store.get(slot.key)
        node.hasher = slot.hasher
        node.analysis = slot.analysis
        return node

    @staticmethod
    def _node_devices(node: _ReplayNode):
        """The node's device forks, in a stable order (with duplicates)."""
        yield node.cursor
        yield node.stable
        for record in node.records.values():
            yield record.baseline
            yield record.stable

    def _freeze_replay_payload(self, node: _ReplayNode) -> dict:
        """Flatten a trail node to a picklable dict.

        Devices are serialized through an identity table: each distinct
        ``CowDevice`` fork becomes one overlay delta, and every reference to
        it (cursor, stable, record baselines/stables) becomes an index into
        that table.  Rehydration therefore preserves the node's *identity
        topology* — records that shared a stable fork still share one — which
        the scenario dedup key (``id(record.stable)``) relies on.  The
        digest/analysis cursors are deliberately excluded; they stay resident
        in the trail slot.
        """
        devices: List[CowDevice] = []
        index_of: Dict[int, int] = {}

        def ref(device: CowDevice) -> int:
            token = id(device)
            if token not in index_of:
                index_of[token] = len(devices)
                devices.append(device)
            return index_of[token]

        records = {
            cid: (record.checkpoint_id, ref(record.baseline), ref(record.stable),
                  tuple(flatten_requests(record.window)), record.state_digest)
            for cid, record in node.records.items()
        }
        return {
            "index": node.index,
            "cursor": ref(node.cursor),
            "stable": ref(node.stable),
            "window": tuple(flatten_requests(node.window)),
            "records": records,
            "replayed_writes": node.replayed_writes,
            "elapsed": node.elapsed,
            "overlays": [freeze_overlay(device) for device in devices],
            "names": [device.name for device in devices],
        }

    def _thaw_replay_payload(self, payload: dict) -> _ReplayNode:
        """Rebuild a trail node from its spilled payload.

        Rebuilt over ``self._base``: thawing only happens through ``begin``,
        whose guard has already established that the current build's base is
        content-identical to the one the node was frozen against.
        """
        devices = [
            CowDevice.from_overlay(self._base, overlay, name=name)
            for overlay, name in zip(payload["overlays"], payload["names"])
        ]
        records = {
            cid: _CheckpointRecord(
                checkpoint_id=checkpoint_id,
                baseline=devices[baseline_ref],
                stable=devices[stable_ref],
                window=window,
                state_digest=state_digest,
            )
            for cid, (checkpoint_id, baseline_ref, stable_ref, window, state_digest)
            in payload["records"].items()
        }
        return _ReplayNode(
            index=payload["index"],
            cursor=devices[payload["cursor"]],
            stable=devices[payload["stable"]],
            window=payload["window"],
            records=records,
            hasher=None,
            replayed_writes=payload["replayed_writes"],
            elapsed=payload["elapsed"],
            analysis=None,
        )


def _normalized_tracker_view(view: TrackerView) -> Tuple:
    """Tracker view with the checkpoint numbering stripped, for equivalence."""
    files = {ino: replace(f, last_checkpoint=0) for ino, f in view.files.items()}
    dirs = {ino: replace(d, last_checkpoint=0) for ino, d in view.dirs.items()}
    return (files, dirs, view.renames)


def _oracle_digest(oracle: Optional[Oracle]) -> str:
    """Stable content digest of an oracle's expected file-system state."""
    if oracle is None:
        return "no-oracle"
    canonical = repr(sorted(oracle.state.items()))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _tracker_view_digest(view: Optional[TrackerView]) -> str:
    """Stable content digest of a normalized tracker view.

    Set-valued fields are sorted into tuples first: two views that compare
    equal must digest identically regardless of set iteration order.
    """
    if view is None:
        return "no-view"
    files = tuple(
        (
            ino, f.ftype, tuple(sorted(f.persisted_paths)), f.expected_data,
            f.size, f.nlink, f.allocated_blocks, tuple(f.xattrs),
            f.symlink_target, False,  # a retired field; kept so persisted keys do not move
        )
        for ino, f in sorted(view.files.items())
    )
    dirs = tuple(
        (ino, d.path, tuple(sorted(d.children.items())), tuple(d.xattrs))
        for ino, d in sorted(view.dirs.items())
    )
    renames = tuple((r.src, r.dst, r.ino, r.op_index) for r in view.renames)
    canonical = repr((files, dirs, renames))
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


class CrashStateGenerator:
    """Builds and mounts crash states from a workload profile."""

    def __init__(self, profile: WorkloadProfile, run_fsck_on_failure: bool = True,
                 planner: Optional[CrashPlanner] = None,
                 dedup_scenarios: bool = True,
                 cross_cache: Optional[SightingStore] = None,
                 replay_cache: Optional[SharedReplayCache] = None,
                 analyze: Optional[bool] = None):
        self.profile = profile
        self.fs_class = get_fs_class(profile.fs_name)
        self.run_fsck_on_failure = run_fsck_on_failure
        self.planner = planner if planner is not None else PrefixPlanner()
        #: run the static mechanism analysis during the one-pass build.
        #: ``None`` = auto: on exactly when the planner consumes reports
        #: (``attach_report``); an explicit flag forces it either way (the
        #: overhead benchmark and the ``analyze`` path use this).
        self.analyze = (analyze if analyze is not None
                        else hasattr(self.planner, "attach_report"))
        #: the inferred mechanism report (populated by the build when
        #: :attr:`analyze` is on)
        self.mechanism_report: Optional[MechanismReport] = None
        #: skip constructing/checking a checkpoint's scenarios when an earlier
        #: checkpoint provably yields the same states and expectations
        self.dedup_scenarios = dedup_scenarios
        #: campaign-lifetime cache skipping checkpoints whose crash states and
        #: expectations were already tested by an *earlier workload* (ACE
        #: siblings sharing a prefix re-reach the same persistence points)
        self.cross_cache = cross_cache
        #: replay-trie spine resuming the one-pass build from the deepest
        #: cursor fork on the recorded stream's shared sibling prefix
        self.replay_cache = replay_cache
        # Counters the harness gathers by name; each is documented where it is
        # declared, on the ``CrashTestResult`` field of the same name.
        self.mechanism_checkpoints = 0
        self.mechanism_fallback_checkpoints = 0
        self.mechanism_demoted_checkpoints = 0
        self.audit_demotions = 0
        self.replayed_write_requests = 0
        self.replay_shared = False
        self.replay_writes_reused = 0
        self.replay_seconds_saved = 0.0
        self.deduped_scenarios = 0
        self.cross_deduped_scenarios = 0
        #: wall-clock seconds of the one-pass incremental build
        self.build_seconds = 0.0
        self._records: Optional[Dict[int, _CheckpointRecord]] = None

    # ------------------------------------------------------------------ one-pass build

    def _ensure_built(self) -> Dict[int, _CheckpointRecord]:
        """Walk the recorded stream once, forking a snapshot per checkpoint.

        With a :class:`SharedReplayCache` attached, the walk resumes from the
        deepest cached cursor fork on the stream's shared sibling prefix:
        checkpoint records inside the prefix are inherited as-is (they are
        the same frozen forks the sibling's build produced) and only the
        suffix's requests are applied.  Either way the records — and every
        crash state derived from them — are byte-for-byte what a from-scratch
        walk produces.
        """
        if self._records is not None:
            return self._records
        start = time.perf_counter()
        cache = self.replay_cache
        log = self.profile.io_log
        node = cache.begin(self.profile, want_hasher=self.cross_cache is not None,
                           want_analysis=self.analyze) \
            if cache is not None else None
        if node is not None:
            records: Dict[int, _CheckpointRecord] = dict(node.records)
            cursor = node.cursor.snapshot(name="replay-cursor")
            stable = node.stable
            window: List[IORequest] = list(node.window)
            hasher = node.hasher.copy() if node.hasher is not None else None
            analysis = node.analysis.copy() if node.analysis is not None else None
            if analysis is None and self.analyze:
                # Trail frozen before analysis existed (mode just flipped):
                # re-derive the prefix facts from the shared log itself.
                analysis = AnalysisCursor().feed_all(log[: node.index])
            start_index = node.index
            replayed = node.replayed_writes
            base_elapsed = node.elapsed
            self.replay_shared = True
            self.replay_writes_reused = node.replayed_writes
            self.replay_seconds_saved = node.elapsed
        else:
            records = {}
            cursor = CowDevice(self.profile.base_image, name="replay-cursor")
            stable = cursor.snapshot(name="replay-stable")
            window = []
            # Running digest over the storage-changing stream (cross-workload
            # dedup keys); checkpoint markers are skipped so the flush-free
            # repeat of a persistence point digests identically to its twin.
            hasher = hashlib.sha1(
                f"{self.profile.fs_name}:{self.profile.base_image.num_blocks}:".encode("ascii")
            ) if self.cross_cache is not None else None
            analysis = AnalysisCursor() if self.analyze else None
            start_index = 0
            replayed = 0
            base_elapsed = 0.0
        for index in range(start_index, len(log)):
            request = log[index]
            if analysis is not None:
                analysis.feed(request)
            if request.is_write:
                if request.block is None or request.data is None:
                    raise HarnessError(
                        f"malformed write request in recorded stream: {request!r}"
                    )
                cursor.write_block(request.block, request.data)
                self.replayed_write_requests += 1
                replayed += 1
                window.append(request)
                if hasher is not None:
                    flags = ",".join(flag.value for flag in request.flags)
                    hasher.update(f"w:{request.block}:{flags}:{request.tag}:".encode("utf-8"))
                    hasher.update(request.data)
            elif request.is_flush:
                # Everything before the barrier is durable: fork the stable
                # state and start a fresh in-flight window.
                stable = cursor.snapshot(name="replay-stable")
                window = []
                if hasher is not None:
                    hasher.update(b"f:")
                if cache is not None:
                    # The stable fork *is* a frozen cursor fork: caching it
                    # costs no extra device work.
                    cache.freeze(
                        index=index + 1, cursor=stable, stable=stable,
                        window=(), records=records, hasher=hasher,
                        replayed_writes=replayed,
                        elapsed=base_elapsed + time.perf_counter() - start,
                        analysis=analysis,
                    )
            elif request.is_checkpoint and request.checkpoint_id is not None:
                baseline = cursor.snapshot(name=f"crash-{request.checkpoint_id}")
                records[request.checkpoint_id] = _CheckpointRecord(
                    checkpoint_id=request.checkpoint_id,
                    baseline=baseline,
                    stable=stable,
                    window=tuple(window),
                    state_digest=hasher.hexdigest() if hasher is not None else None,
                )
                if cache is not None:
                    cache.freeze(
                        index=index + 1, cursor=baseline, stable=stable,
                        window=tuple(window), records=records, hasher=hasher,
                        replayed_writes=replayed,
                        elapsed=base_elapsed + time.perf_counter() - start,
                        analysis=analysis,
                    )
        self._records = records
        if analysis is not None:
            # Second static pass: the contract auditor re-checks every claim
            # against the stream's actual fence/FUA edges and demotes violated
            # ones before any planner consumes the report.
            report = analysis.finish(self.profile.fs_name)
            self.mechanism_report = audit_report(report, self.profile.io_log)
            self.audit_demotions = self.mechanism_report.demotions
        self.build_seconds = time.perf_counter() - start
        return records

    def _attach_planner_report(self) -> None:
        """Hand the inferred report to a mechanism-aware planner.

        Must run after the build and before enumeration.  The harness tests
        workloads sequentially, so re-attaching per workload keeps one shared
        planner instance correct across a campaign.
        """
        attach = getattr(self.planner, "attach_report", None)
        if attach is not None:
            attach(self.mechanism_report)

    def _count_mechanism_window(self, window: Tuple[IORequest, ...]) -> Optional[tuple]:
        """Classify ``window`` once: count its kind, and return what the
        planner's ``scenarios`` enumerates from (``None`` for planners that
        do not classify)."""
        classify = getattr(self.planner, "classified", None)
        if classify is None:
            return None
        classified = classify(window)
        kind = classified[0]
        if kind == "demoted":
            # Audit-driven fallback: exhaustive coverage, attributed to the
            # auditor rather than to a failure of attribution.
            self.mechanism_fallback_checkpoints += 1
            self.mechanism_demoted_checkpoints += 1
        elif kind == "exhaustive":
            self.mechanism_fallback_checkpoints += 1
        elif kind != "empty":
            self.mechanism_checkpoints += 1
        return classified

    def _record_for(self, checkpoint_id: int) -> _CheckpointRecord:
        record = self._ensure_built().get(checkpoint_id)
        if record is None:
            # A recorded stream that promises a persistence point (the oracle
            # exists) but carries no marker is truncated or corrupt: that is
            # a harness failure to surface, never a checkpoint to skip.
            raise HarnessError(f"recorded stream has no checkpoint {checkpoint_id}")
        return record

    # ------------------------------------------------------------------ state construction

    def _scenario_device(self, record: _CheckpointRecord,
                         scenario: Optional[CrashScenario]) -> CowDevice:
        """Fork the device realizing ``scenario`` at ``record``'s checkpoint."""
        if scenario is None or scenario.is_baseline:
            return record.baseline.snapshot(name=f"crash-{record.checkpoint_id}")
        device = record.stable.snapshot(
            name=f"crash-{record.checkpoint_id}-{scenario.scenario_id}"
        )
        dropped = set(scenario.dropped_seqs)
        torn = dict(scenario.torn)
        for request in record.window:
            if not request.is_write or request.seq in dropped:
                continue
            sectors = torn.get(request.seq)
            if sectors is None:
                device.write_block(request.block, request.data)
            else:
                # Torn write: only the first `sectors` sectors of the payload
                # landed; the rest of the block keeps its prior content (the
                # stable state plus any earlier surviving window writes).
                device.write_sectors(request.block, request.data, sectors)
            self.replayed_write_requests += 1
        return device

    def _construct(self, record: _CheckpointRecord,
                   scenario: Optional[CrashScenario],
                   fresh: Optional[Set[CrashVerdict]] = None) -> CrashState:
        """Build ``scenario``'s device and mount it — unless ``record.memo``
        already holds the verdict of a state recovery cannot tell from it, in
        which case the state comes back as that verdict's twin: no device, no
        mount.  The only mount site.

        ``fresh`` is the calling pass's set of verdicts it has produced or
        taken so far (``None`` = always mount).  A verdict in it belongs to a
        state of this pass; one outside it was left by an earlier workload
        and is taken only once its findings are filed — a representative
        nobody checked is mounted and checked again, never trusted.
        """
        oracle = self.profile.oracles.get(record.checkpoint_id)
        crash_point = oracle.crash_point if oracle else f"checkpoint {record.checkpoint_id}"

        replay_start = time.perf_counter()
        key, overlay_bytes = record.memo.fold(scenario)
        state = CrashState(
            checkpoint_id=record.checkpoint_id,
            crash_point=crash_point,
            build_device=partial(self._scenario_device, record, scenario),
            scenario=scenario,
            overlay_bytes=overlay_bytes,
        )
        state.replay_seconds = time.perf_counter() - replay_start

        reads = None
        if fresh is not None:
            verdicts = record.memo.verdicts_under(
                oracle, self.profile.tracker_views.get(record.checkpoint_id))
            known = verdicts.find(key, fresh)
            if known is not None:
                state.verdict, state.is_twin = known, True
                state.inherited = known not in fresh
                fresh.add(known)
                return state
            reads = ReadLog(record.memo.positions)

        replay_start = time.perf_counter()
        device = state.device
        device.read_log = reads
        mount_start = time.perf_counter()
        state.replay_seconds += mount_start - replay_start
        fs = self.fs_class(device, self.profile.bugs)
        try:
            fs.mount(inspect=True)
            state.fs = fs
            state.mount_seconds = time.perf_counter() - mount_start
        except UnmountableError as exc:
            # Without its traceback: that holds this frame, whose ``state``
            # holds the error — a cycle that keeps the record, the device and
            # the half-mounted fs alive until the collector happens by.
            state.mount_error = exc.with_traceback(None)
            state.mount_seconds = time.perf_counter() - mount_start
            if self.run_fsck_on_failure:
                fsck_start = time.perf_counter()
                repaired_fs, report = fsck.repair(self.fs_class, device, self.profile.bugs)
                state.fsck_report = report
                state.fsck_recovered_fs = repaired_fs
                state.fsck_seconds = time.perf_counter() - fsck_start
        state.verdict = CrashVerdict(mountable=state.fs is not None, reads=reads)
        if fresh is not None:
            verdicts.file(key, state.verdict)
            fresh.add(state.verdict)
        return state

    # ------------------------------------------------------------------ public API

    def generate(self, checkpoint_id: int) -> CrashState:
        """Construct, mount and (if necessary) fsck one prefix crash state."""
        return self._construct(self._record_for(checkpoint_id), None)

    def generate_all(self) -> Iterator[CrashState]:
        """Yield the prefix crash state per persistence point, in order."""
        for checkpoint_id in self.profile.checkpoints():
            yield self.generate(checkpoint_id)

    def generate_scenarios(
        self, checkpoint_ids: Optional[Sequence[int]] = None
    ) -> Iterator[CrashState]:
        """Yield a crash state per planner scenario per persistence point.

        With ``dedup_scenarios`` enabled, a checkpoint that provably repeats
        an earlier one is skipped entirely: when no flush and no write
        intervene, both share the same stable fork and in-flight window, so
        every ``(stable, dropped, torn)`` state the planner enumerates is
        byte-identical to one already constructed — and when the oracle and
        tracker expectations also match, re-mounting and re-checking it can
        only double-count the same bug reports.  Skipped scenarios are
        counted in :attr:`deduped_scenarios`.

        With a sighting store attached, the same argument is applied
        *across workloads*: a checkpoint whose recorded stream prefix
        (hence every reachable crash state), oracle and tracker view all
        digest-match one tested by an earlier workload — an ACE sibling
        sharing the prefix — is skipped and counted in
        :attr:`cross_deduped_scenarios`.  A sibling whose divergent suffix
        adds new expectations necessarily changes the digest of its *later*
        checkpoints (new operations mean new recorded writes or a new oracle),
        so only byte-identical re-tests are ever skipped.

        Within one checkpoint, scenarios recovery cannot tell apart — the
        same bytes (a tear inside the zero padding of a short log entry
        equals the baseline), or bytes that differ only in blocks neither
        recovery nor a check read (a lost segment summary) — are mounted
        once: the first is the representative, each later one is yielded as
        its twin (``is_twin``, own scenario and ``overlay_bytes``, no device
        until someone reads it, zero mount and fsck seconds) sharing the
        representative's :class:`CrashVerdict`.  Twins are still yielded —
        they count as tested and report under their own scenario id — so
        nothing downstream changes.  A representative stands for states that
        are not byte-identical to it only once the consumer has filed its
        findings (``state.verdict.mismatches = ...``), which seals its read
        log.

        The verdicts are kept on the checkpoint record, so a sibling
        workload that resumed the replay trail and re-reaches the same
        record under the same oracle and tracker view objects gets its
        states back as twins too (``inherited``) — provided the earlier
        workload's consumer filed what it found.
        """
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        self._attach_planner_report()
        tested: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            classified = self._count_mechanism_window(record.window)
            # ``scenarios`` arguments; a planner that classifies takes its answer back
            plan = (checkpoint_id, record.window) + ((classified,) if classified else ())
            if self.dedup_scenarios:
                key = (id(record.stable), tuple(r.seq for r in record.window))
                twin = tested.get(key)
                if twin is not None and self._checkpoints_equivalent(twin, checkpoint_id):
                    self.deduped_scenarios += sum(1 for _ in self.planner.scenarios(*plan))
                    continue
                # Remember the *latest* checkpoint tested for this fork/window:
                # expectations drift monotonically with the workload, so the
                # nearest earlier twin is the one a later repeat can match.
                tested[key] = checkpoint_id
            if self.cross_cache is not None and not self._first_cross_sighting(
                record, checkpoint_id
            ):
                self.cross_deduped_scenarios += sum(1 for _ in self.planner.scenarios(*plan))
                continue
            fresh: Set[CrashVerdict] = set()
            for scenario in self.planner.scenarios(*plan):
                yield self._construct(record, scenario, fresh)

    def _first_cross_sighting(self, record: _CheckpointRecord,
                              checkpoint_id: int) -> bool:
        """Register this checkpoint's content key; False when already tested."""
        key = (
            record.state_digest,
            _oracle_digest(self.profile.oracles.get(checkpoint_id)),
            _tracker_view_digest(self.profile.tracker_views.get(checkpoint_id)),
        )
        return self.cross_cache.first_sighting(key)

    def _checkpoints_equivalent(self, tested_id: int, candidate_id: int) -> bool:
        """Whether checking ``candidate_id`` could find anything new.

        Called only for checkpoints that already share their stable fork and
        window (identical reachable crash states); what remains is whether the
        *expectations* agree: same oracle state and same tracker view (modulo
        checkpoint numbering).  A persistence point that promised new data
        without writing anything (a buggy no-op fsync path) changes the
        oracle, and its states must still be checked against it.
        """
        oracle_a = self.profile.oracles.get(tested_id)
        oracle_b = self.profile.oracles.get(candidate_id)
        if oracle_a is None or oracle_b is None or oracle_a.state != oracle_b.state:
            return False
        view_a = self.profile.tracker_views.get(tested_id)
        view_b = self.profile.tracker_views.get(candidate_id)
        if (view_a is None) != (view_b is None):
            return False
        if view_a is None:
            return True
        return _normalized_tracker_view(view_a) == _normalized_tracker_view(view_b)

    def scenario_plan(
        self, checkpoint_ids: Optional[Sequence[int]] = None
    ) -> Iterator[CrashScenario]:
        """Enumerate the planner's scenarios without constructing any state."""
        if checkpoint_ids is None:
            checkpoint_ids = self.profile.checkpoints()
        self._ensure_built()
        self._attach_planner_report()
        for checkpoint_id in checkpoint_ids:
            record = self._record_for(checkpoint_id)
            yield from self.planner.scenarios(checkpoint_id, record.window)

    def window_kinds(self) -> Dict[str, int]:
        """Classify every persistence point's in-flight window, kind → count.

        Empty for planners without :meth:`classify_window` (prefix, reorder,
        torn).  Like :meth:`scenario_plan`, no crash state is constructed —
        this is the attribution view the ``analyze`` subcommand prints.
        """
        classify = getattr(self.planner, "classify_window", None)
        if classify is None:
            return {}
        self._ensure_built()
        self._attach_planner_report()
        kinds: Dict[str, int] = {}
        for checkpoint_id in self.profile.checkpoints():
            kind = classify(self._record_for(checkpoint_id).window)
            kinds[kind] = kinds.get(kind, 0) + 1
        return kinds
