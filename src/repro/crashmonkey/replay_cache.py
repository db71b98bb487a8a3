"""The replay walk's state, and the spine of it that sibling workloads share.

The one-pass crash-state build (:mod:`repro.crashmonkey.replayer`) walks the
recorded stream with a :class:`_ReplayNode` as its state: the cursor device,
the stable fork of the last flush barrier, the in-flight window and the
:class:`_CheckpointRecord` of every marker passed.  At each barrier and
marker the walk freezes a fork of itself and stages it on the
:class:`SharedReplayCache`; the next sibling's ``begin`` starts its walk as a
fork of the deepest of them inside the prefix its stream shares, held in
memory, and admits to the trail only the forks a later build will read there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..analysis.mechanisms import AnalysisCursor
from ..storage.cow_device import CowDevice
from ..storage.io_request import IORequest
from ..storage.spill import Spine, SpineStore
from .recorder import WorkloadProfile
from .verdicts import _VerdictMemo


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

    @cached_property
    def memo(self) -> _VerdictMemo:
        """Verdicts of this checkpoint's crash states; born with the record's
        first scenario and dropped with the record, so a record rebuilt after
        a spill or a trail miss starts empty."""
        return _VerdictMemo(self.stable, self.window)

    def __reduce__(self):
        # The memo does not ride through a spill: its verdicts were filed
        # under expectation objects a thawed sibling no longer holds.
        return _CheckpointRecord, (self.checkpoint_id, self.baseline, self.stable,
                                   self.window)


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


def _at(forks: Sequence["_ReplayNode"], windows: Iterable[Tuple[int, int]]) -> Set[int]:
    """``id`` of the forks a build resuming in one of ``windows`` may read:
    for each ``(start, end)`` of stream positions, the deepest fork at or
    before ``start`` and those past it up to ``end``.  A recorder window runs
    from a stored node to the end of the next operation on this path: a
    sibling resuming at that node parts from this path within that
    operation, and its requests may match this one's up to there."""
    chosen = set()
    for start, end in windows:
        below = [fork for fork in forks if fork.index <= start]
        chosen.update(id(fork) for fork in below[-1:])
        chosen.update(id(fork) for fork in forks if start < fork.index <= end)
    return chosen


@dataclass
class _ReplayNode:
    """Walk state after consuming a prefix of the recorded stream.

    Live, it is the walk: the build applies writes to :attr:`cursor` and
    rebinds the rest as it goes.  Frozen — forked at a flush barrier or a
    checkpoint marker, exactly the points where the walk snapshots its cursor
    anyway — it is a spine node nobody writes again, which a sibling workload
    whose recorded stream shares the prefix forks to start its own walk.
    """

    #: number of io_log entries consumed to reach this state
    index: int
    #: the replay cursor (a frozen node's is never written; siblings fork it)
    cursor: CowDevice
    #: stable fork as of the last flush barrier before ``index``
    stable: CowDevice
    #: in-flight window at ``index``, in issue order
    window: Tuple[IORequest, ...]
    #: checkpoint records completed so far (own dict, shared records)
    records: Dict[int, _CheckpointRecord]
    #: write requests applied from the start of the stream to reach this node
    replayed_writes: int = 0
    #: build wall-clock seconds a from-scratch run spends reaching this node
    elapsed: float = 0.0
    #: mechanism-analysis cursor state at ``index`` (None when the build runs
    #: without static analysis); siblings resume the inference on their
    #: shared prefix exactly like they resume the replay itself
    analysis: Optional[AnalysisCursor] = None

    @classmethod
    def root(cls, profile: WorkloadProfile, want_analysis: bool) -> "_ReplayNode":
        """The walk state before the first request of ``profile``'s stream."""
        cursor = CowDevice(profile.base_image, name="replay-cursor")
        return cls(index=0, cursor=cursor, stable=cursor.snapshot(name="replay-stable"),
                   window=(), records={},
                   analysis=AnalysisCursor() if want_analysis else None)

    def fork(self, cursor: CowDevice) -> "_ReplayNode":
        """An independent copy of this state continuing on ``cursor`` — a
        snapshot of ours the caller took: the stable fork or checkpoint
        baseline the walk has just made (freezing adds no device work), or a
        fresh one of a frozen node's (resuming)."""
        return replace(
            self, cursor=cursor, records=dict(self.records),
            analysis=self.analysis.copy() if self.analysis is not None else None)

    def __getstate__(self):
        # The analysis cursor does not survive pickling; it stays resident in
        # the node's stub, and ``SharedReplayCache.begin`` reattaches it.
        return {**self.__dict__, "analysis": None}

    def spine_bytes(self) -> int:
        """What the node pins: each distinct device fork once, plus windows."""
        devices = {self.cursor, self.stable}
        nbytes = sum(request.size_bytes() for request in self.window)
        for record in self.records.values():
            devices.update((record.baseline, record.stable))
            nbytes += sum(request.size_bytes() for request in record.window)
        return nbytes + sum(device.overlay_bytes() for device in devices)


class _ReplayStub(NamedTuple):
    """What stays resident of a trail node: the stream position prefix
    matching reads, and the analysis cursor that cannot be pickled."""

    index: int
    analysis: Optional[AnalysisCursor]


class SharedReplayCache:
    """Replay-trie spine shared by sibling workloads' crash-state builds.

    The replay counterpart of the recorder's prefix-shared trie: ACE sibling
    families share long recorded-stream prefixes (byte-identical when
    recording was prefix-shared, content-identical otherwise), so the
    one-pass crash-state construction of each sibling re-applies the same
    prefix writes onto the same base image.  This cache keeps the frozen
    walk states of the most recently built workload, keyed by stream prefix;
    the next sibling resumes from the deepest node on its longest shared
    prefix and replays only its own suffix.  The resulting checkpoint records
    (hence every crash state any planner derives from them) are byte-for-byte
    identical to from-scratch construction — the shared prefix writes are
    just applied once instead of once per sibling.

    Like the recording trie, a single cached path is enough for ACE's
    depth-first family order; an out-of-order stream merely falls back to
    building from scratch (the cache is an optimization, never a correctness
    requirement).

    A build *stages* its frozen forks instead of pushing them: which of them
    the next sibling can resume from is known only once its stream is, so
    :meth:`begin` resumes from the deepest fork the last build holds inside
    the shared prefix — staged, or the one that build resumed from — without
    a trip through the store, and drops the rest unsized.  What it pushes to
    the trail is what a build after the next may read there: the forks in
    the stream windows of the nodes the recorder's plan stored
    (:class:`~.recorder.TrailPlan`), or, with no plan or after a build that
    resumed past its recorder's resume point, every fork inside the shared
    prefix.
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
        #: the cached trail, stubbed by :class:`_ReplayStub`; its base is the
        #: base image of the build that froze it (a thaw only happens through
        #: :meth:`begin`, whose guard has established that the current
        #: build's base is content-identical to that one)
        self._spine = Spine(self.spine_store)
        #: forks the last build froze, in stream order, awaiting the next
        #: ``begin``; they pin only devices that build's records already hold
        self._staged: List[_ReplayNode] = []
        #: the frozen fork the last build resumed from, held in memory
        self._held: Optional[_ReplayNode] = None
        #: stream windows of the last build's profile a later build reads
        #: from the trail (``None``: every shared fork)
        self._windows: Optional[FrozenSet[Tuple[int, int]]] = None
        self._log: Tuple[IORequest, ...] = ()
        self._analyzed = False
        # -- campaign-lifetime accounting ------------------------------------
        #: builds that resumed from the cache instead of starting from scratch
        self.replay_hits = 0
        #: write requests inherited from shared prefixes across all builds
        self.replay_writes_reused = 0
        #: build seconds saved by resuming instead of re-applying prefixes
        self.replay_seconds_saved = 0.0
        #: frozen forks staged by builds, and those a next build pushed
        self.nodes_staged = 0
        self.nodes_admitted = 0

    def clear(self) -> None:
        """Drop the cached trail, restoring the full freshly-constructed state.

        Every piece of matching state is reset — not just the trail: a
        cleared cache must behave exactly like a new one, so ``begin`` can
        never seed a resume from a stale analysis mode or a stale base-image
        reference after a clear.
        """
        self._spine.truncate(0)
        self._spine.base = None
        self._staged.clear()
        self._held = None
        self._windows = None
        self._log = ()
        self._analyzed = False

    # ------------------------------------------------------------------ matching

    def _base_matches(self, base) -> bool:
        cached = self._spine.base
        if base is cached:
            return True
        return (
            cached is not None
            and base.num_blocks == cached.num_blocks
            and base.content_equal(cached)
        )

    def _shared_prefix_len(self, log: Sequence[IORequest]) -> int:
        old = self._log
        limit = min(len(old), len(log))
        index = 0
        while index < limit and _requests_match(old[index], log[index]):
            index += 1
        return index

    # ------------------------------------------------------------------ build protocol

    def begin(self, profile: WorkloadProfile,
              want_analysis: bool = False) -> Optional[_ReplayNode]:
        """Start a build for ``profile``; returns its resumed walk or None.

        The one admission point.  Of the forks the previous build holds
        inside the shared stream prefix it pushes those a later build reads
        from the trail, and drops the others unsized.  Then drops trail nodes
        past the divergence point (they belong to the previous sibling's
        suffix, or their spill file was lost) and resets the trail entirely
        when the base image or analysis mode changed — a node frozen without
        an analysis cursor cannot seed a build that needs one, and vice
        versa.  The walk resumes from the deepest fork left: in hand when the
        previous build holds it, otherwise read from the trail.
        """
        spine = self._spine
        shared = 0
        if ((len(spine) or self._staged or self._held is not None)
                and self._analyzed == want_analysis
                and self._base_matches(profile.base_image)):
            shared = self._shared_prefix_len(profile.io_log)
        # The forks the last build holds inside the shared prefix, in stream
        # order: the one it resumed from, then those it staged.
        owned = [node for node in ([self._held] if self._held is not None else [])
                 + self._staged if node.index <= shared]
        self._staged.clear()
        keep = len(spine)
        while keep and spine.stubs[keep - 1].index > shared:
            keep -= 1
        spine.truncate(keep)
        # The trail holds the path up to where the last build resumed, so an
        # owned fork no deeper than its end is on it already.
        trail_end = spine.stubs[-1].index if keep else -1
        if owned and trail_end <= owned[-1].index:
            node = owned[-1]
        else:
            node = spine.deepest()
            if node is not None:
                node.analysis = spine.stubs[-1].analysis
        candidates = [fork for fork in owned if fork.index > trail_end]
        plan = profile.trail_plan
        if self._windows is None or (plan is not None and node is not None
                                     and node.index > plan.resume):
            # No plan; or this build resumed past its recorder's resume point
            # on requests that merely match, and the next siblings, resuming
            # at that point, may part anywhere below it: every fork is kept.
            pushed = {id(fork) for fork in candidates}
        else:
            pushed = _at(candidates, self._windows)
        for fork in candidates:
            if id(fork) in pushed:
                spine.push(fork, fork.spine_bytes(), _ReplayStub(fork.index, fork.analysis))
                self.nodes_admitted += 1
        self._held = node
        self._windows = plan.stored if plan is not None else None
        self._log = profile.io_log
        self._analyzed = want_analysis
        if node is None:
            spine.base = profile.base_image
            return None
        self.replay_hits += 1
        self.replay_writes_reused += node.replayed_writes
        self.replay_seconds_saved += node.elapsed
        return node.fork(node.cursor.snapshot(name="replay-cursor"))

    def freeze(self, walk: _ReplayNode, cursor: CowDevice) -> None:
        """Stage a fork of the build in progress, sitting on ``cursor`` (the
        frozen snapshot of its cursor the walk has just taken), for the next
        :meth:`begin` to admit or drop."""
        self._staged.append(walk.fork(cursor))
        self.nodes_staged += 1
