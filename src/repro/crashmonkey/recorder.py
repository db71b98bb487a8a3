"""Workload profiler (CrashMonkey phase 1).

Profiling runs the workload once on a freshly formatted file system mounted
on the recording wrapper device.  It produces everything the later phases
need:

* the base disk image (the initial file-system state),
* the recorded block I/O stream with checkpoint markers after every
  persistence operation,
* an oracle per persistence point,
* the persisted-set tracker views per persistence point,
* a checkpoint record per persistence point: the forks and in-flight window
  every crash state of that point is built from, taken from the recording
  device as the stream is recorded (crash-state generation never walks the
  stream again).

Prefix-shared recording
-----------------------

ACE's B3 bound emits huge *sibling families*: workloads that differ only in
their last operation or persistence point.  Re-running mkfs and every shared
prefix operation per sibling makes the recording phase quadratic in the
family size, so the recorder keeps a **workload trie spine**: after an
operation of the workload being profiled it freezes a :class:`_PrefixNode` —
an O(1) chained-overlay :class:`CowDevice` fork plus a *fork* of the
in-memory file system and of the tracker (``AbstractFileSystem.fork`` /
``PersistenceTracker.fork``: live objects with private copies of exactly what
operations mutate; bytes exist only if the spine store spills the node).  The
next workload forks the deepest node on its longest shared prefix again and
records only its own suffix.  The resulting ``io_log`` (and oracles, tracker
views, checkpoint records) is byte-for-byte identical to from-scratch recording —
execution is deterministic and the forked state *is* the state the from-
scratch run would have reached — the shared prefix writes are just performed
once instead of once per sibling.

Because ACE generates families depth-first, caching the single most recent
path through the trie is enough to record every shared prefix exactly once
for a prefix-ordered stream; an out-of-order stream merely falls back to
recording from scratch (the cache is an optimization, never a correctness
requirement).

A caller that knows the whole stream in advance (``CrashMonkey.test_stream``
gets one engine chunk) plans it with :func:`plan_spine` and passes each
workload its :class:`PlanStep`: workload *v* resumes at its shared prefix
with *v − 1*, so the recorder freezes only nodes some later workload resumes
from, hands the next workload its resume node in memory (outside the store),
and pushes to the store only what a workload after the next reads from it.
Without a plan — the last workload of a stream, a direct call — every depth
is frozen and pushed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..clock import now, span
from ..fs.base import AbstractFileSystem
from ..fs.bugs import BugConfig
from ..fs.registry import get_fs_class, models, resolve_fs_name
from ..storage.block import DEFAULT_DEVICE_BLOCKS
from ..storage.block_device import BlockDevice
from ..storage.cow_device import CowDevice
from ..storage.io_request import IORequest
from ..storage.record_device import RecordingDevice
from ..storage.spill import Spine, SpineStore
from ..workload.executor import WorkloadExecutor
from ..workload.operations import Operation
from ..workload.workload import Workload
from .oracle import Oracle
from .tracker import PersistenceTracker, TrackerView
from .verdicts import _CheckpointRecord


@dataclass
class WorkloadProfile:
    """Everything recorded while profiling one workload."""

    workload: Workload
    fs_name: str
    fs_model: str
    bugs: BugConfig
    base_image: BlockDevice
    io_log: tuple
    oracles: Dict[int, Oracle] = field(default_factory=dict)
    tracker_views: Dict[int, TrackerView] = field(default_factory=dict)
    #: checkpoint id -> what its crash states are built from; a sibling that
    #: resumed past a checkpoint shares its record (and the record's verdicts)
    records: Dict[int, _CheckpointRecord] = field(default_factory=dict)
    num_checkpoints: int = 0
    profile_seconds: float = 0.0
    executed_ops: int = 0
    skipped_ops: int = 0
    recorded_bytes: int = 0
    workload_overlay_bytes: int = 0
    # Prefix-sharing accounting, gathered by name into the ``CrashTestResult``
    # fields of the same names (each is documented where it is declared).
    prefix_shared: bool = False
    prefix_ops_reused: int = 0
    prefix_writes_reused: int = 0
    prefix_seconds_saved: float = 0.0

    def checkpoints(self) -> List[int]:
        return sorted(self.oracles)

    @property
    def fresh_write_requests(self) -> int:
        """Write requests this profile actually performed (not inherited)."""
        total = sum(1 for request in self.io_log if request.is_write)
        return total - self.prefix_writes_reused


@dataclass
class _PrefixNode:
    """Frozen recording state after executing one more prefix operation.

    Node ``i`` of the spine captures the complete state a from-scratch run
    reaches right after executing ``ops[:i]``: the storage (an O(1) CoW
    fork), the recorded stream so far, and detached forks of every piece of
    mutable in-memory state (file system, tracker records, executor
    counters).  Oracles, tracker views and checkpoint records captured so
    far are shared, not copied — they are frozen at capture time and never
    mutated afterwards (a record's verdict memo is how siblings share its
    verdicts).
    """

    depth: int
    #: the operation executed to reach this node (None for the root)
    op: Optional[Operation]
    #: :meth:`Workload.prefix_key` of the operation path to this node — the
    #: content identity the spine is matched on (collision-freedom is pinned
    #: by the property tests in ``tests/test_workload_identity.py``)
    prefix_key: str
    device: CowDevice
    log: Tuple[IORequest, ...]
    checkpoints: int
    #: the recording device's fork at the last flush barrier in ``log``
    stable: CowDevice
    #: the write requests after that barrier
    window: Tuple[IORequest, ...]
    #: checkpoint records captured so far
    records: Dict[int, _CheckpointRecord]
    #: fork of the mounted fs, attached to no device
    fs: AbstractFileSystem
    #: fork of the tracker, observing no fs
    tracker: PersistenceTracker
    oracles: Dict[int, Oracle]
    executed: int
    skipped: int
    persistence_count: int
    #: write requests in ``log`` (what a resume inherits without re-recording)
    write_requests: int
    #: payload bytes of those write requests
    recorded_bytes: int
    #: recording wall-clock seconds spent from run start to this node
    elapsed: float


def _shared_depth(keys: Sequence[str], other: Sequence[str]) -> int:
    """Number of leading operations two ``prefix_keys()`` tuples agree on."""
    depth = 0
    limit = min(len(keys), len(other)) - 1
    while depth < limit and keys[depth + 1] == other[depth + 1]:
        depth += 1
    return depth


@dataclass(frozen=True)
class PlanStep:
    """What one workload of a planned stream leaves on the spine for the rest.

    ``keys`` is the workload's ``prefix_keys()``.  ``hand`` is the key the
    next workload resumes from: a node with it that this workload freezes or
    resumes from is handed over in memory.  ``stored`` holds the keys a
    workload after the next reads from the spine, the only nodes pushed;
    ``None`` freezes and pushes every depth (the last workload of a stream,
    and any call made without a plan).
    """

    workload: Workload
    keys: Tuple[str, ...]
    hand: Optional[str] = None
    stored: Optional[FrozenSet[str]] = None

    def freezes(self, key: str) -> bool:
        return self.stored is None or key in self.stored or key == self.hand


def plan_spine(workloads: Sequence[Workload]) -> List[PlanStep]:
    """One :class:`PlanStep` per workload of a stream known in advance.

    Workload *v* resumes at its shared prefix with *v − 1*.  It finds that
    node in hand unless *v − 1* resumed deeper — then *v − 1* neither froze
    nor resumed from it, and *v* reads it from the spine, so the workload
    that freezes its key pushes it.  The next stream's first workload
    resumes on the last one's path, at a depth not known here, and those
    after it may read any node below that one: every node on the last
    workload's path is pushed, so a stream finds the path the last left.
    """
    keys = [workload.prefix_keys() for workload in workloads]
    # the depth each workload resumes at (the first's depends on the spine)
    depths = [0] + [_shared_depth(a, b) for a, b in zip(keys, keys[1:])]
    resume = [k[depth] for k, depth in zip(keys, depths)]
    # key -> the last workload reading it from the spine (past the end: the
    # next stream)
    read_last: Dict[str, int] = {}
    for v in range(2, len(keys)):
        if depths[v - 1] > depths[v]:
            read_last[resume[v]] = v
    read_last.update(dict.fromkeys(keys[-1] if keys else (), len(keys) + 1))
    steps = [PlanStep(workload, k, hand=resume[v + 1],
                      stored=frozenset(key for key in k if read_last.get(key, 0) > v + 1))
             for v, (workload, k) in enumerate(zip(workloads[:-1], keys))]
    if keys:
        steps.append(PlanStep(workloads[-1], keys[-1]))
    return steps


class _LiveRun:
    """The mutable state of one in-progress recording run."""

    def __init__(self, recording_device: RecordingDevice, fs, tracker: PersistenceTracker,
                 oracles: Dict[int, Oracle], records: Dict[int, _CheckpointRecord],
                 executor: WorkloadExecutor):
        self.recording_device = recording_device
        self.fs = fs
        self.tracker = tracker
        self.oracles = oracles
        self.records = records
        self.executor = executor

    def on_persistence(self, op: Operation, index: int) -> None:
        """Mark the checkpoint, capture its expectations from one tree walk,
        and record the forks its crash states are built from."""
        device = self.recording_device
        checkpoint_id = device.mark_checkpoint()
        self.records[checkpoint_id] = _CheckpointRecord(
            checkpoint_id=checkpoint_id,
            marker=device.num_requests - 1,
            baseline=device.target.snapshot(name=f"crash-{checkpoint_id}"),
            stable=device.stable,
            window=device.window,
        )
        state = self.fs.logical_state()
        self.tracker.on_persistence(op, index, checkpoint_id, state)
        self.oracles[checkpoint_id] = Oracle(checkpoint_id, op.describe(), state)


class WorkloadRecorder:
    """Profiles workloads on a given (simulated) file system."""

    def __init__(self, fs_name: str, bugs: Optional[BugConfig] = None,
                 device_blocks: int = DEFAULT_DEVICE_BLOCKS, strict: bool = False,
                 share_prefixes: bool = True,
                 spine_store: Optional[SpineStore] = None):
        """
        Args:
            share_prefixes: resume each workload from the deepest cached
                snapshot on its longest operation prefix shared with the
                previously profiled workload, instead of re-running mkfs and
                the prefix operations.  Profiles are byte-for-byte identical
                either way; disabling trades recording speed for a recorder
                with no state between ``profile`` calls.
            spine_store: budgeted spill store for the frozen trie spine.
                Pass the harness-wide store to share its resident budget;
                ``None`` builds a private store with the default budget.
                Profiles are byte-for-byte identical whether nodes spill or
                stay resident.
        """
        self.fs_name = resolve_fs_name(fs_name)
        self.fs_class = get_fs_class(self.fs_name)
        self.fs_model = models(self.fs_name)
        self.bugs = bugs if bugs is not None else BugConfig.all_for(self.fs_name)
        self.device_blocks = device_blocks
        self.strict = strict
        self.share_prefixes = share_prefixes
        # The initial file-system state is the same for every workload (B3's
        # fourth bound): a small, freshly formatted image, created once and
        # reused as the base of every profile run.
        self._pristine_image = self._make_pristine_image()
        #: budgeted node store; frozen spine nodes live here and spill to
        #: disk when the resident budget is exceeded
        self.spine_store = spine_store if spine_store is not None else SpineStore(
            name=f"{self.fs_name}-prefix"
        )
        #: the trie spine: the :class:`_PrefixNode` after each operation of
        #: the previous workload, stubbed by its ``prefix_key``.  Its base is
        #: the shared base image of every prefix-shared profile — CowDevice
        #: never writes through to its base, so one copy serves the campaign
        self._spine = Spine(self.spine_store)
        self._spine.base = self._pristine_image.copy(name=f"{self.fs_name}-base")
        #: the node the next workload resumes from, when this one froze or
        #: resumed from it: handed over in memory, outside the store
        self._in_hand: Optional[_PrefixNode] = None
        # -- prefix-sharing accounting (campaign-lifetime totals) ------------
        #: profiles that resumed from the cache instead of re-running mkfs
        self.prefix_hits = 0
        #: operations inherited from shared prefixes across all profiles
        self.prefix_ops_reused = 0
        #: write requests inherited from shared prefixes across all profiles
        self.prefix_writes_reused = 0
        #: recording seconds saved by resuming instead of re-running prefixes
        self.prefix_seconds_saved = 0.0
        #: spine nodes frozen (roots included) across all profiles, pushed or
        #: only handed to the next workload
        self.spine_freezes = 0

    def _make_pristine_image(self) -> BlockDevice:
        device = BlockDevice(self.device_blocks, name=f"{self.fs_name}-pristine")
        self.fs_class.mkfs(device, self.bugs)
        return device

    # ------------------------------------------------------------------ public API

    def profile(self, workload: Workload,
                step: Optional[PlanStep] = None) -> WorkloadProfile:
        """Run ``workload`` once, recording I/O, oracles, and persisted sets.

        ``step`` is the workload's entry of a :func:`plan_spine` over the
        stream the caller profiles: the spine then keeps only the nodes later
        workloads resume from.  It never changes the returned profile, and a
        wrong plan costs later profiles their cache hits, nothing else.
        """
        with span() as clock:
            if self.share_prefixes:
                profile = self._profile_shared(workload, step, clock)
            else:
                profile = self._profile_from_scratch(workload)
            profile.profile_seconds = clock.seconds
        return profile

    def clear_prefix_cache(self) -> None:
        """Drop the cached trie spine (frees the snapshots it holds)."""
        self._spine.truncate(0)
        self._in_hand = None

    # ------------------------------------------------------------------ from scratch

    def _profile_from_scratch(self, workload: Workload) -> WorkloadProfile:
        base_image = self._pristine_image.copy(name=f"{self.fs_name}-base")
        run = self._mount(base_image)
        run.executor.run(workload, on_persistence=run.on_persistence,
                         before_operation=run.tracker.before_operation)
        return self._finish(run, workload, base_image, resumed=None)

    def _mount(self, base_image: BlockDevice) -> _LiveRun:
        """A live run on a freshly mounted file system over ``base_image``."""
        recording_device = RecordingDevice(CowDevice(base_image, name="workload-cow"))
        fs = self.fs_class(recording_device, self.bugs)
        fs.mount()
        return _LiveRun(recording_device, fs, PersistenceTracker(fs), {}, {},
                        WorkloadExecutor(fs, strict=self.strict))

    # ------------------------------------------------------------------ prefix shared

    def _profile_shared(self, workload: Workload, step: Optional[PlanStep],
                        clock: span) -> WorkloadProfile:
        if step is None or step.workload is not workload:
            step = PlanStep(workload, workload.prefix_keys())
        keys = step.keys
        # A node this workload can resume from is one on its path.  The spine
        # is a single path, so the nodes past the divergence point — the
        # previous workload's suffix — are dropped, as is a node whose spill
        # file is gone or torn, in favour of its parent.  The node in hand
        # is taken unless the spine holds a deeper one.
        depths = {key: depth for depth, key in enumerate(keys)}
        spine = self._spine
        keep = 0
        while keep < len(spine) and spine.stubs[keep] in depths:
            keep += 1
        spine.truncate(keep)
        hand, self._in_hand = self._in_hand, None
        if hand is not None and (hand.prefix_key not in depths
                                 or (keep and depths[spine.stubs[-1]] > hand.depth)):
            hand = None
        resumed = hand if hand is not None else spine.deepest()
        if resumed is not None:
            self.prefix_hits += 1
            self.prefix_ops_reused += resumed.depth
            self.prefix_writes_reused += resumed.write_requests
            self.prefix_seconds_saved += resumed.elapsed
            if resumed.prefix_key == step.hand:
                self._in_hand = resumed
            run = self._resume_from(resumed)
            base_elapsed = resumed.elapsed
        else:
            # Cold cache: format-and-mount once over the shared base and
            # freeze the trie root; the run so far is its ``elapsed``.
            run = self._mount(spine.base)
            base_elapsed = clock.seconds
            self._keep(self._freeze(run, depth=0, op=None, prefix_key=keys[0],
                                    elapsed=base_elapsed), step)

        # Only op execution counts towards a node's `elapsed` (what a resume
        # reports as saved): a from-scratch re-run of the prefix would pay
        # the execution, never the spine-freeze overhead.
        exec_seconds = 0.0
        op_start = 0.0

        def before_operation(op, index):
            nonlocal op_start
            op_start = now()
            run.tracker.before_operation(op, index)

        def after_operation(op, index):
            nonlocal exec_seconds
            exec_seconds += now() - op_start
            if step.freezes(keys[index + 1]):
                self._keep(self._freeze(run, depth=index + 1, op=op,
                                        prefix_key=keys[index + 1],
                                        elapsed=base_elapsed + exec_seconds), step)

        run.executor.run(workload, on_persistence=run.on_persistence,
                         before_operation=before_operation,
                         after_operation=after_operation,
                         start_index=resumed.depth if resumed is not None else 0)
        return self._finish(run, workload, spine.base, resumed)

    def _keep(self, node: _PrefixNode, step: PlanStep) -> None:
        """The prefix spine's one admission point: push a frozen node the
        plan stores (sized by what it pins), and hold the one the next
        workload resumes from.  The root is always pushed: every workload
        shares it, in this stream or the next.

        A node's checkpoint records add no size of their own: their forks
        share the overlay layers ``device`` chains, and their windows are
        slices of the ``log`` that ``recorded_bytes`` counts."""
        if step.stored is None or node.prefix_key in step.stored or node.depth == 0:
            nbytes = node.fs.fork_bytes() + node.device.overlay_bytes() + node.recorded_bytes
            self._spine.push(node, nbytes, stub=node.prefix_key)
        if node.prefix_key == step.hand:
            self._in_hand = node

    def _freeze(self, run: _LiveRun, depth: int, op: Optional[Operation],
                prefix_key: str, elapsed: float) -> _PrefixNode:
        """Capture the live run as an immutable trie node (O(1) device fork)."""
        device = run.recording_device
        self.spine_freezes += 1
        return _PrefixNode(
            depth=depth,
            op=op,
            prefix_key=prefix_key,
            device=device.target.snapshot(name=f"prefix-{depth}"),
            log=device.log,
            checkpoints=device.num_checkpoints,
            stable=device.stable,
            window=device.window,
            records=dict(run.records),
            fs=run.fs.fork(None),
            tracker=run.tracker.fork(None),
            oracles=dict(run.oracles),
            executed=run.executor.executed,
            skipped=run.executor.skipped,
            persistence_count=run.executor.persistence_count,
            write_requests=device.write_requests,
            recorded_bytes=device.recorded_bytes(),
            elapsed=elapsed,
        )

    def _resume_from(self, node: _PrefixNode) -> _LiveRun:
        """Fork a trie node into a fresh, independent live recording run."""
        recording_device = RecordingDevice(
            node.device.snapshot(name="workload-cow"), name="wrapper0"
        )
        recording_device.restore_log(node.log, node.checkpoints,
                                     node.write_requests, node.recorded_bytes,
                                     node.stable, node.window)
        fs = node.fs.fork(recording_device)
        tracker = node.tracker.fork(fs)
        executor = WorkloadExecutor(fs, strict=self.strict)
        executor.executed = node.executed
        executor.skipped = node.skipped
        executor.persistence_count = node.persistence_count
        return _LiveRun(recording_device, fs, tracker, dict(node.oracles), dict(node.records),
                        executor)

    # ------------------------------------------------------------------ finish

    def _finish(self, run: _LiveRun, workload: Workload, base_image: BlockDevice,
                resumed: Optional[_PrefixNode]) -> WorkloadProfile:
        """The profile of a finished run; ``resumed`` is the cached node it
        started from, ``None`` for a run that formatted and mounted itself."""
        # The run's fork is simply dropped, still mounted: every crash point
        # precedes the end of the workload, so nothing an unmount would write
        # could reach a crash state.
        return WorkloadProfile(
            workload=workload,
            fs_name=self.fs_name,
            fs_model=self.fs_model,
            bugs=self.bugs,
            base_image=base_image,
            io_log=run.recording_device.log,
            oracles=run.oracles,
            tracker_views=run.tracker.views(),
            records=run.records,
            num_checkpoints=run.recording_device.num_checkpoints,
            executed_ops=run.executor.executed,
            skipped_ops=run.executor.skipped,
            recorded_bytes=run.recording_device.recorded_bytes(),
            workload_overlay_bytes=run.recording_device.target.overlay_bytes(),
            prefix_shared=resumed is not None,
            prefix_ops_reused=resumed.depth if resumed else 0,
            prefix_writes_reused=resumed.write_requests if resumed else 0,
            prefix_seconds_saved=resumed.elapsed if resumed else 0.0,
        )
