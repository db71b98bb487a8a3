"""Workload profiler (CrashMonkey phase 1).

Profiling runs the workload once on a freshly formatted file system mounted
on the recording wrapper device.  It produces everything the later phases
need:

* the base disk image (the initial file-system state),
* the recorded block I/O stream with checkpoint markers after every
  persistence operation,
* an oracle per persistence point,
* the persisted-set tracker views per persistence point.

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
views, checkpoints) is byte-for-byte identical to from-scratch recording —
execution is deterministic and the forked state *is* the state the from-
scratch run would have reached — the shared prefix writes are just performed
once instead of once per sibling.

Because ACE generates families depth-first, caching the single most recent
path through the trie is enough to record every shared prefix exactly once
for a prefix-ordered stream; an out-of-order stream merely falls back to
recording from scratch (the cache is an optimization, never a correctness
requirement).

A caller that knows the *upcoming* workload (``CrashMonkey.test_stream``
peeks one ahead) passes it to :meth:`WorkloadRecorder.profile`; nodes are
then frozen only along the operation prefix the two workloads share — the
only nodes the upcoming workload's resume does not drop unread.  Without
that knowledge every depth is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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
    counters).  Oracles and tracker views captured so far are shared, not
    copied — they are frozen at capture time and never mutated afterwards.
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


class _LiveRun:
    """The mutable state of one in-progress recording run."""

    def __init__(self, recording_device: RecordingDevice, fs, tracker: PersistenceTracker,
                 oracles: Dict[int, Oracle], executor: WorkloadExecutor):
        self.recording_device = recording_device
        self.fs = fs
        self.tracker = tracker
        self.oracles = oracles
        self.executor = executor

    def on_persistence(self, op: Operation, index: int) -> None:
        """Mark the checkpoint and capture its expectations from one tree walk."""
        checkpoint_id = self.recording_device.mark_checkpoint()
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
                Pass the harness-wide store so recorder and replay spines
                share one resident budget; ``None`` builds a private store
                with the default budget.  Profiles are byte-for-byte
                identical whether nodes spill or stay resident.
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
        #: the last ``upcoming`` workload and its ``prefix_keys()``, so the
        #: keys are hashed once when that same object arrives to be profiled
        #: (one entry here, not a memo on each ``Workload``: the campaign
        #: retains its inputs, and their keys with them)
        self._lookahead: Tuple[Optional[Workload], Tuple[str, ...]] = (None, ())
        # -- prefix-sharing accounting (campaign-lifetime totals) ------------
        #: profiles that resumed from the cache instead of re-running mkfs
        self.prefix_hits = 0
        #: operations inherited from shared prefixes across all profiles
        self.prefix_ops_reused = 0
        #: write requests inherited from shared prefixes across all profiles
        self.prefix_writes_reused = 0
        #: recording seconds saved by resuming instead of re-running prefixes
        self.prefix_seconds_saved = 0.0
        #: spine nodes frozen (roots included) across all profiles
        self.spine_freezes = 0

    def _make_pristine_image(self) -> BlockDevice:
        device = BlockDevice(self.device_blocks, name=f"{self.fs_name}-pristine")
        self.fs_class.mkfs(device, self.bugs)
        return device

    # ------------------------------------------------------------------ public API

    def profile(self, workload: Workload,
                upcoming: Optional[Workload] = None) -> WorkloadProfile:
        """Run ``workload`` once, recording I/O, oracles, and persisted sets.

        ``upcoming`` is the workload the caller will profile next, when it
        knows: the spine then keeps only the nodes that workload can resume
        from.  It never changes the returned profile, and a wrong guess
        costs the next profile its cache hit, nothing else.
        """
        with span() as clock:
            if self.share_prefixes:
                profile = self._profile_shared(workload, upcoming, clock)
            else:
                profile = self._profile_from_scratch(workload)
            profile.profile_seconds = clock.seconds
        return profile

    def clear_prefix_cache(self) -> None:
        """Drop the cached trie spine (frees the snapshots it holds)."""
        self._spine.truncate(0)

    # ------------------------------------------------------------------ from scratch

    def _profile_from_scratch(self, workload: Workload) -> WorkloadProfile:
        base_image = self._pristine_image.copy(name=f"{self.fs_name}-base")
        recording_device = RecordingDevice(CowDevice(base_image, name="workload-cow"))
        fs = self.fs_class(recording_device, self.bugs)
        fs.mount()

        tracker = PersistenceTracker(fs)
        oracles: Dict[int, Oracle] = {}
        executor = WorkloadExecutor(fs, strict=self.strict)
        run = _LiveRun(recording_device, fs, tracker, oracles, executor)
        executor.run(workload, on_persistence=run.on_persistence,
                     before_operation=tracker.before_operation)
        return self._finish(run, workload, base_image, resumed=None)

    # ------------------------------------------------------------------ prefix shared

    def _profile_shared(self, workload: Workload, upcoming: Optional[Workload],
                        clock: span) -> WorkloadProfile:
        expected, prefix_keys = self._lookahead
        if workload is not expected:
            prefix_keys = workload.prefix_keys()
        # Deepest node worth freezing: the upcoming workload's resume keeps
        # the spine up to its shared prefix with this one and drops the rest.
        keep_depth = len(workload.ops)
        if upcoming is not None:
            self._lookahead = (upcoming, upcoming.prefix_keys())
            keep_depth = _shared_depth(prefix_keys, self._lookahead[1])
        # Nodes past the divergence point belong to the previous workload's
        # suffix; the spine is a single path, so they are dropped — as is a
        # node whose spill file is gone or torn, in favour of its parent.
        self._spine.truncate(_shared_depth(prefix_keys, self._spine.stubs) + 1)
        resumed = self._spine.deepest()
        if resumed is not None:
            node = resumed
            self.prefix_hits += 1
            self.prefix_ops_reused += node.depth
            self.prefix_writes_reused += node.write_requests
            self.prefix_seconds_saved += node.elapsed
        else:
            # Cold cache: build the root (mkfs base + mount) and freeze it.
            node = self._make_root_node(prefix_keys[0], clock)
            self._remember(node)
        base_elapsed = node.elapsed

        run = self._resume_from(node)

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
            if index < keep_depth:
                self._remember(self._freeze(run, depth=index + 1, op=op,
                                            prefix_key=prefix_keys[index + 1],
                                            elapsed=base_elapsed + exec_seconds))

        run.executor.run(workload, on_persistence=run.on_persistence,
                         before_operation=before_operation,
                         after_operation=after_operation, start_index=node.depth)
        return self._finish(run, workload, self._spine.base, resumed)

    def _remember(self, node: _PrefixNode) -> None:
        """Append a frozen node to the spine, sized by what it pins."""
        nbytes = node.fs.fork_bytes() + node.device.overlay_bytes() + node.recorded_bytes
        self._spine.push(node, nbytes, stub=node.prefix_key)
        self.spine_freezes += 1

    def _make_root_node(self, prefix_key: str, clock: span) -> _PrefixNode:
        """Format-and-mount once: the trie root every workload shares;
        ``clock`` is the profile's, so the root's ``elapsed`` is the run so far."""
        recording_device = RecordingDevice(CowDevice(self._spine.base, name="workload-cow"))
        fs = self.fs_class(recording_device, self.bugs)
        fs.mount()
        tracker = PersistenceTracker(fs)
        run = _LiveRun(recording_device, fs, tracker, {},
                       WorkloadExecutor(fs, strict=self.strict))
        return self._freeze(run, depth=0, op=None, prefix_key=prefix_key,
                            elapsed=clock.seconds)

    def _freeze(self, run: _LiveRun, depth: int, op: Optional[Operation],
                prefix_key: str, elapsed: float) -> _PrefixNode:
        """Capture the live run as an immutable trie node (O(1) device fork)."""
        device = run.recording_device
        return _PrefixNode(
            depth=depth,
            op=op,
            prefix_key=prefix_key,
            device=device.target.snapshot(name=f"prefix-{depth}"),
            log=device.log,
            checkpoints=device.num_checkpoints,
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
                                     node.write_requests, node.recorded_bytes)
        fs = node.fs.fork(recording_device)
        tracker = node.tracker.fork(fs)
        executor = WorkloadExecutor(fs, strict=self.strict)
        executor.executed = node.executed
        executor.skipped = node.skipped
        executor.persistence_count = node.persistence_count
        return _LiveRun(recording_device, fs, tracker, dict(node.oracles), executor)

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
