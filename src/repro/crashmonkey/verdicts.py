"""Checkpoint records, crash states and the verdicts recovery reaches on them.

A :class:`_CheckpointRecord` is what the recording run captures at one
persistence point: the forks and the in-flight window every crash state of
that checkpoint derives from.  A :class:`CrashState` is what the generator
yields per crash scenario; a :class:`CrashVerdict` is what mounting and
checking one concluded, shared by every state of the checkpoint that recovery
cannot tell from it.  The :class:`_VerdictMemo` of a checkpoint record finds
those states by content — first by every block the checkpoint's states can
differ in, then by the blocks recovery and the checks actually read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..errors import UnmountableError
from ..fs import fsck
from ..storage.block import BLOCK_SIZE, compose_torn_block, pad_block
from ..storage.cow_device import CowDevice, ReadLog
from ..storage.io_request import IORequest
from .crashplan import CrashScenario
from .oracle import Oracle
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
    #: depends on what the recorder's spine still holds: session telemetry)
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
    exactly the workloads that share the record: siblings whose recording
    resumed from a prefix node past the checkpoint.  A verdict also depends
    on the checkpoint's oracle and tracker view, so the memo remembers the
    two *objects* it was filled under and starts over when handed any others
    (:meth:`verdicts_under`); prefix-shared recording gives siblings the same
    objects, and anything that rebuilt them — a spilled spine node,
    from-scratch recording — gives new ones.
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
        return tuple([device.read_block(block) for block in self.blocks])

    def _prior_content(self, block: int) -> bytes:
        content = self._prior.get(block)
        if content is None:
            content = self._prior[block] = self._stable.read_block(block)
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
                    payload = self._payloads[seq] = pad_block(request.data)
            else:
                block = request.block
                payload = compose_torn_block(
                    request.data, content.get(block) or self._prior_content(block), sectors)
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
    """Forks and in-flight window the recording run captured at one
    checkpoint marker."""

    checkpoint_id: int
    #: position of the checkpoint's marker in the recorded stream
    marker: int
    #: every recorded write up to the marker applied (the prefix state)
    baseline: CowDevice
    #: state as of the last flush barrier before the marker
    stable: CowDevice
    #: writes issued after that barrier, in issue order (FUA included)
    window: Tuple[IORequest, ...]

    @cached_property
    def memo(self) -> _VerdictMemo:
        """Verdicts of this checkpoint's crash states; born with the record's
        first scenario and dropped with the record, so a record thawed from
        a spill starts empty."""
        return _VerdictMemo(self.stable, self.window)

    def __reduce__(self):
        # The memo does not ride through a spill: its verdicts were filed
        # under expectation objects a thawed sibling no longer holds.
        return _CheckpointRecord, (self.checkpoint_id, self.marker, self.baseline,
                                   self.stable, self.window)
