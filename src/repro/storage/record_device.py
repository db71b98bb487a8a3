"""Recording wrapper device.

The paper's first kernel module is a wrapper block device mounted under the
target file system: it records every write (data and metadata), and inserts a
special empty *checkpoint* request into the recorded stream whenever a
persistence operation completes, so that the low-level I/O stream can be
correlated with the workload's persistence points.

``RecordingDevice`` plays that role here.  The file system under test writes
through it; the CrashMonkey harness calls :meth:`mark_checkpoint` right after
every fsync/fdatasync/sync/msync in the workload returns.

It also keeps what a crash state is built from while the stream is recorded:
an O(1) fork of its copy-on-write target at every flush barrier (the
:attr:`stable` state, durable whatever the crash) and the write requests
issued since that barrier (the in-flight :attr:`window`), so nobody walks the
stream a second time to find them.

A recorder forks like the file system above it (:meth:`fork`): prefix-shared
profiling freezes a recording run after an operation and resumes siblings
from that frozen copy, each continuing the same stream.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .block import BLOCK_SIZE, pad_block
from .cow_device import CowDevice
from .io_request import IOFlag, IOKind, IORequest


class RecordingDevice:
    """Wraps a copy-on-write device and records the write stream issued to it."""

    def __init__(self, target: CowDevice, name: str = "wrapper0"):
        self.target = target
        self.name = name
        self.num_blocks = target.num_blocks
        self._log: List[IORequest] = []
        self._seq = 0
        self._checkpoints = 0
        #: write requests in the log, and their payload bytes, kept as the
        #: log grows so nobody rescans it per operation
        self.write_requests = 0
        self._recorded_bytes = 0
        #: fork of the target as of the last recorded flush barrier
        self.stable = target.snapshot(name="stable")
        self._window: List[IORequest] = []

    # -- pass-through I/O ----------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * BLOCK_SIZE

    def read_block(self, block: int) -> bytes:
        return self.target.read_block(block)

    def write_block(self, block: int, data, *, metadata: bool = False,
                    fua: bool = False, tag: str = "") -> None:
        """Write a block through to the target, recording the request.

        ``fua`` marks a forced-unit-access write: durable when it completes,
        so the crash planners never treat it as in-flight.
        """
        # Pad the payload exactly once and share the same object between the
        # target's overlay and the recorded request: re-reading it back from
        # the target would issue a spurious device read per recorded write,
        # and padding twice (here and in the CoW overlay) would allocate two
        # block-sized copies per recorded write.
        payload = pad_block(data)
        self.target.write_block(block, payload)
        flags: Tuple[IOFlag, ...] = (IOFlag.METADATA,) if metadata else (IOFlag.DATA,)
        if fua:
            flags = flags + (IOFlag.FUA,)
        self._seq += 1
        self.write_requests += 1
        self._recorded_bytes += len(payload)
        request = IORequest(seq=self._seq, kind=IOKind.WRITE, block=block, data=payload,
                            flags=flags, tag=tag)
        self._log.append(request)
        self._window.append(request)

    def flush(self, *, sync: bool = False) -> None:
        """Record a flush/barrier request and forward it to the target."""
        self.target.flush()
        flags: Tuple[IOFlag, ...] = (IOFlag.SYNC,) if sync else tuple()
        self._seq += 1
        self._log.append(IORequest(seq=self._seq, kind=IOKind.FLUSH, flags=flags))
        # Everything before the barrier is durable: fork the stable state and
        # start a fresh in-flight window.
        self.stable = self.target.snapshot(name="stable")
        self._window = []

    # -- checkpointing ---------------------------------------------------------

    def mark_checkpoint(self) -> int:
        """Insert a checkpoint marker after a persistence operation completed.

        Returns the 1-based checkpoint id assigned to the marker.
        """
        self._checkpoints += 1
        self._seq += 1
        self._log.append(
            IORequest(
                seq=self._seq,
                kind=IOKind.CHECKPOINT,
                checkpoint_id=self._checkpoints,
                flags=(IOFlag.SYNC,),
            )
        )
        return self._checkpoints

    def fork(self) -> "RecordingDevice":
        """An independent recorder continuing this one's stream.

        The target is forked in O(1) (``CowDevice.snapshot``) and the log and
        window are copied, so requests either side records later are its
        own; sequence numbers and checkpoint ids carry on from here on both.
        ``stable`` is a fork nobody writes to, and is shared.
        """
        twin = object.__new__(RecordingDevice)
        twin.__dict__.update(self.__dict__)
        twin.target = self.target.snapshot(name=self.target.name)
        twin._log = list(self._log)
        twin._window = list(self._window)
        return twin

    # -- introspection -----------------------------------------------------------

    @property
    def log(self) -> Sequence[IORequest]:
        """The recorded request stream, in issue order."""
        return tuple(self._log)

    @property
    def num_requests(self) -> int:
        """Requests recorded so far (``len(log)`` without the copy)."""
        return len(self._log)

    @property
    def window(self) -> Tuple[IORequest, ...]:
        """Write requests recorded since the last flush barrier, in issue order."""
        return tuple(self._window)

    @property
    def num_checkpoints(self) -> int:
        return self._checkpoints

    def recorded_bytes(self) -> int:
        """Total payload bytes recorded (write requests only)."""
        return self._recorded_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordingDevice(name={self.name!r}, requests={len(self._log)}, "
            f"checkpoints={self._checkpoints})"
        )
