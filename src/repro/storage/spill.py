"""Cached spines under a resident-memory budget: store, spine, serialiser.

The prefix-shared recorder keeps one cached path of frozen nodes — one per
operation — made of live objects: ``CowDevice`` forks, file-system and
tracker forks, slices of the recorded log and the checkpoint records taken
so far.  At seq-1 and seq-2 depths that is cheap; at seq-3 the cached
spine starts competing with live crash states for RAM.

* :class:`SpineStore` keeps the hot tail of the spine resident in an LRU
  bounded by a byte budget and spills cold nodes to a per-campaign directory.
  Spilled nodes rehydrate transparently on access and are parity-proven
  identical to never-spilled nodes (the tier-1 suite replays the full seq-1
  space of every simulated file system with a zero budget).
* :class:`Spine` is the one cached path the owner holds: always-resident
  *stubs* (whatever the owner matches prefixes on) beside the store keys of
  the full nodes, the only caller of the store's ``put`` / ``get`` / ``drop``.
* The serialiser pickles the node object itself.  It knows two *storage*
  types and nothing of what a node means: a ``CowDevice`` is written as its
  merged overlay delta and thawed over the base image the owning spine
  supplies, and an ``IORequest`` is written with its payload flattened
  through :func:`~.block.materialize_payload` (the one sanctioned copy point
  — a slab-backed ``memoryview`` can neither be pickled nor allowed to reach
  disk holding its arena).  Pickle's own memo keeps the node's identity
  topology: two references to one device thaw as one device.  What must not
  ride through a spill is declared by the node types themselves
  (``__reduce__`` / ``__getstate__``).  This module never touches a slab
  chunk or a raw ``bytearray``, which ``tools/repro_lint.py`` enforces.
"""

from __future__ import annotations

import contextlib
import copyreg
import io
import os
import pickle
import struct
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import replace
from typing import Any, List, Optional

from ..errors import SpillMissError
from .block import materialize_payload
from .block_device import BlockDevice
from .cow_device import CowDevice
from .io_request import IORequest

#: Default resident budget: generous enough that seq-1/seq-2 campaigns never
#: spill (their whole spines fit comfortably), so behavior and performance
#: are unchanged unless a budget is asked for.
DEFAULT_SPINE_MEMORY_BUDGET = 256 * 1024 * 1024

#: Environment override for the default budget (integer bytes).  Explicit
#: constructor arguments always win; the variable only moves the default.
SPINE_BUDGET_ENV = "REPRO_SPINE_BUDGET"

#: Spill-file frame: payload length and crc32, little-endian, then the
#: pickled payload.  A short, torn or bit-flipped file fails one of the two.
_FRAME = struct.Struct("<II")


def default_spine_memory_budget() -> int:
    """Resident-byte budget to use when none is passed explicitly.

    Reads ``REPRO_SPINE_BUDGET`` (integer bytes); blank or unparsable values
    fall back to :data:`DEFAULT_SPINE_MEMORY_BUDGET`, negative values clamp
    to 0 (spill everything).
    """
    raw = os.environ.get(SPINE_BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_SPINE_MEMORY_BUDGET
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_SPINE_MEMORY_BUDGET
    return max(0, value)


class _BaseImage:
    """Stands in a spill file for "the base image of the owning spine".

    Pickled by reference, like any class; :class:`_Thaw` answers the lookup
    with the base the fetching spine supplies, so a spill file never holds a
    base image and a thawed device sits on the campaign's shared one.
    """


def _reduce_device(device: CowDevice):
    overlay = {block: materialize_payload(data)
               for block, data in device.overlay_delta().items()}
    return CowDevice.from_overlay, (_BaseImage, overlay, device.name)


def _reduce_request(request: IORequest):
    if isinstance(request.data, memoryview):
        request = replace(request, data=materialize_payload(request.data))
    return request.__reduce_ex__(pickle.HIGHEST_PROTOCOL)


class _Freeze(pickle.Pickler):
    """Pickles a node as it is, bar the two storage types reduced above."""

    dispatch_table = {**copyreg.dispatch_table,
                      CowDevice: _reduce_device, IORequest: _reduce_request}


class _Thaw(pickle.Unpickler):
    """Unpickles a node, sitting its devices on ``base``."""

    def __init__(self, file, base: Optional[BlockDevice]):
        super().__init__(file)
        self._base = base

    def find_class(self, module: str, name: str):
        if name == _BaseImage.__name__ and module == __name__:
            return self._base
        return super().find_class(module, name)


class _Entry:
    """One stored node: resident, spilled to ``path``, both — or, after a
    failed spill write or an unreadable spill file, neither (lost)."""

    __slots__ = ("nbytes", "node", "path")

    def __init__(self, nbytes: int, node: Any):
        self.nbytes = nbytes
        self.node: Optional[Any] = node
        self.path: Optional[str] = None


class SpineStore:
    """Budgeted LRU of frozen spine nodes with transparent disk spill.

    One store serves a harness's spine; engine pool workers each build their
    own harness and store but may share one spill directory — file names
    carry the owning pid and a per-store counter, so they never collide.

    Nodes are immutable once stored, which buys two properties: a node
    already on disk re-evicts by just dropping the resident reference (no
    rewrite, ``spills`` counts real file writes only), and rehydration may
    hand back a fresh object graph without coordination.
    """

    _instances = 0

    def __init__(self, memory_budget: Optional[int] = None,
                 spill_dir: Optional[str] = None, name: str = "spine"):
        if memory_budget is None:
            memory_budget = default_spine_memory_budget()
        self.memory_budget = max(0, memory_budget)
        self.name = name
        self._explicit_dir = spill_dir
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        #: the spill directory, once the first spill has made it
        self._root: Optional[str] = None
        SpineStore._instances += 1
        self._prefix = f"{os.getpid()}-{SpineStore._instances}-{name}"
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._next_key = 0
        #: bytes of node payload currently held resident
        self.resident_bytes = 0
        #: high-water mark of ``resident_bytes`` *after* budget enforcement,
        #: so a respected budget implies ``peak_resident_bytes <= budget``
        self.peak_resident_bytes = 0
        #: count of nodes written to disk (re-evictions of an already-spilled
        #: node do not rewrite and do not count)
        self.spills = 0
        #: total bytes of node payload written to disk
        self.spilled_bytes = 0
        #: count of nodes read back from disk
        self.rehydrations = 0
        #: count of nodes lost to a failed spill write or an unreadable
        #: spill file (each surfaces as one :class:`SpillMissError`)
        self.lost = 0

    # -- storage -------------------------------------------------------------

    def put(self, node: Any, nbytes: int) -> int:
        """Adopt a frozen node, returning its retrieval key.

        The node stays resident (and most-recently-used) until the budget
        pushes it out; freezing is lazy — nothing is serialized unless an
        eviction actually happens.
        """
        key = self._next_key
        self._next_key += 1
        self._entries[key] = _Entry(max(0, nbytes), node)
        self.resident_bytes += max(0, nbytes)
        self._enforce_budget()
        return key

    def get(self, key: int, base: Optional[BlockDevice] = None) -> Any:
        """Fetch a node, rehydrating from disk if it was spilled — its
        devices then sit on ``base``.

        The node becomes most-recently-used.  The budget is re-enforced
        after rehydration, which may evict colder entries — or, under a
        zero/tiny budget, the entry just fetched; that is safe because the
        caller holds the returned reference and entries are immutable.

        Raises :class:`SpillMissError` when the node was lost: its spill
        write failed, or its spill file no longer reads back intact.
        """
        entry = self._entries[key]
        self._entries.move_to_end(key)
        if entry.node is None:
            if entry.path is None:
                raise SpillMissError(
                    f"spine node {key} was lost (spill write failed or spill "
                    "file unreadable)"
                )
            node = self._rehydrate(entry, base)
            entry.node = node
            self.resident_bytes += entry.nbytes
            # Re-enforcing may immediately evict the entry just fetched
            # (zero/tiny budgets); the local reference keeps the returned
            # node alive for the caller regardless.
            self._enforce_budget()
            return node
        return entry.node

    def drop(self, key: int) -> None:
        """Forget a node entirely, releasing memory and any spill file."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.node is not None:
            self.resident_bytes -= entry.nbytes
        if entry.path is not None:
            with contextlib.suppress(OSError):
                os.unlink(entry.path)

    def clear(self) -> None:
        """Drop every stored node (telemetry counters are preserved)."""
        for key in list(self._entries):
            self.drop(key)

    def close(self) -> None:
        """Drop everything and release the store's temporary directory."""
        self.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
        self._root = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- spill mechanics -----------------------------------------------------

    def _spill_root(self) -> str:
        """The spill directory, made by the store's first spill."""
        if self._root is None:
            if self._explicit_dir is not None:
                os.makedirs(self._explicit_dir, exist_ok=True)
                self._root = self._explicit_dir
            else:
                self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-spine-")
                self._root = self._tmpdir.name
        return self._root

    def _enforce_budget(self) -> None:
        """Evict least-recently-used entries until under budget.

        Called after every put/get; the peak gauge is advanced *after*
        eviction so a run that respects the budget reports a peak within it.
        """
        if self.resident_bytes > self.memory_budget:
            for key, entry in list(self._entries.items()):
                if self.resident_bytes <= self.memory_budget:
                    break
                if entry.node is None:
                    continue
                self._evict(key, entry)
        if self.resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes

    def _evict(self, key: int, entry: _Entry) -> None:
        """Release an entry's resident node, spilling it first if needed.

        A failed spill write (full disk, vanished directory) loses the node
        instead of raising: eviction runs in the middle of a recording or a
        build, and a spine is a cache.  The loss surfaces as a
        :class:`SpillMissError` from the next :meth:`get` of that key.
        """
        if entry.path is None:
            buffer = io.BytesIO()
            _Freeze(buffer, pickle.HIGHEST_PROTOCOL).dump(entry.node)
            blob = buffer.getvalue()
            try:
                entry.path = self._write_spill_file(key, blob)
            except OSError:
                self.lost += 1
            else:
                self.spills += 1
                self.spilled_bytes += len(blob)
        entry.node = None
        self.resident_bytes -= entry.nbytes

    def _write_spill_file(self, key: int, blob: bytes) -> str:
        """Write a framed blob so the final name only ever holds a whole file.

        A spill directory that vanished is made again, so it costs the nodes
        whose files it held and no later one.
        """
        root = self._spill_root()
        path = os.path.join(root, f"{self._prefix}-{key}.node")
        try:
            return self._write_framed(path, blob)
        except FileNotFoundError:
            os.makedirs(root, exist_ok=True)
            return self._write_framed(path, blob)

    @staticmethod
    def _write_framed(path: str, blob: bytes) -> str:
        scratch = path + ".tmp"
        try:
            with open(scratch, "wb") as handle:
                handle.write(_FRAME.pack(len(blob), zlib.crc32(blob)))
                handle.write(blob)
            os.replace(scratch, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(scratch)
            raise
        return path

    def _rehydrate(self, entry: _Entry, base: Optional[BlockDevice]) -> Any:
        """Read a spilled node back, verifying the frame before unpickling."""
        try:
            with open(entry.path, "rb") as handle:
                header = handle.read(_FRAME.size)
                blob = handle.read()
            length, crc = _FRAME.unpack(header)
            if len(blob) != length or zlib.crc32(blob) != crc:
                raise ValueError("length/crc mismatch")
            node = _Thaw(io.BytesIO(blob), base).load()
        except (OSError, EOFError, ValueError, struct.error,
                pickle.UnpicklingError) as exc:
            path, entry.path = entry.path, None
            self.lost += 1
            with contextlib.suppress(OSError):
                os.unlink(path)
            raise SpillMissError(f"spill file {path} is unreadable: {exc}") from exc
        self.rehydrations += 1
        return node


class Spine:
    """One cached path of frozen nodes over a :class:`SpineStore`.

    Node ``i`` extends node ``i - 1`` by one or more steps (an owner need
    not push every depth it passes); the owner matches a new path against
    :attr:`stubs` — one small always-resident value per node, of the owner's
    choosing — truncates to the shared prefix and resumes from the deepest
    node that still reads.  The full nodes live in the store under the shared
    budget.  A spine is a cache: a node whose spill file was lost reads as
    ``None`` and costs that node, never a wrong answer.
    """

    def __init__(self, store: SpineStore):
        self.store = store
        #: what a thawed node's devices sit on; the owner sets it before the
        #: first push and keeps it for as long as the spine holds nodes
        self.base: Optional[BlockDevice] = None
        self.stubs: List[Any] = []
        self._keys: List[int] = []

    def __len__(self) -> int:
        return len(self._keys)

    def push(self, node: Any, nbytes: int, stub: Any) -> None:
        """Append ``node`` (``nbytes`` of budget) with its resident ``stub``."""
        self._keys.append(self.store.put(node, nbytes))
        self.stubs.append(stub)

    def truncate(self, length: int) -> None:
        """Drop the nodes past ``length``, releasing what the store holds."""
        for key in self._keys[length:]:
            self.store.drop(key)
        del self._keys[length:]
        del self.stubs[length:]

    def fetch(self, index: int) -> Optional[Any]:
        """Node ``index`` (a disk read only if it spilled), ``None`` if lost."""
        try:
            return self.store.get(self._keys[index], self.base)
        except SpillMissError:
            return None

    def deepest(self) -> Optional[Any]:
        """The deepest node that reads, truncating past it; ``None`` = cold.

        A lost node costs itself: its parent on the spine resumes the same
        path from a little shallower.
        """
        while self._keys:
            node = self.fetch(len(self._keys) - 1)
            if node is not None:
                return node
            self.truncate(len(self._keys) - 1)
        return None
