"""Copy-on-write snapshot device.

CrashMonkey's second kernel module is an in-memory copy-on-write block device
that provides fast, writable snapshots: the base image is shared, writes land
in a private overlay, and resetting a snapshot simply drops the overlay.  This
module provides the same facility for the simulated stack.

Snapshots fork in O(1): instead of copying the parent's overlay, the parent's
mutable overlay is *frozen* into an immutable chain that both devices share,
and each side continues writing into its own fresh top overlay.  Reads check
the top overlay, then a merged *chain index* (one dict covering every frozen
layer, maintained incrementally at freeze time and shared with clones), then
the base — so a deep chain of forks costs one extra dict probe per read, not
a linear scan of every layer.  This is what makes the replayer's one-pass
incremental crash-state construction cheap — it forks a snapshot at every
persistence point of the recorded stream.

Every overlay value is a block-sized ``bytes`` object: a write is padded once
by :func:`~.block.pad_block`, which passes an exact block through uncopied.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, Optional, Set, Tuple

from ..errors import HarnessError, InvalidBlockError
from .block import BLOCK_SIZE, ZERO_BLOCK, compose_torn_block, pad_block
from .block_device import BlockDevice

#: When a snapshot's frozen chain grows past this many layers the next fork
#: compacts it into a single layer.  Chains only grow by forking, so this
#: bounds the read-path lookup cost without ever copying on the common
#: few-persistence-points-per-workload case.
CHAIN_COMPACT_THRESHOLD = 32


class ReadLog:
    """Which of the watched blocks were read through a device, until sealed.

    The replayer hangs one on a crash state's device before mounting it,
    watching the blocks in which the checkpoint's crash states can differ:
    recovery, fsck and the checks are deterministic functions of the bytes
    they read, so the logged blocks are exactly what the state's verdict
    depends on.  Once the verdict is filed the log is sealed, and a later read
    through the device raises — it would be a dependency the verdict's twins
    were never compared on.
    """

    __slots__ = ("watched", "blocks", "sealed")

    def __init__(self, watched: Container[int]) -> None:
        self.watched = watched
        self.blocks: Set[int] = set()
        self.sealed = False

    def note(self, block: int) -> None:
        if self.sealed:
            raise HarnessError(
                f"block {block} read through a crash-state device after its verdict was filed"
            )
        if block in self.watched:
            self.blocks.add(block)

    def seal(self) -> None:
        self.sealed = True


class CowDevice:
    """A writable view over a shared, read-only base :class:`BlockDevice`.

    Multiple ``CowDevice`` instances may share one base image (and, after
    forking, any number of frozen overlay layers); each keeps its own mutable
    top overlay of modified blocks.  The base is never written through.
    """

    def __init__(self, base: BlockDevice, name: str = "cow0"):
        self.base = base
        self.name = name
        self.num_blocks = base.num_blocks
        #: immutable, shared overlay layers (oldest → newest); never mutated
        #: after being frozen by :meth:`snapshot`.
        self._chain: Tuple[Dict[int, bytes], ...] = ()
        #: merged view of every frozen layer (newest content wins), rebuilt
        #: incrementally at freeze time and shared with clones (the chain is
        #: immutable), so both the read path and the overlay accounting of a
        #: freshly forked snapshot are O(1) regardless of chain depth.
        self._chain_index: Dict[int, bytes] = {}
        #: this device's private, mutable top overlay.
        self._overlay: Dict[int, bytes] = {}
        #: when set, every :meth:`read_block` is noted in it (the base
        #: fall-through included: the read is logged here, not on the base)
        self.read_log: Optional[ReadLog] = None
        self.writes = 0
        self.reads = 0
        self.flushes = 0

    # -- capacity ----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * BLOCK_SIZE

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.num_blocks:
            raise InvalidBlockError(
                f"block {block} out of range for snapshot {self.name!r} with {self.num_blocks} blocks"
            )

    # -- I/O -----------------------------------------------------------------

    def _visible_block(self, block: int) -> bytes:
        """Content this snapshot currently exposes for ``block``.

        Single lookup path shared by :meth:`read_block` and
        :meth:`write_sectors`: top overlay, then the merged chain index, then
        the base.  Does not touch this device's read accounting (a base
        fall-through still counts on the base, as a real read would).
        """
        data = self._overlay.get(block)
        if data is not None:
            return data
        data = self._chain_index.get(block)
        if data is not None:
            return data
        return self.base.read_block(block)

    def read_block(self, block: int) -> bytes:
        self._check_block(block)
        self.reads += 1
        if self.read_log is not None:
            self.read_log.note(block)
        return self._visible_block(block)

    def write_block(self, block: int, data, *, metadata: bool = False,
                    fua: bool = False, tag: str = "") -> None:
        # Annotations accepted and ignored, as on BlockDevice.
        self._check_block(block)
        self.writes += 1
        self._overlay[block] = pad_block(data)

    def write_sectors(self, block: int, data, sectors_applied: int) -> None:
        """Apply only the first ``sectors_applied`` sectors of a block write.

        Models a torn write: the remaining sectors keep the block's prior
        visible content (overlay chain or base).  The composing read does not
        count towards ``reads`` — no request reaches the device for the part
        of the payload a crash never persisted.
        """
        self._check_block(block)
        prior = self._visible_block(block)
        self.writes += 1
        self._overlay[block] = compose_torn_block(data, prior, sectors_applied)

    def flush(self, *, sync: bool = False) -> None:
        self.flushes += 1

    # -- snapshot management -------------------------------------------------

    def _freeze(self) -> None:
        """Move the mutable overlay into the immutable chain.

        The merged chain index is advanced by *copying* the old index and
        layering the overlay on top: clones holding the previous index keep
        an unmutated dict, and this device's lookups stay one probe deep.
        """
        if self._overlay:
            self._chain = self._chain + (self._overlay,)
            index = dict(self._chain_index)
            index.update(self._overlay)
            self._chain_index = index
            self._overlay = {}
        if len(self._chain) > CHAIN_COMPACT_THRESHOLD:
            # The index already holds the merged contents; reuse it as the
            # single compacted layer (it is never mutated after this point).
            self._chain = (self._chain_index,)

    def snapshot(self, name: Optional[str] = None) -> "CowDevice":
        """Create a new writable snapshot with the same visible contents.

        O(1) in the overlay size: this device's mutable overlay is frozen into
        the shared chain and both devices continue with their own empty top
        overlay, so subsequent writes to either do not affect the other.
        """
        self._freeze()
        clone = CowDevice(self.base, name=name or f"{self.name}-snap")
        clone._chain = self._chain
        clone._chain_index = self._chain_index
        return clone

    def _merged_overlay(self) -> Dict[int, bytes]:
        """All blocks modified relative to the base (chain + top overlay)."""
        merged: Dict[int, bytes] = dict(self._chain_index)
        merged.update(self._overlay)
        return merged

    def overlay_delta(self) -> Dict[int, bytes]:
        """Every block this snapshot changed relative to its base, merged.

        Public accessor for the spill layer: the returned dict plus the base
        image fully determine the snapshot's visible contents, so serializing
        it and replaying it through :meth:`from_overlay` reconstructs a
        content-identical device.
        """
        return self._merged_overlay()

    @classmethod
    def from_overlay(cls, base: BlockDevice, overlay: Dict[int, bytes],
                     name: str = "cow0") -> "CowDevice":
        """Rebuild a snapshot from a base image and a merged overlay delta.

        The inverse of :meth:`overlay_delta`.  The overlay lands as a single
        frozen chain layer, so the rehydrated device behaves exactly like a
        fresh ``snapshot()`` of the original: an empty mutable top overlay,
        fresh counters, and the same visible contents.
        """
        device = cls(base, name=name)
        if overlay:
            layer = dict(overlay)
            device._chain = (layer,)
            device._chain_index = dict(layer)
        return device

    # -- accounting ------------------------------------------------------------

    def overlay_blocks(self) -> int:
        """Number of blocks that have been modified relative to the base."""
        if not self._overlay:
            return len(self._chain_index)
        return len(self._chain_index.keys() | self._overlay.keys())

    def modifies(self, block: int) -> bool:
        """Whether ``block`` is in the overlay, i.e. counted by :meth:`overlay_blocks`."""
        return block in self._overlay or block in self._chain_index

    def overlay_layers(self) -> int:
        """Number of overlay layers (frozen chain + the mutable top)."""
        return len(self._chain) + 1

    def overlay_bytes(self) -> int:
        """Approximate memory the overlay consumes (the paper's §6.5 metric)."""
        return self.overlay_blocks() * BLOCK_SIZE

    def written_blocks(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate over ``(block, data)`` for the visible (merged) contents."""
        merged: Dict[int, bytes] = {}
        for block, data in self.base.written_blocks():
            merged[block] = data
        merged.update(self._merged_overlay())
        return iter(sorted(merged.items()))

    def used_blocks(self) -> int:
        return sum(1 for _ in self.written_blocks())

    def content_equal(self, other) -> bool:
        """Compare visible contents with another device (Cow or plain)."""
        if self.num_blocks != getattr(other, "num_blocks", None):
            return False
        mine = dict(self.written_blocks())
        theirs = dict(other.written_blocks())
        blocks = set(mine) | set(theirs)
        for block in blocks:
            if mine.get(block, ZERO_BLOCK) != theirs.get(block, ZERO_BLOCK):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CowDevice(name={self.name!r}, base={self.base.name!r}, "
            f"overlay_blocks={self.overlay_blocks()}, layers={self.overlay_layers()})"
        )
