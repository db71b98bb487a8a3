"""Contiguous block-payload slabs.

The simulated stack moves every payload as an individual ``bytes`` object:
the recorder pads a payload once for its log and the CoW overlay pads it
again, so each recorded write allocates (and copies) two block-sized objects.
A :class:`BlockSlab` is an append-only arena of pre-zeroed ``bytearray``
chunks: a payload is copied into the arena exactly once and every consumer —
the recording log, the overlay, replayed crash states — shares a read-only
``memoryview`` of the same storage.  Views are zero-copy on read (slicing a
memoryview slices the buffer, it does not duplicate it) and content-compare
equal to ``bytes``, so the rest of the stack is agnostic to which
representation it holds.

Chunks are never resized once a view has been handed out (resizing an
exported ``bytearray`` raises ``BufferError``), so the arena grows by
allocating fresh chunks — geometrically, to keep small devices (a crash
state that mounts and writes three blocks) from paying a megabyte up front.
"""

from __future__ import annotations

from typing import List

from .block import BLOCK_SIZE

#: First chunk holds this many blocks; each subsequent chunk doubles, up to
#: :data:`MAX_CHUNK_BLOCKS`.  Small devices stay small, busy recorders
#: amortize allocation quickly.
MIN_CHUNK_BLOCKS = 8
MAX_CHUNK_BLOCKS = 256


class BlockSlab:
    """Append-only arena of block-sized payload slots.

    :meth:`store` pads a payload to one block inside the arena and returns a
    read-only ``memoryview`` of the slot.  Slots are write-once: nothing ever
    mutates a filled region, so handed-out views stay stable for the life of
    the slab (and keep their chunk alive via the buffer reference even after
    the slab itself is dropped).
    """

    __slots__ = ("_chunks", "_chunk", "_fill", "_next_blocks", "stored")

    def __init__(self, min_chunk_blocks: int = MIN_CHUNK_BLOCKS):
        if min_chunk_blocks < 1:
            raise ValueError("a slab chunk needs at least one block")
        self._chunks: List[bytearray] = []
        self._chunk: bytearray = bytearray(0)
        self._fill = 0
        self._next_blocks = min_chunk_blocks
        #: payloads stored over the slab's lifetime
        self.stored = 0

    def _grow(self) -> None:
        self._chunk = bytearray(self._next_blocks * BLOCK_SIZE)
        self._chunks.append(self._chunk)
        self._fill = 0
        self._next_blocks = min(self._next_blocks * 2, MAX_CHUNK_BLOCKS)

    def store(self, data) -> memoryview:
        """Copy ``data`` into the arena, zero-padded to one block.

        Returns a read-only view of the padded slot.  Raises ``ValueError``
        for payloads larger than a block, like :func:`~.block.pad_block`.
        """
        length = len(data)
        if length > BLOCK_SIZE:
            raise ValueError(
                f"payload of {length} bytes does not fit in a {BLOCK_SIZE}-byte block"
            )
        if self._fill >= len(self._chunk):
            self._grow()
        start = self._fill
        self._chunk[start:start + length] = data
        self._fill += BLOCK_SIZE
        self.stored += 1
        return memoryview(self._chunk)[start:start + BLOCK_SIZE].toreadonly()

    @property
    def chunks_allocated(self) -> int:
        """Number of bytearray chunks backing the arena."""
        return len(self._chunks)

    def allocated_bytes(self) -> int:
        """Total arena capacity in bytes (filled or not)."""
        return sum(len(chunk) for chunk in self._chunks)

    def filled_bytes(self) -> int:
        """Payload bytes actually stored (block-padded), excluding the
        pre-zeroed unfilled tail of the current chunk.

        This is the number memory accounting should use: ``allocated_bytes``
        includes capacity the geometric growth reserved but nothing has
        written yet, so using it as a payload proxy overstates resident
        payload memory by up to one whole chunk.
        """
        return self.stored * BLOCK_SIZE
