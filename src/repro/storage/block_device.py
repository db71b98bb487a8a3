"""In-memory block device.

This is the bottom of the simulated storage stack: a fixed number of
4096-byte blocks addressed by block number.  Unwritten blocks read back as
zeroes, which keeps memory usage proportional to the number of blocks ever
written (the same property the paper relies on for its copy-on-write RAM
device).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..errors import InvalidBlockError
from .block import BLOCK_SIZE, DEFAULT_DEVICE_BLOCKS, ZERO_BLOCK, pad_block


class BlockDevice:
    """A sparse, in-memory array of fixed-size blocks."""

    def __init__(self, num_blocks: int = DEFAULT_DEVICE_BLOCKS, name: str = "ram0"):
        if num_blocks <= 0:
            raise ValueError("a block device needs at least one block")
        self.num_blocks = num_blocks
        self.name = name
        self._blocks: Dict[int, bytes] = {}
        self.writes = 0
        self.reads = 0
        self.flushes = 0

    # -- capacity ---------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * BLOCK_SIZE

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.num_blocks:
            raise InvalidBlockError(
                f"block {block} out of range for device {self.name!r} with {self.num_blocks} blocks"
            )

    # -- I/O ---------------------------------------------------------------

    def read_block(self, block: int) -> bytes:
        """Read one block; unwritten blocks are all zeroes."""
        self._check_block(block)
        self.reads += 1
        return self._blocks.get(block, ZERO_BLOCK)

    def write_block(self, block: int, data: bytes, *, metadata: bool = False,
                    fua: bool = False, tag: str = "") -> None:
        """Write one block, padding short payloads with zeroes.

        The annotations are the recording wrapper's; a plain device accepts
        and ignores them, so a file system issues one call shape to any device.
        """
        self._check_block(block)
        self.writes += 1
        self._blocks[block] = pad_block(data)

    def flush(self, *, sync: bool = False) -> None:
        """Persist outstanding writes.  A no-op for the RAM device."""
        self.flushes += 1

    # -- bulk helpers ------------------------------------------------------

    def written_blocks(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate over ``(block, data)`` pairs that have been written."""
        return iter(sorted(self._blocks.items()))

    def used_blocks(self) -> int:
        """Number of distinct blocks holding data."""
        return len(self._blocks)

    def copy(self, name: Optional[str] = None) -> "BlockDevice":
        """Deep copy of the device (used to freeze base images)."""
        clone = BlockDevice(self.num_blocks, name=name or f"{self.name}-copy")
        clone._blocks = dict(self._blocks)
        return clone

    def content_equal(self, other: "BlockDevice") -> bool:
        """True if both devices hold identical logical contents."""
        if self.num_blocks != other.num_blocks:
            return False
        blocks = set(self._blocks) | set(other._blocks)
        for block in blocks:
            if self._blocks.get(block, ZERO_BLOCK) != other._blocks.get(block, ZERO_BLOCK):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockDevice(name={self.name!r}, blocks={self.num_blocks}, used={self.used_blocks()})"
