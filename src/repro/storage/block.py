"""Block-size constants and small helpers shared by the storage layer.

The simulated devices use a fixed 4096-byte block, matching the page-sized
I/O the paper's wrapper block device observes.  Underneath that block, real
disks persist 512-byte *sectors*: a power failure can tear a block write in
the middle, leaving the first few sectors of the new payload on the platter
and the rest of the block at its prior content.  The sector constants and
:func:`compose_torn_block` model exactly that failure mode for the ``torn``
crash plan.
"""

from __future__ import annotations

BLOCK_SIZE = 4096

#: Size of the atomically-persisted disk unit.  Writes of a whole block are
#: *not* atomic on power failure; writes of a single sector are.
SECTOR_SIZE = 512

SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE

#: Default device size: 100 MiB, the "clean file-system image of size 100MB"
#: that Table 3 lists as the initial state used by ACE.
DEFAULT_DEVICE_BLOCKS = (100 * 1024 * 1024) // BLOCK_SIZE

ZERO_BLOCK = bytes(BLOCK_SIZE)


def pad_block(data) -> bytes:
    """Pad ``data`` with zero bytes to exactly one block.

    An exactly-block-sized ``bytes`` payload passes through uncopied, so a
    recorded request and the overlay it lands in share one object.  Raises
    ``ValueError`` if the payload is larger than a block; callers that need
    multi-block payloads must split them first.
    """
    length = len(data)
    if length > BLOCK_SIZE:
        raise ValueError(f"payload of {length} bytes does not fit in a {BLOCK_SIZE}-byte block")
    if length == 0:
        return ZERO_BLOCK
    return bytes(data).ljust(BLOCK_SIZE, b"\0")


def compose_torn_block(new_data, prior, sectors_applied: int) -> bytes:
    """Content of a block whose write was torn after ``sectors_applied`` sectors.

    The first ``sectors_applied`` sectors come from the (padded) new payload,
    the rest from the block's prior content — the state a mid-write power
    failure leaves behind.  ``sectors_applied`` of 0 reproduces the prior
    content and ``SECTORS_PER_BLOCK`` the fully-applied write.
    """
    if not 0 <= sectors_applied <= SECTORS_PER_BLOCK:
        raise ValueError(
            f"sectors_applied must be within [0, {SECTORS_PER_BLOCK}], got {sectors_applied}"
        )
    cut = sectors_applied * SECTOR_SIZE
    new_padded = pad_block(new_data)
    prior_padded = pad_block(prior)
    if cut == 0:
        return prior_padded
    if cut == BLOCK_SIZE:
        return new_padded
    return new_padded[:cut] + prior_padded[cut:]


def split_blocks(data: bytes) -> list:
    """Split ``data`` into a list of block-sized chunks, padding the last one."""
    if not data:
        return []
    chunks = []
    for offset in range(0, len(data), BLOCK_SIZE):
        chunks.append(pad_block(data[offset:offset + BLOCK_SIZE]))
    return chunks


def blocks_needed(num_bytes: int) -> int:
    """Number of blocks required to hold ``num_bytes`` bytes."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    return (num_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE
