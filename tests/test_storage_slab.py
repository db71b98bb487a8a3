"""Zero-copy payload storage: slabs, Payload views, streaming splits.

The zero-copy layer swaps per-block ``bytes`` payloads for read-only
``memoryview`` slices of shared ``bytearray`` arenas.  These tests pin the
invariants the rest of the stack relies on: views are padded, read-only and
stable forever; ``pad_block`` never copies what it can share; devices produce
identical visible bytes with slabs on or off; and checkpoint streaming never
materializes the log.
"""

import pytest

from repro.storage import (
    BLOCK_SIZE,
    BlockDevice,
    BlockSlab,
    CowDevice,
    IOKind,
    IORequest,
    iter_until_checkpoint,
    pad_block,
    split_at_checkpoint,
)
from repro.storage.block import SECTOR_SIZE
from repro.storage.slab import MAX_CHUNK_BLOCKS, MIN_CHUNK_BLOCKS


# --------------------------------------------------------------------------- BlockSlab


class TestBlockSlab:
    def test_store_returns_readonly_padded_view(self):
        slab = BlockSlab()
        view = slab.store(b"hello")
        assert isinstance(view, memoryview)
        assert view.readonly
        assert len(view) == BLOCK_SIZE
        assert view == b"hello" + b"\x00" * (BLOCK_SIZE - 5)
        with pytest.raises(TypeError):
            view[0] = 0

    def test_oversized_payload_is_rejected(self):
        with pytest.raises(ValueError):
            BlockSlab().store(b"x" * (BLOCK_SIZE + 1))

    def test_views_stay_stable_across_arena_growth(self):
        slab = BlockSlab()
        views = [slab.store(bytes([n]) * (n + 1)) for n in range(64)]
        assert slab.chunks_allocated > 1, "growth must actually happen"
        for n, view in enumerate(views):
            assert view[:n + 1] == bytes([n]) * (n + 1), n
            assert bytes(view[n + 1:]) == b"\x00" * (BLOCK_SIZE - n - 1), n

    def test_chunks_grow_geometrically_up_to_the_cap(self):
        slab = BlockSlab(min_chunk_blocks=2)
        for _ in range(20):
            slab.store(b"x")
        sizes = [len(chunk) // BLOCK_SIZE for chunk in slab._chunks]
        assert sizes[0] == 2
        assert all(b <= MAX_CHUNK_BLOCKS for b in sizes)
        assert sizes == sorted(sizes), "chunks never shrink"
        assert slab.allocated_bytes() == sum(sizes) * BLOCK_SIZE
        assert slab.stored == 20
        # filled_bytes counts payload actually stored (block-padded), not the
        # pre-zeroed tail of the current chunk.
        assert slab.filled_bytes() == 20 * BLOCK_SIZE
        assert slab.filled_bytes() <= slab.allocated_bytes()

    def test_rejects_empty_chunk_geometry(self):
        with pytest.raises(ValueError):
            BlockSlab(min_chunk_blocks=0)

    def test_default_geometry_starts_small(self):
        slab = BlockSlab()
        slab.store(b"x")
        assert slab.chunks_allocated == 1
        assert slab.allocated_bytes() == MIN_CHUNK_BLOCKS * BLOCK_SIZE
        assert slab.filled_bytes() == BLOCK_SIZE

    def test_empty_slab_has_no_filled_bytes(self):
        slab = BlockSlab()
        assert slab.filled_bytes() == 0
        assert slab.allocated_bytes() == 0


# --------------------------------------------------------------------------- pad_block


class TestPadBlock:
    def test_exact_size_bytes_are_shared_not_copied(self):
        data = bytes(BLOCK_SIZE)
        assert pad_block(data) is data

    def test_exact_size_readonly_view_is_shared(self):
        view = memoryview(bytes(BLOCK_SIZE))
        assert pad_block(view) is view

    def test_exact_size_writable_view_is_frozen_not_copied(self):
        backing = bytearray(BLOCK_SIZE)
        padded = pad_block(memoryview(backing))
        assert isinstance(padded, memoryview)
        assert padded.readonly
        assert padded.obj is backing

    def test_short_payloads_are_zero_padded(self):
        padded = pad_block(b"abc")
        assert len(padded) == BLOCK_SIZE
        assert padded[:3] == b"abc"

    def test_empty_payload_is_the_shared_zero_block(self):
        assert pad_block(b"") is pad_block(bytearray())


# --------------------------------------------------------------------------- device parity


def _fill_device(device):
    device.write_block(0, b"first")
    snap = device.snapshot(name="snap")
    snap.write_block(1, b"second")
    snap.write_block(0, b"first-again")
    deeper = snap.snapshot(name="deeper")
    deeper.write_sectors(2, b"t" * BLOCK_SIZE, 1)
    return deeper


class TestDeviceSlabParity:
    def test_visible_bytes_identical_with_slabs_on_and_off(self):
        """The slab-backed overlay shows what per-block ``pad_block`` payloads
        (the representation with no slab at all) would."""
        device = _fill_device(CowDevice(BlockDevice(num_blocks=16)))
        reference = [bytes(pad_block(b""))] * 16
        reference[0] = bytes(pad_block(b"first-again"))
        reference[1] = bytes(pad_block(b"second"))
        reference[2] = bytes(pad_block(b"t" * SECTOR_SIZE))  # one sector of the torn write
        assert [bytes(device.read_block(b)) for b in range(16)] == reference

    def test_reads_return_padded_block_sized_payloads(self):
        device = CowDevice(BlockDevice(num_blocks=8))
        device.write_block(3, b"tiny")
        payload = device.read_block(3)
        assert len(payload) == BLOCK_SIZE
        assert payload[:4] == b"tiny"
        assert bytes(payload[4:]) == b"\x00" * (BLOCK_SIZE - 4)

    def test_deep_chains_read_through_the_merged_index(self):
        device = CowDevice(BlockDevice(num_blocks=8))
        device.write_block(0, b"layer-0")
        fork = device
        for n in range(1, 6):
            fork = fork.snapshot(name=f"layer-{n}")
            fork.write_block(n % 4, f"layer-{n}".encode())
        assert bytes(fork.read_block(1))[:7] == b"layer-5"
        assert bytes(fork.read_block(0))[:7] == b"layer-4"
        # Blocks never written still come from the base.
        assert fork.read_block(7) == b"\x00" * BLOCK_SIZE


# --------------------------------------------------------------------------- streaming


def _log():
    return [
        IORequest(seq=0, kind=IOKind.WRITE, block=1, data=b"a"),
        IORequest(seq=1, kind=IOKind.CHECKPOINT, checkpoint_id=1),
        IORequest(seq=2, kind=IOKind.WRITE, block=2, data=b"b"),
        IORequest(seq=3, kind=IOKind.CHECKPOINT, checkpoint_id=2),
    ]


class TestIterUntilCheckpoint:
    def test_streams_lazily_without_materializing(self):
        consumed = []

        def source():
            for request in _log():
                consumed.append(request.seq)
                yield request

        stream = iter_until_checkpoint(source(), 1)
        assert next(stream).seq == 0
        assert consumed == [0], "nothing past the cursor is pulled"
        assert next(stream).seq == 1
        assert list(stream) == []
        assert consumed == [0, 1], "entries past the checkpoint are never pulled"

    def test_matches_split_at_checkpoint(self):
        log = _log()
        assert list(iter_until_checkpoint(iter(log), 2)) == split_at_checkpoint(log, 2)

    def test_missing_checkpoint_raises(self):
        with pytest.raises(ValueError):
            list(iter_until_checkpoint(iter(_log()), 9))
