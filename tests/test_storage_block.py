"""Unit tests for the block helpers."""

import pytest

from repro.storage.block import (
    BLOCK_SIZE,
    DEFAULT_DEVICE_BLOCKS,
    SECTOR_SIZE,
    SECTORS_PER_BLOCK,
    ZERO_BLOCK,
    blocks_needed,
    compose_torn_block,
    pad_block,
    split_blocks,
)

#: the buffer types a caller may hand a device: the payload it stores is ``bytes``
BUFFERS = (bytes, bytearray, lambda data: memoryview(bytearray(data)))
BUFFER_IDS = ("bytes", "bytearray", "memoryview")


class TestPadBlock:
    def test_pads_short_payload_with_zeros(self):
        padded = pad_block(b"abc")
        assert len(padded) == BLOCK_SIZE
        assert padded.startswith(b"abc")
        assert padded[3:] == bytes(BLOCK_SIZE - 3)

    def test_full_block_is_returned_unchanged(self):
        payload = bytes(range(256)) * (BLOCK_SIZE // 256)
        assert pad_block(payload) == payload

    def test_exact_size_bytes_are_shared_not_copied(self):
        data = bytes(BLOCK_SIZE)
        assert pad_block(data) is data

    def test_oversized_payload_is_rejected(self):
        with pytest.raises(ValueError):
            pad_block(bytes(BLOCK_SIZE + 1))

    def test_empty_payload_becomes_zero_block(self):
        assert pad_block(b"") == ZERO_BLOCK

    def test_empty_payload_is_the_shared_zero_block(self):
        assert pad_block(b"") is pad_block(bytearray())

    @pytest.mark.parametrize("wrap", BUFFERS, ids=BUFFER_IDS)
    def test_any_short_buffer_pads_to_bytes(self, wrap):
        padded = pad_block(wrap(b"abc"))
        assert type(padded) is bytes
        assert padded == b"abc" + bytes(BLOCK_SIZE - 3)

    @pytest.mark.parametrize("wrap", BUFFERS[1:], ids=BUFFER_IDS[1:])
    def test_exact_size_mutable_buffer_is_copied(self, wrap):
        buffer = wrap(bytes(BLOCK_SIZE))
        padded = pad_block(buffer)
        buffer[0] = 1
        assert type(padded) is bytes
        assert padded == ZERO_BLOCK


class TestSplitBlocks:
    def test_empty_data_yields_no_blocks(self):
        assert split_blocks(b"") == []

    def test_exact_multiple_of_block_size(self):
        data = b"x" * (2 * BLOCK_SIZE)
        chunks = split_blocks(data)
        assert len(chunks) == 2
        assert all(len(chunk) == BLOCK_SIZE for chunk in chunks)

    def test_last_chunk_is_padded(self):
        data = b"y" * (BLOCK_SIZE + 10)
        chunks = split_blocks(data)
        assert len(chunks) == 2
        assert chunks[1][:10] == b"y" * 10
        assert chunks[1][10:] == bytes(BLOCK_SIZE - 10)

    def test_reassembly_preserves_data(self):
        data = bytes(range(251)) * 50
        chunks = split_blocks(data)
        assert b"".join(chunks)[: len(data)] == data


class TestBlocksNeeded:
    def test_zero_bytes(self):
        assert blocks_needed(0) == 0

    def test_one_byte(self):
        assert blocks_needed(1) == 1

    def test_exact_block(self):
        assert blocks_needed(BLOCK_SIZE) == 1

    def test_one_past_block(self):
        assert blocks_needed(BLOCK_SIZE + 1) == 2

    def test_negative_is_rejected(self):
        with pytest.raises(ValueError):
            blocks_needed(-1)


def test_default_device_is_100_mib():
    assert DEFAULT_DEVICE_BLOCKS * BLOCK_SIZE == 100 * 1024 * 1024


class TestSectorModel:
    def test_sector_constants_tile_the_block(self):
        assert SECTOR_SIZE == 512
        assert SECTORS_PER_BLOCK * SECTOR_SIZE == BLOCK_SIZE

    def test_torn_block_mixes_new_head_with_prior_tail(self):
        new = bytes([1]) * BLOCK_SIZE
        prior = bytes([2]) * BLOCK_SIZE
        for sectors in range(SECTORS_PER_BLOCK + 1):
            torn = compose_torn_block(new, prior, sectors)
            cut = sectors * SECTOR_SIZE
            assert torn[:cut] == new[:cut]
            assert torn[cut:] == prior[cut:]

    def test_zero_sectors_reproduces_prior_and_full_applies_new(self):
        new, prior = b"new payload", b"prior content"
        assert compose_torn_block(new, prior, 0) == pad_block(prior)
        assert compose_torn_block(new, prior, SECTORS_PER_BLOCK) == pad_block(new)

    def test_short_payloads_are_padded_before_composition(self):
        torn = compose_torn_block(b"n", b"", 1)
        assert torn[:1] == b"n"
        assert torn[1:] == bytes(BLOCK_SIZE - 1)

    @pytest.mark.parametrize("sectors", (0, 1, SECTORS_PER_BLOCK - 1, SECTORS_PER_BLOCK))
    def test_torn_block_of_short_buffers_is_one_block_of_bytes(self, sectors):
        torn = compose_torn_block(bytearray(b"new"), memoryview(b"prior"), sectors)
        assert type(torn) is bytes
        assert len(torn) == BLOCK_SIZE

    def test_out_of_range_sector_counts_are_rejected(self):
        with pytest.raises(ValueError):
            compose_torn_block(b"", b"", -1)
        with pytest.raises(ValueError):
            compose_torn_block(b"", b"", SECTORS_PER_BLOCK + 1)
