"""Unit tests for the block device stack (RAM device, CoW snapshots, recorder)."""

import pytest

from repro.errors import InvalidBlockError
from repro.storage import (
    BLOCK_SIZE,
    BlockDevice,
    CowDevice,
    IOKind,
    RecordingDevice,
    count_checkpoints,
    replay_requests,
    replay_until_checkpoint,
    split_at_checkpoint,
)

import differential
from differential import ALL_FS


class TestBlockDevice:
    def test_unwritten_blocks_read_as_zero(self):
        device = BlockDevice(16)
        assert device.read_block(3) == bytes(BLOCK_SIZE)

    def test_write_then_read_round_trips(self):
        device = BlockDevice(16)
        device.write_block(5, b"hello")
        assert device.read_block(5)[:5] == b"hello"

    def test_out_of_range_access_raises(self):
        device = BlockDevice(4)
        with pytest.raises(InvalidBlockError):
            device.read_block(4)
        with pytest.raises(InvalidBlockError):
            device.write_block(-1, b"x")

    def test_requires_at_least_one_block(self):
        with pytest.raises(ValueError):
            BlockDevice(0)

    def test_copy_is_independent(self):
        device = BlockDevice(8)
        device.write_block(1, b"one")
        clone = device.copy()
        clone.write_block(1, b"two")
        assert device.read_block(1)[:3] == b"one"
        assert clone.read_block(1)[:3] == b"two"

    def test_content_equal_ignores_representation(self):
        left = BlockDevice(8)
        right = BlockDevice(8)
        left.write_block(1, b"same")
        right.write_block(1, b"same")
        right.write_block(2, b"")  # an explicit zero block equals an absent one
        assert left.content_equal(right)

    def test_accounting_counters(self):
        device = BlockDevice(8)
        device.write_block(0, b"a")
        device.write_block(1, b"b")
        device.read_block(0)
        device.flush()
        assert device.writes == 2
        assert device.reads == 1
        assert device.flushes == 1


class TestCowDevice:
    def test_reads_fall_through_to_base(self):
        base = BlockDevice(8)
        base.write_block(3, b"base")
        snap = CowDevice(base)
        assert snap.read_block(3)[:4] == b"base"

    def test_writes_do_not_touch_the_base(self):
        base = BlockDevice(8)
        base.write_block(3, b"base")
        snap = CowDevice(base)
        snap.write_block(3, b"snap")
        assert base.read_block(3)[:4] == b"base"
        assert snap.read_block(3)[:4] == b"snap"

    def test_snapshot_of_snapshot_is_independent(self):
        base = BlockDevice(8)
        first = CowDevice(base)
        first.write_block(1, b"first")
        second = first.snapshot()
        second.write_block(1, b"second")
        assert first.read_block(1)[:5] == b"first"
        assert second.read_block(1)[:6] == b"second"

    def test_overlay_bytes_tracks_modified_blocks_only(self):
        base = BlockDevice(64)
        snap = CowDevice(base)
        for block in range(5):
            snap.write_block(block, b"x")
        assert snap.overlay_bytes() == 5 * BLOCK_SIZE

    def test_reads_return_padded_block_sized_payloads(self):
        device = CowDevice(BlockDevice(num_blocks=8))
        device.write_block(3, b"tiny")
        payload = device.read_block(3)
        assert len(payload) == BLOCK_SIZE
        assert payload[:4] == b"tiny"
        assert payload[4:] == b"\x00" * (BLOCK_SIZE - 4)

    def test_deep_chains_read_through_the_merged_index(self):
        device = CowDevice(BlockDevice(num_blocks=8))
        device.write_block(0, b"layer-0")
        fork = device
        for n in range(1, 6):
            fork = fork.snapshot(name=f"layer-{n}")
            fork.write_block(n % 4, f"layer-{n}".encode())
        assert fork.read_block(1)[:7] == b"layer-5"
        assert fork.read_block(0)[:7] == b"layer-4"
        # Blocks never written still come from the base.
        assert fork.read_block(7) == b"\x00" * BLOCK_SIZE

    def test_visible_blocks_after_forks_and_a_torn_write(self):
        from repro.storage import SECTOR_SIZE, pad_block

        device = CowDevice(BlockDevice(num_blocks=16))
        device.write_block(0, b"first")
        snap = device.snapshot(name="snap")
        snap.write_block(1, b"second")
        snap.write_block(0, b"first-again")
        deeper = snap.snapshot(name="deeper")
        deeper.write_sectors(2, b"t" * BLOCK_SIZE, 1)
        expected = [pad_block(b"")] * 16
        expected[0] = pad_block(b"first-again")
        expected[1] = pad_block(b"second")
        expected[2] = pad_block(b"t" * SECTOR_SIZE)  # one sector of the torn write
        assert [deeper.read_block(block) for block in range(16)] == expected

    def test_a_written_zero_block_shadows_base_content(self):
        # An explicit all-zeroes write is a modification, not an absence.
        base = BlockDevice(8)
        base.write_block(2, b"keep")
        snap = CowDevice(base)
        snap.write_block(2, b"")
        assert snap.read_block(2) == bytes(BLOCK_SIZE)
        assert base.read_block(2)[:4] == b"keep"
        assert snap.modifies(2)
        assert snap.overlay_blocks() == 1

    def test_chain_compaction_preserves_contents_and_accounting(self):
        from repro.storage.cow_device import CHAIN_COMPACT_THRESHOLD

        base = BlockDevice(CHAIN_COMPACT_THRESHOLD + 16)
        base.write_block(0, b"base")
        snap = CowDevice(base)
        expected = {}
        # Each fork freezes one single-block layer; crossing the threshold
        # must collapse the chain without changing the visible contents.
        for i in range(CHAIN_COMPACT_THRESHOLD + 8):
            payload = f"layer-{i}".encode()
            snap.write_block(i % 8 + 1, payload)
            expected[i % 8 + 1] = payload
            snap = snap.snapshot(name=f"fork-{i}")
        assert snap.overlay_layers() <= CHAIN_COMPACT_THRESHOLD + 1
        assert snap.overlay_blocks() == len(expected)
        for block, payload in expected.items():
            assert snap.read_block(block)[: len(payload)] == payload
        assert snap.read_block(0)[:4] == b"base"

    def test_write_sectors_composes_with_the_visible_prior_content(self):
        from repro.storage import SECTOR_SIZE

        base = BlockDevice(8)
        base.write_block(1, bytes([7]) * BLOCK_SIZE)
        snap = CowDevice(base)
        # Tear over base content.
        snap.write_sectors(1, bytes([9]) * BLOCK_SIZE, 2)
        torn = snap.read_block(1)
        assert torn[: 2 * SECTOR_SIZE] == bytes([9]) * (2 * SECTOR_SIZE)
        assert torn[2 * SECTOR_SIZE :] == bytes([7]) * (BLOCK_SIZE - 2 * SECTOR_SIZE)
        # Tear over chain content (after a fork) and over the top overlay.
        fork = snap.snapshot()
        fork.write_sectors(1, bytes([5]) * BLOCK_SIZE, 1)
        reread = fork.read_block(1)
        assert reread[:SECTOR_SIZE] == bytes([5]) * SECTOR_SIZE
        assert reread[SECTOR_SIZE : 2 * SECTOR_SIZE] == bytes([9]) * SECTOR_SIZE

    def test_write_sectors_does_not_count_a_device_read(self):
        base = BlockDevice(8)
        snap = CowDevice(base)
        before = snap.reads
        snap.write_sectors(1, b"payload", 3)
        assert snap.reads == before
        assert snap.writes == 1


class TestRecordingDevice:
    def _recorder(self):
        base = BlockDevice(16)
        return RecordingDevice(CowDevice(base))

    def test_writes_are_recorded_in_order(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.write_block(2, b"b", metadata=True)
        log = recorder.log
        assert [request.block for request in log] == [1, 2]
        assert log[0].is_write and not log[0].is_metadata
        assert log[1].is_metadata

    def test_checkpoint_markers_are_numbered(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        first = recorder.mark_checkpoint()
        recorder.write_block(2, b"b")
        second = recorder.mark_checkpoint()
        assert (first, second) == (1, 2)
        assert count_checkpoints(recorder.log) == 2

    def test_flush_is_recorded(self):
        recorder = self._recorder()
        recorder.flush(sync=True)
        assert recorder.log[0].kind is IOKind.FLUSH

    def test_a_fork_continues_the_stream_on_its_own(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.flush()
        recorder.write_block(2, b"b")
        recorder.mark_checkpoint()
        twin = recorder.fork()
        assert (twin.log, twin.window, twin.num_checkpoints) == \
            (recorder.log, recorder.window, 1)
        assert twin.stable is recorder.stable and twin.target is not recorder.target
        twin.write_block(2, b"c")
        assert twin.mark_checkpoint() == recorder.mark_checkpoint() == 2
        assert [r.seq for r in twin.log] == [1, 2, 3, 4, 5, 6]
        assert [r.seq for r in recorder.log] == [1, 2, 3, 4, 5]
        assert len(twin.window) == 2 and len(recorder.window) == 1
        assert (twin.read_block(2)[:1], recorder.read_block(2)[:1]) == (b"c", b"b")
        assert (twin.write_requests, recorder.write_requests) == (3, 2)

    def test_recorded_write_payload_is_captured_without_a_device_read(self):
        recorder = self._recorder()
        target_reads = recorder.target.reads
        recorder.write_block(1, b"payload")
        assert recorder.target.reads == target_reads, (
            "recording a write must not issue a spurious read on the target"
        )
        request = recorder.log[0]
        assert request.data == b"payload" + bytes(BLOCK_SIZE - 7)
        assert recorder.read_block(1) == request.data

    def test_recorded_bytes(self):
        recorder = self._recorder()
        recorder.write_block(1, b"a")
        recorder.mark_checkpoint()
        assert recorder.recorded_bytes() == BLOCK_SIZE


class TestReplay:
    def test_replay_until_checkpoint_reconstructs_prefix_state(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.write_block(1, b"first")
        cp1 = recorder.mark_checkpoint()
        recorder.write_block(1, b"second")
        recorder.write_block(2, b"third")
        cp2 = recorder.mark_checkpoint()

        crash1 = replay_until_checkpoint(base, recorder.log, cp1)
        crash2 = replay_until_checkpoint(base, recorder.log, cp2)
        assert crash1.read_block(1)[:5] == b"first"
        assert crash1.read_block(2) == bytes(BLOCK_SIZE)
        assert crash2.read_block(1)[:6] == b"second"
        assert crash2.read_block(2)[:5] == b"third"

    def test_replay_does_not_modify_base(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.write_block(1, b"data")
        cp = recorder.mark_checkpoint()
        replay_until_checkpoint(base, recorder.log, cp)
        assert base.read_block(1) == bytes(BLOCK_SIZE)

    def test_unknown_checkpoint_raises(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.write_block(1, b"data")
        with pytest.raises(ValueError):
            split_at_checkpoint(list(recorder.log), 1)

    def test_replay_requests_ignores_markers(self):
        base = BlockDevice(16)
        recorder = RecordingDevice(CowDevice(base))
        recorder.flush()
        recorder.write_block(4, b"x")
        recorder.mark_checkpoint()
        snapshot = replay_requests(base, recorder.log)
        assert snapshot.read_block(4)[:1] == b"x"


# --------------------------------------------------------------- one payload type


def _is_block(data) -> bool:
    return type(data) is bytes and len(data) == BLOCK_SIZE


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_every_payload_of_full_seq1_is_one_block_of_bytes(fs_name, monkeypatch):
    """Every recorded write and every overlay value is a block of ``bytes``,
    and a short write's recorded payload is the object the target then reads."""
    real_write = RecordingDevice.write_block
    short = []

    def write_block(device, block, data, **annotations):
        real_write(device, block, data, **annotations)
        if len(data) < BLOCK_SIZE:
            short.append(block)
            assert device.target.read_block(block) is device.log[-1].data

    monkeypatch.setattr(RecordingDevice, "write_block", write_block)
    for workload, profile in differential.profiles(fs_name):
        writes = [request.data for request in profile.io_log if request.is_write]
        assert all(map(_is_block, writes)), workload.display_name()
        for record in profile.records.values():
            for device in (record.baseline, record.stable):
                assert all(map(_is_block, device.overlay_delta().values()))
    assert short



#: every device a file system writes to, each over an 8-block RAM disk
DEVICES = {
    "block": lambda: BlockDevice(8),
    "cow": lambda: CowDevice(BlockDevice(8)),
    "recording": lambda: RecordingDevice(CowDevice(BlockDevice(8))),
}


@pytest.mark.parametrize("wrap", (bytearray, lambda data: memoryview(bytearray(data))),
                         ids=("bytearray", "memoryview"))
@pytest.mark.parametrize("device_name", DEVICES)
def test_a_mutable_buffer_is_stored_as_its_own_bytes(device_name, wrap):
    """A device keeps a block of ``bytes`` however the payload came, so a
    caller that reuses its buffer cannot change what was written."""
    device = DEVICES[device_name]()
    buffer = wrap(b"before")
    device.write_block(3, buffer)
    buffer[:6] = b"after!"
    stored = device.read_block(3)
    assert _is_block(stored)
    assert stored[:6] == b"before"
    if device_name == "recording":
        assert device.log[-1].data is stored
