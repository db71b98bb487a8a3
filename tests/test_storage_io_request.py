"""IORequest records and stream helpers."""

import pytest

from repro.storage import (
    IOFlag,
    IOKind,
    IORequest,
    count_checkpoints,
    iter_until_checkpoint,
    split_at_checkpoint,
)


def _write(seq, block, data=b"x", flags=(IOFlag.DATA,)):
    return IORequest(seq=seq, kind=IOKind.WRITE, block=block, data=data, flags=tuple(flags))


def _checkpoint(seq, checkpoint_id):
    return IORequest(seq=seq, kind=IOKind.CHECKPOINT, checkpoint_id=checkpoint_id)


class TestIORequest:
    def test_kind_predicates(self):
        assert _write(1, 0).is_write
        assert not _write(1, 0).is_checkpoint
        assert _checkpoint(2, 1).is_checkpoint
        flush = IORequest(seq=3, kind=IOKind.FLUSH)
        assert not flush.is_write and not flush.is_checkpoint

    def test_metadata_flag(self):
        metadata_write = _write(1, 5, flags=(IOFlag.METADATA,))
        assert metadata_write.is_metadata
        assert not _write(1, 5).is_metadata

    def test_size_bytes(self):
        assert _write(1, 0, b"abcd").size_bytes() == 4
        assert _checkpoint(2, 1).size_bytes() == 0

    def test_describe_variants(self):
        assert "WRITE" in _write(1, 7).describe()
        assert "CHECKPOINT 3" in _checkpoint(2, 3).describe()
        assert "FLUSH" in IORequest(seq=4, kind=IOKind.FLUSH).describe()

    def test_requests_are_immutable(self):
        request = _write(1, 0)
        with pytest.raises(AttributeError):
            request.block = 9


class TestStreamHelpers:
    def _stream(self):
        return [
            _write(1, 0), _write(2, 1), _checkpoint(3, 1),
            _write(4, 2), _checkpoint(5, 2), _write(6, 3),
        ]

    def test_count_checkpoints(self):
        assert count_checkpoints(self._stream()) == 2
        assert count_checkpoints([]) == 0

    def test_split_at_checkpoint_includes_the_marker(self):
        prefix = split_at_checkpoint(self._stream(), 1)
        assert len(prefix) == 3
        assert prefix[-1].is_checkpoint and prefix[-1].checkpoint_id == 1

    def test_split_at_later_checkpoint(self):
        prefix = split_at_checkpoint(self._stream(), 2)
        assert len(prefix) == 5

    def test_split_at_missing_checkpoint_raises(self):
        with pytest.raises(ValueError):
            split_at_checkpoint(self._stream(), 9)


def _log():
    return [_write(0, 1, b"a"), _checkpoint(1, 1), _write(2, 2, b"b"), _checkpoint(3, 2)]


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
