"""Property-based tests for the analysis cursor and report (hypothesis).

The cursor is fed a recorded stream one request at a time, so three
invariants carry real campaigns:

* feeding a stream in two pieces, cut anywhere, leaves the cursor and its
  report exactly as feeding it in one go;
* ``to_dict()`` of the :class:`MechanismReport` the cursor finishes into
  survives a JSON dump and load unchanged, including the
  log-structured-write and replicated-metadata families;
* one report never carries two evidence entries for the same mechanism
  (family names cannot collide across the four reasoners).
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import AnalysisCursor, analyze_io_log
from repro.errors import FileSystemError
from repro.fs import BugConfig

from conftest import make_mounted_fs

#: logfs exercises journal + checkpoint + LSW; seqfs the replica pair.
FS_NAMES = ("logfs", "seqfs")

_PATHS = ("foo", "bar", "A", "A/foo", "B")

_op_strategy = st.tuples(
    st.sampled_from(
        ["creat", "mkdir", "write", "unlink", "rename", "fsync", "sync"]
    ),
    st.sampled_from(_PATHS),
    st.sampled_from(_PATHS),
    st.integers(min_value=0, max_value=4096),
    st.integers(min_value=1, max_value=2048),
)


def _recorded_stream(fs_name, ops):
    """Apply random ops to a recording-backed fs; the recorded request log.

    Persistence ops are followed by a checkpoint marker, mirroring what the
    harness records, so the stream exercises window/epoch handling too.
    """
    fs, recording, _ = make_mounted_fs(fs_name, BugConfig.none())
    for name, path, other, offset, length in ops:
        try:
            if name == "creat":
                fs.creat(path)
            elif name == "mkdir":
                fs.mkdir(path)
            elif name == "write":
                fs.write(path, offset, bytes([offset % 251 + 1]) * length)
            elif name == "unlink":
                fs.unlink(path)
            elif name == "rename":
                fs.rename(path, other)
            elif name == "fsync":
                fs.fsync(path)
            elif name == "sync":
                fs.sync()
            else:  # pragma: no cover - strategy and dispatch in lockstep
                raise AssertionError(name)
        except FileSystemError:
            continue
        if name in ("fsync", "sync"):
            recording.mark_checkpoint()
    return list(recording.log)


_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(fs_name=st.sampled_from(FS_NAMES),
       ops=st.lists(_op_strategy, max_size=12),
       cut=st.integers(min_value=0, max_value=200))
def test_feeding_in_two_pieces_gives_the_one_shot_report(fs_name, ops, cut):
    stream = _recorded_stream(fs_name, ops)
    cut = min(cut, len(stream))
    cursor = AnalysisCursor().feed_all(stream[:cut])
    cursor.feed_all(stream[cut:])
    # Where the stream is cut leaves no trace: same cursor state, same report.
    assert cursor == AnalysisCursor().feed_all(stream)
    assert cursor.finish(fs_name) == analyze_io_log(stream, fs_name)


@_settings
@given(fs_name=st.sampled_from(FS_NAMES),
       ops=st.lists(_op_strategy, max_size=12))
def test_report_round_trips_and_families_never_collide(fs_name, ops):
    stream = _recorded_stream(fs_name, ops)
    report = AnalysisCursor().feed_all(stream).finish(fs_name)
    payload = report.to_dict()
    assert payload["schema"] == 2
    # What `analyze --json-out` writes reads back as the report's own payload.
    assert json.loads(json.dumps(payload)) == payload
    # One evidence entry per family, in the kept and the demoted lists both.
    assert len(set(report.mechanisms)) == len(report.mechanisms)
    demoted = [e.mechanism for e in report.demoted_evidence]
    assert len(set(demoted)) == len(demoted)
