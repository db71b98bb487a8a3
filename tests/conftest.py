"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest
from hypothesis import strategies as st

from repro.ace import Bounds
from repro.core.results import CampaignResult
from repro.crashmonkey import CrashMonkey
from repro.errors import FileSystemError
from repro.fs import BugConfig, get_fs_class, resolve_fs_name
from repro.storage import BlockDevice, CowDevice, RecordingDevice
from repro.workload import parse_workload
from repro.workload.operations import OpKind, WriteRange

#: Small (sparse) device used throughout the tests: 16 MiB.
SMALL_DEVICE_BLOCKS = 4096

#: Small seq-3 ACE spaces (<= 250 k workloads) that can be enumerated outright.
CUSTOM_SEQ3 = {
    # a persistence point changes later validity: fsync(A/foo) after
    # unlink(A/foo) re-creates the file as a dependency, sync does not
    "links": Bounds(seq_length=3, operations=(OpKind.LINK, OpKind.UNLINK, OpKind.RENAME),
                    num_top_files=2, num_dirs=1, files_per_dir=1, label="links"),
    "data": Bounds(seq_length=3, operations=(OpKind.WRITE, OpKind.FALLOC, OpKind.TRUNCATE),
                   num_top_files=1, num_dirs=1, files_per_dir=1,
                   write_ranges=(WriteRange.APPEND, WriteRange.OVERLAP_START),
                   persistence_ops=(OpKind.FSYNC, OpKind.FDATASYNC, OpKind.SYNC),
                   label="data"),
    "dirs": Bounds(seq_length=3,
                   operations=(OpKind.CREAT, OpKind.MKDIR, OpKind.RMDIR, OpKind.REMOVE,
                               OpKind.RENAME),
                   num_top_files=1, num_dirs=1, files_per_dir=1, nested=True,
                   allow_unpersisted=False, label="dirs"),
    "symlinks": Bounds(seq_length=3, operations=(OpKind.SYMLINK, OpKind.CREAT, OpKind.REMOVE),
                       num_top_files=1, num_dirs=2, files_per_dir=1, label="symlinks"),
}

#: Random small ACE bounds (seq-1 / seq-2, up to three operations).
small_bounds = st.builds(
    Bounds,
    seq_length=st.integers(min_value=1, max_value=2),
    operations=st.lists(st.sampled_from(OpKind.ACE_CORE), min_size=1, max_size=3,
                        unique=True).map(tuple),
    num_top_files=st.integers(min_value=1, max_value=2),
    num_dirs=st.integers(min_value=0, max_value=1),
    files_per_dir=st.just(1),
    nested=st.booleans(),
    allow_unpersisted=st.booleans(),
    persistence_ops=st.sampled_from([(OpKind.FSYNC, OpKind.SYNC), (OpKind.SYNC,),
                                     (OpKind.FSYNC, OpKind.FDATASYNC)]),
)

#: Sibling pair sharing the prefix "creat foo; write foo 0 8192; fsync foo".
SIBLING_A = "creat foo\nwrite foo 0 8192\nfsync foo\ncreat bar\nfsync bar"
SIBLING_B = "creat foo\nwrite foo 0 8192\nfsync foo\nlink foo baz\nfsync baz"


@pytest.fixture
def device_blocks():
    return SMALL_DEVICE_BLOCKS


def make_mounted_fs(fs_name: str, bugs=None, device_blocks: int = SMALL_DEVICE_BLOCKS):
    """Format a device, mount a file system on a recording wrapper, return both.

    Returns (fs, recording_device, base_image).  The base image is the copy of
    the freshly formatted device, which crash states replay onto.
    """
    fs_class = get_fs_class(resolve_fs_name(fs_name))
    pristine = BlockDevice(device_blocks)
    fs_class.mkfs(pristine, bugs)
    base_image = pristine.copy()
    recording = RecordingDevice(CowDevice(base_image))
    fs = fs_class(recording, bugs)
    fs.mount()
    return fs, recording, base_image


_PATHS = ("foo", "bar", "A", "B", "A/foo", "A/bar", "B/foo")

#: One random operation: (op name, path, secondary path, offset, length).
op_strategy = st.tuples(
    st.sampled_from(
        ["creat", "mkdir", "write", "link", "unlink", "rename", "truncate",
         "setxattr", "falloc", "fsync", "fdatasync", "sync"]
    ),
    st.sampled_from(_PATHS),
    st.sampled_from(_PATHS),
    st.integers(min_value=0, max_value=8192),
    st.integers(min_value=1, max_value=4096),
)


def apply_op(fs, op):
    """Apply one random op, ignoring POSIX-level rejections."""
    name, path, other, offset, length = op
    try:
        if name == "creat":
            fs.creat(path)
        elif name == "mkdir":
            fs.mkdir(path)
        elif name == "write":
            fs.write(path, offset, bytes([offset % 251 + 1]) * length)
        elif name == "link":
            fs.link(path, other)
        elif name == "unlink":
            fs.unlink(path)
        elif name == "rename":
            fs.rename(path, other)
        elif name == "truncate":
            fs.truncate(path, length)
        elif name == "setxattr":
            fs.setxattr(path, "user.p", b"v")
        elif name == "falloc":
            fs.falloc(path, offset, length, keep_size=bool(offset % 2))
        elif name == "fsync":
            fs.fsync(path)
        elif name == "fdatasync":
            fs.fdatasync(path)
        elif name == "sync":
            fs.sync()
    except FileSystemError:
        pass


def devices_of(node):
    """A prefix node's device references, in a fixed order, duplicates included."""
    records = node.records.values()
    return [node.device, node.stable, *(r.baseline for r in records),
            *(r.stable for r in records)]


def topology(devices):
    """For each reference, the position of the first reference to that object."""
    first = {}
    return [first.setdefault(id(device), position) for position, device in enumerate(devices)]


def run_workload_text(fs_name: str, text: str, bugs=None, name: str = "test",
                      device_blocks: int = SMALL_DEVICE_BLOCKS, **harness_kwargs):
    """Run a workload (given in the workload language) through CrashMonkey."""
    harness = CrashMonkey(fs_name, bugs=bugs, device_blocks=device_blocks, **harness_kwargs)
    workload = parse_workload(text, name=name)
    return harness.test_workload(workload)


@pytest.fixture
def mounted_logfs():
    fs, recording, base = make_mounted_fs("logfs", BugConfig.none())
    return fs


@pytest.fixture
def mounted_logfs_buggy():
    fs, recording, base = make_mounted_fs("logfs")
    return fs


@pytest.fixture
def mounted_seqfs():
    fs, recording, base = make_mounted_fs("seqfs", BugConfig.none())
    return fs


@pytest.fixture(params=["logfs", "seqfs", "flashfs", "verifs"])
def any_patched_fs(request):
    fs, recording, base = make_mounted_fs(request.param, BugConfig.none())
    return fs


# ------------------------------------------------------------ durable campaigns


class Interrupted(Exception):
    """Raised out of a durable session's progress callback: an in-process crash."""


def run_until(runner, chunks: int, progress=None):
    """``runner.run()``, crashed in-process once this session has ingested
    ``chunks`` chunks; the result, or ``None`` when the session crashed.

    The engine commits a chunk before reporting it, so the crash leaves the
    chunks ingested so far ``done``, the ones in flight for the next
    session's recovery and, unless the stream was drained, no census.
    """
    reported = 0

    def crash(event):
        nonlocal reported
        if progress is not None:
            progress(event)
        reported += 1
        if reported >= chunks:
            raise Interrupted

    try:
        return runner.run(progress=crash)
    except Interrupted:
        return None


def reopen_tail(db_path: str, campaign_id: str, first: int) -> None:
    """Turn a finished store into one killed in its last in-flight window.

    Such a kill leaves the census stored and chunks ``first`` onwards
    claimed but never ingested; recovery makes them ``pending``, so that is
    what they become here, without their result rows.
    """
    with closing(sqlite3.connect(db_path)) as conn, conn:
        conn.execute("UPDATE chunks SET status = 'pending', worker = '' "
                     "WHERE campaign_id = ? AND chunk_index >= ?", (campaign_id, first))
        conn.execute("DELETE FROM results WHERE campaign_id = ? AND chunk_index >= ?",
                     (campaign_id, first))


def assert_reads_as_held(result) -> None:
    """A result read from a state store says what its rows say held in memory.

    The stored result merges per-chunk roll-ups and decodes only failing
    rows for its reports; a plain :class:`CampaignResult` of the same rows
    computes everything from the list.  Integer aggregates must agree
    exactly.  A float sum adds chunk by chunk in the stored result and
    result by result in the held one, so it agrees up to rounding.
    """
    held = CampaignResult(
        fs_name=result.fs_name, fs_model=result.fs_model, label=result.label,
        results=list(result.results), generation_seconds=result.generation_seconds,
        testing_seconds=result.testing_seconds, invalid_workloads=result.invalid_workloads)
    assert result.to_dict() == held.to_dict()
    assert result.describe() == held.describe()
    assert [report.to_dict() for report in result.all_reports()] == \
        [report.to_dict() for report in held.all_reports()]
    assert (result.workloads_tested, result.failing_workloads, result.mounted_scenarios) == \
        (held.workloads_tested, held.failing_workloads, held.mounted_scenarios)
    totals = held.roll_ups()
    assert result.roll_ups().keys() == totals.keys()
    for aggregate, value in totals.items():
        if isinstance(value, float):
            assert getattr(result, aggregate) == pytest.approx(value), aggregate
        else:
            assert getattr(result, aggregate) == value, aggregate
    assert result.phase_seconds() == pytest.approx(held.phase_seconds())
    assert result.mean_test_seconds() == pytest.approx(held.mean_test_seconds())
