"""A torn log block that still parses fails recovery; it never crashes the harness.

Under the torn plan a log block can land as the first sectors of a new entry
followed by the tail of the entry that occupied the block before — and the
splice can happen to be valid JSON.  Recovery must treat what it decodes to as
untrusted: missing or garbled fields are a ``RecoveryError`` (the state is
UNMOUNTABLE and goes to fsck), not a ``KeyError`` out of ``mount()``.
"""

import pytest

from repro.ace import AceSynthesizer, seq2_bounds
from repro.crashmonkey import CrashMonkey
from repro.crashmonkey.report import CrashTestResult
from repro.errors import RecoveryError, UnmountableError
from repro.fs import BugConfig
from repro.fs.bugs import Consequence

from conftest import make_mounted_fs

#: 1-based positions (``seq-2-%07d``) of the seq-2 workloads, all of the shape
#: ``setxattr(f); sync; link(f, dir/x); fsync(dir)``, on which flashfs recovery
#: used to die with ``KeyError: 'ino'`` under the torn plan.
POISON_SEQ2 = (
    221492, 221508, 221524, 221540, 221744, 221760, 221776, 221792,
    222003, 222023, 222408, 222428, 222783, 222803, 223138, 223158,
)


@pytest.mark.parametrize("entry", [
    {"attrs": {"nlink": 1}, "dir_children": {}},          # no ino, no ftype
    {"ino": "two", "ftype": "file"},                      # garbled number
    {"ino": 2, "ftype": "socket"},                        # unknown file type
    {"ino": 2, "ftype": "file", "attrs": "xattrs"},       # wrong container
    {"ino": 2, "ftype": "dir", "dir_children": {"foo": {"ftype": "file"}}},
    "not even a mapping",
])
def test_malformed_log_entries_fail_recovery(entry):
    fs, _, _ = make_mounted_fs("flashfs", BugConfig.none())
    with pytest.raises(RecoveryError, match="malformed log entry") as raised:
        fs._replay_log([entry])
    assert isinstance(raised.value, UnmountableError)


def test_recovery_errors_inside_replay_keep_their_own_message():
    fs, _, _ = make_mounted_fs("flashfs", BugConfig.none())
    with pytest.raises(RecoveryError, match="unknown log entry kind"):
        fs._replay_log([{"kind": "mystery"}])


def test_poison_workloads_report_instead_of_raising():
    synthesizer = AceSynthesizer(seq2_bounds())
    harness = CrashMonkey("flashfs", crash_plan="torn")
    for number in POISON_SEQ2:
        workload = synthesizer.workload_at(number - 1)
        assert workload.name == f"seq-2-{number:07d}"
        assert [op.op for op in workload.core_ops()] == ["setxattr", "link"]
        result = harness.test_workload(workload)
        assert isinstance(result, CrashTestResult)
        # The torn state that used to crash the mount is now a finding.
        assert Consequence.UNMOUNTABLE in {report.consequence for report in result.bug_reports}
