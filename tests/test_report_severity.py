"""Severity ordering: the public ``Severity`` API."""

import pytest

from repro.crashmonkey import BugReport, Mismatch, Severity
from repro.crashmonkey.report import HARNESS_ERROR
from repro.fs import Consequence
from repro.workload import parse_workload


#: The paper's Table-1 consequence classes, most severe first — written out
#: here so a reordering of the enum fails a test instead of moving silently.
TABLE1_MOST_SEVERE_FIRST = (
    Consequence.UNMOUNTABLE,
    Consequence.DIR_UNREMOVABLE,
    Consequence.ATOMICITY,
    Consequence.FILE_MISSING,
    Consequence.DATA_LOSS,
    Consequence.WRONG_SIZE,
    Consequence.CORRUPTION,
    Consequence.DATA_INCONSISTENCY,
)


def _mismatch(consequence, path="p", check="read"):
    return Mismatch(check=check, consequence=consequence, path=path,
                    expected="e", actual="a")


def _report(mismatches):
    return BugReport(
        workload=parse_workload("creat foo\nfsync foo"),
        fs_type="logfs",
        fs_model="btrfs",
        checkpoint_id=1,
        crash_point="fsync foo",
        mismatches=mismatches,
    )


class TestSeverityOrdering:
    def test_severity_sorts_most_severe_first(self):
        ordered = [severity.consequence for severity in sorted(Severity)]
        assert ordered[0] == HARNESS_ERROR
        assert ordered[1] == Consequence.UNMOUNTABLE
        assert ordered[-1] == Consequence.DATA_INCONSISTENCY

    def test_severity_ranks_the_table1_classes_in_the_pinned_order(self):
        assert [
            severity.consequence for severity in sorted(Severity)
            if severity is not Severity.HARNESS_ERROR
        ] == list(TABLE1_MOST_SEVERE_FIRST)
        for index, consequence in enumerate(TABLE1_MOST_SEVERE_FIRST):
            for later in TABLE1_MOST_SEVERE_FIRST[index + 1:]:
                assert Severity.of(consequence) < Severity.of(later)

    def test_every_consequence_class_has_a_severity(self):
        for consequence in Consequence.ALL:
            assert Severity.of(consequence).consequence == consequence

    def test_of_rejects_unknown_strings(self):
        with pytest.raises(KeyError):
            Severity.of("not a consequence")

    def test_rank_of_puts_unknown_strings_last(self):
        assert Severity.rank_of("not a consequence") > max(int(s) for s in Severity)

    def test_mismatch_severity_property(self):
        assert _mismatch(Consequence.UNMOUNTABLE).severity is Severity.UNMOUNTABLE
        assert _mismatch("not a consequence").severity is None


class TestBugReportPrimary:
    def test_primary_is_the_most_severe_mismatch(self):
        low = _mismatch(Consequence.DATA_INCONSISTENCY)
        high = _mismatch(Consequence.FILE_MISSING)
        report = _report([low, high])
        assert report.primary is high
        assert report.consequence == Consequence.FILE_MISSING

    def test_primary_is_stable_among_equal_severities(self):
        first = _mismatch(Consequence.DATA_LOSS, path="a")
        second = _mismatch(Consequence.DATA_LOSS, path="b")
        assert _report([first, second]).primary is first
        assert _report([second, first]).primary is second

    def test_primary_of_empty_report_is_none(self):
        report = _report([])
        assert report.primary is None
        assert report.consequence == Consequence.CORRUPTION

    def test_unknown_consequences_are_surfaced_not_relabelled(self):
        # A new consequence class must show up under its own name in grouping
        # (it ranks last via Severity.rank_of), never silently as corruption.
        report = _report([_mismatch("made up")])
        assert report.consequence == "made up"
        assert report.group_key() == (report.skeleton(), "made up")

    def test_known_consequence_outranks_unknown(self):
        known = _mismatch(Consequence.WRONG_SIZE)
        report = _report([_mismatch("made up"), known])
        assert report.primary is known
        assert report.consequence == Consequence.WRONG_SIZE

    def test_harness_error_outranks_everything(self):
        report = _report([
            _mismatch(Consequence.UNMOUNTABLE),
            _mismatch(HARNESS_ERROR, check="pipeline"),
        ])
        assert report.consequence == HARNESS_ERROR

    def test_pinned_ordering_matches_primary_choice(self):
        """Walking the pinned order and taking min() over Severity agree."""
        for size in range(1, len(TABLE1_MOST_SEVERE_FIRST) + 1):
            present = TABLE1_MOST_SEVERE_FIRST[-size:]
            report = _report([_mismatch(consequence) for consequence in reversed(present)])
            assert report.consequence == present[0]
