"""Static mechanism analysis: classifier, cursor, report, planner fallback.

Covers the analysis subsystem's three contracts:

* ``classify_write`` is *content-based* — payload and target region must
  agree, so envelope-shaped bytes outside their region stay data,
* the :class:`AnalysisCursor` is incremental and copyable (the shared replay
  trie snapshots it mid-stream) and its report round-trips through JSON,
* the ``mechanism`` planner never silently under-tests: without an inferred
  mechanism it delegates verbatim to the exhaustive torn plan, and a
  truncated recorded stream surfaces as a harness-error report, not a pass.
"""

import collections
import dataclasses
import json

import pytest

from repro.analysis import (
    AnalysisCursor,
    MechanismReport,
    WriteClass,
    analyze_io_log,
    audit_report,
    classify_write,
    mechanisms,
)
from repro.crashmonkey import (
    CrashMonkey,
    CrashStateGenerator,
    MechanismPlanner,
    TornWritePlanner,
    WorkloadRecorder,
)
from repro.crashmonkey.report import HARNESS_ERROR, Severity
from repro.errors import HarnessError
from repro.fs import BugConfig, layout
from repro.storage import IOKind, IORequest
from repro.workload import parse_workload

from conftest import SMALL_DEVICE_BLOCKS
from differential import ALL_FS

#: Workload exercising both mechanisms on flashfs: a journal commit epoch
#: (fsync) and a checkpoint generation commit (sync).
BOTH_MECHANISMS_WORKLOAD = "creat foo\nwrite foo 0 4096\nfsync foo\nsync"


def _profile(fs_name, text, bugs=None):
    recorder = WorkloadRecorder(fs_name, bugs, device_blocks=SMALL_DEVICE_BLOCKS)
    return recorder.profile(parse_workload(text))


# ------------------------------------------------------------------ classifier


class TestClassifyWrite:
    def test_recognizes_every_class_in_a_real_recording(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        classes = collections.Counter(
            classify_write(r)[0] for r in profile.io_log if r.is_write
        )
        assert classes[WriteClass.JOURNAL] > 0
        assert classes[WriteClass.CHECKPOINT] > 0
        assert classes[WriteClass.SUPERBLOCK] > 0
        assert classes[WriteClass.DATA] > 0

    def test_journal_and_checkpoint_writes_carry_their_envelope_header(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        for request in profile.io_log:
            if not request.is_write:
                continue
            write_class, header = classify_write(request)
            if write_class in (WriteClass.JOURNAL, WriteClass.CHECKPOINT):
                assert set(header) == {"generation", "index", "magic"}

    def test_envelope_bytes_outside_their_region_classify_as_data(self):
        # Rehome a real journal envelope into the data region: the payload
        # still parses but the region disagrees, so it must stay data.
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        journal = next(
            r for r in profile.io_log
            if r.is_write and classify_write(r)[0] == WriteClass.JOURNAL
        )
        moved = dataclasses.replace(journal, block=layout.DATA_START + 5)
        assert classify_write(moved)[0] == WriteClass.DATA

    def test_non_writes_classify_as_data(self):
        marker = IORequest(seq=1, kind=IOKind.FLUSH)
        assert classify_write(marker) == (WriteClass.DATA, None)

    def test_a_recorded_write_is_parsed_once_per_object(self, monkeypatch):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        writes = [r for r in profile.io_log if r.is_write]
        parsed = []
        real = mechanisms._classify_payload
        monkeypatch.setattr(mechanisms, "_classify_payload",
                            lambda request: parsed.append(request) or real(request))
        first = [classify_write(r) for r in writes]
        assert [classify_write(r) for r in writes] == first
        assert len(parsed) == len(writes)
        # The memo is on identity: an equal copy is parsed afresh, alike.
        copy = dataclasses.replace(writes[0])
        assert classify_write(copy) == first[0] and parsed[-1] is copy

    def test_a_reused_id_never_gets_another_requests_answer(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        journal = next(r for r in profile.io_log
                       if r.is_write and classify_write(r)[0] == WriteClass.JOURNAL)
        data = IORequest(seq=1, kind=IOKind.WRITE, block=layout.DATA_START, data=b"x")
        # As if ``journal`` had been classified under the id ``data`` now has.
        mechanisms._classified[id(data)] = mechanisms._classified[id(journal)]
        assert classify_write(data) == (WriteClass.DATA, None)

    def test_the_memo_is_bounded(self):
        alive = [IORequest(seq=seq, kind=IOKind.WRITE, block=layout.DATA_START, data=b"x")
                 for seq in range(mechanisms._CLASSIFIED_CAP + 10)]
        for request in alive:
            classify_write(request)
        assert len(mechanisms._classified) == mechanisms._CLASSIFIED_CAP


# --------------------------------------------------------------------- cursor


class TestAnalysisCursor:
    def test_incremental_feed_equals_one_shot_analysis(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        cursor = AnalysisCursor()
        for request in profile.io_log:
            cursor.feed(request)
        assert (cursor.finish("flashfs").to_dict()
                == analyze_io_log(profile.io_log, "flashfs").to_dict())

    def test_feeding_in_two_halves_gives_the_one_shot_report(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        log = profile.io_log
        half = len(log) // 2
        cursor = AnalysisCursor().feed_all(log[:half])
        assert cursor.total_requests == half
        cursor.feed_all(log[half:])
        assert cursor.finish("x").to_dict() == analyze_io_log(log, "x").to_dict()

    def test_flashfs_stream_infers_both_mechanisms(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        report = analyze_io_log(profile.io_log, "flashfs")
        assert set(report.mechanisms) == {"journal-commit", "checkpoint-generation"}
        for entry in report.evidence:
            assert entry.epochs > 0
            assert 0.0 < entry.confidence <= 1.0
            assert entry.block_ranges and entry.invariant

    def test_pure_data_stream_infers_no_mechanism(self):
        data = IORequest(seq=1, kind=IOKind.WRITE, block=layout.DATA_START,
                         data=b"hello")
        report = analyze_io_log([data])
        assert not report.has_mechanisms
        assert "falls back to exhaustive" in report.summary()


class TestMechanismReport:
    def test_its_payload_is_plain_json(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        payload = analyze_io_log(profile.io_log, "flashfs").to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert {e["mechanism"] for e in payload["evidence"]} == \
            {"journal-commit", "checkpoint-generation"}

    def test_summary_names_the_inferred_mechanisms(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        summary = analyze_io_log(profile.io_log, "flashfs").summary()
        assert "journal-commit" in summary
        assert "checkpoint-generation" in summary
        assert "invariant" in summary


# ----------------------------------------------------------------- new families


class TestNewFamilyInference:
    def test_logfs_stream_infers_the_lsw_family(self):
        profile = _profile("logfs", BOTH_MECHANISMS_WORKLOAD,
                           bugs=BugConfig.none())
        report = analyze_io_log(profile.io_log, "logfs")
        lsw = report.evidence_for("log-structured-write")
        assert lsw is not None
        assert lsw.epochs > 0
        assert 0.0 < lsw.confidence <= 1.0
        (low, high), = lsw.block_ranges
        assert layout.SEGMENT_START <= low <= high <= layout.SEGMENT_SUMMARY_BLOCK
        assert "lsn" in lsw.invariant

    def test_seqfs_stream_infers_the_replicated_metadata_family(self):
        profile = _profile("seqfs", BOTH_MECHANISMS_WORKLOAD,
                           bugs=BugConfig.none())
        report = analyze_io_log(profile.io_log, "seqfs")
        replica = report.evidence_for("replicated-metadata")
        assert replica is not None
        assert replica.epochs > 0
        assert set(replica.block_ranges) == {
            (layout.SUPERBLOCK_BLOCK, layout.SUPERBLOCK_BLOCK),
            (layout.REPLICA_SUPERBLOCK_BLOCK, layout.REPLICA_SUPERBLOCK_BLOCK),
        }
        assert "replica" in replica.invariant

    def test_flashfs_stream_stays_two_family(self):
        # No segment area, no replica pair: the new reasoners must not
        # hallucinate their families onto a journaling stream.
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        report = analyze_io_log(profile.io_log, "flashfs")
        assert set(report.mechanisms) == {"journal-commit", "checkpoint-generation"}


class TestContractAuditor:
    def test_correct_streams_audit_clean(self):
        for fs_name in ALL_FS:
            profile = _profile(fs_name, BOTH_MECHANISMS_WORKLOAD,
                               bugs=BugConfig.none())
            report = audit_report(
                analyze_io_log(profile.io_log, fs_name), profile.io_log
            )
            assert report.audited, fs_name
            assert report.demotions == 0, fs_name
            assert all(v.ok for v in report.audit_verdicts), fs_name
            # One verdict per surviving claim — nothing escapes the audit.
            assert {v.mechanism for v in report.audit_verdicts} \
                == set(report.mechanisms), fs_name

    def test_unfenced_append_demotes_the_lsw_claim(self):
        profile = _profile("logfs", BOTH_MECHANISMS_WORKLOAD,
                           bugs=BugConfig.only("lsw_unfenced_append"))
        report = audit_report(
            analyze_io_log(profile.io_log, "logfs"), profile.io_log
        )
        assert report.evidence_for("log-structured-write") is None
        assert report.demoted_for("log-structured-write") is not None
        verdict = report.verdict_for("log-structured-write")
        assert not verdict.ok
        # The skipped sealing flush makes the claimed fence a plain write.
        assert any(c.name == "fence-edges-exist" for c in verdict.failed_checks())
        assert "DEMOTED" in report.summary()

    def test_replica_no_fua_demotes_the_replica_claim(self):
        profile = _profile("seqfs", BOTH_MECHANISMS_WORKLOAD,
                           bugs=BugConfig.only("replica_commit_no_fua"))
        report = audit_report(
            analyze_io_log(profile.io_log, "seqfs"), profile.io_log
        )
        assert report.evidence_for("replicated-metadata") is None
        assert report.demoted_for("replicated-metadata") is not None
        verdict = report.verdict_for("replicated-metadata")
        assert not verdict.ok
        assert any(c.name == "fence-edges-exist" for c in verdict.failed_checks())

    def test_a_fed_cursor_audits_like_a_fresh_fold_without_refeeding(self, monkeypatch):
        streams = [(fs_name, _profile(fs_name, BOTH_MECHANISMS_WORKLOAD, bugs).io_log)
                   for fs_name in ALL_FS for bugs in (None, BugConfig.none())]
        folded = [(fs_name, log, AnalysisCursor().feed_all(log)) for fs_name, log in streams]
        expected = [audit_report(cursor.finish(fs_name), log) for fs_name, log, cursor in folded]
        assert any(report.demotions for report in expected)
        monkeypatch.setattr(AnalysisCursor, "feed", lambda cursor, request: 1 / 0)
        assert [audit_report(cursor.finish(fs_name), log, cursor)
                for fs_name, log, cursor in folded] == expected

    def test_the_analyze_command_folds_the_stream_once(self, monkeypatch):
        harness = CrashMonkey("logfs", device_blocks=SMALL_DEVICE_BLOCKS)
        fed = []
        real = AnalysisCursor.feed
        monkeypatch.setattr(AnalysisCursor, "feed",
                            lambda cursor, request: fed.append(request) or real(cursor, request))
        report = harness.analyze(parse_workload(BOTH_MECHANISMS_WORKLOAD, name="once"))
        assert report.audited and report.demotions
        assert len(fed) == report.total_requests

    def test_an_audited_payload_is_plain_json_with_its_verdicts(self):
        profile = _profile("logfs", BOTH_MECHANISMS_WORKLOAD,
                           bugs=BugConfig.only("lsw_unfenced_append"))
        report = audit_report(
            analyze_io_log(profile.io_log, "logfs"), profile.io_log
        )
        payload = report.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert [v["mechanism"] for v in payload["audit_verdicts"]] == \
            [v.mechanism for v in report.audit_verdicts]
        assert len(payload["demoted_evidence"]) == report.demotions > 0


# ---------------------------------------------------------- window classification


#: a report that inferred nothing: every window it classifies falls back
NOTHING_INFERRED = MechanismReport(
    fs_name="", total_requests=0, write_requests=0, checkpoints=0,
    evidence=(), unattributed_window_writes=0,
)


def _kinds(plan, windows):
    """The plan's window-kind counts after enumerating ``windows``."""
    for checkpoint_id, window in enumerate(windows):
        list(plan.scenarios(checkpoint_id, window))
    return plan.window_kinds


class TestClassifyWindow:
    def _windows(self, fs_name="flashfs", bugs=None):
        profile = _profile(fs_name, BOTH_MECHANISMS_WORKLOAD, bugs=bugs)
        generator = CrashStateGenerator(profile)
        generator._ensure_built()
        report = analyze_io_log(profile.io_log, fs_name)
        return profile, report, [
            record.window for _, record in sorted(generator._records.items())
        ]

    def test_without_an_inferred_mechanism_every_nonempty_window_is_exhaustive(self):
        _, _, windows = self._windows()
        plan = MechanismPlanner(report=NOTHING_INFERRED)
        kinds = _kinds(plan, windows)
        assert set(kinds) <= {plan.WINDOW_EMPTY, plan.WINDOW_EXHAUSTIVE}
        assert plan.mechanism_fallback_checkpoints == kinds.get(plan.WINDOW_EXHAUSTIVE) > 0

    def test_with_the_report_flashfs_windows_are_attributed(self):
        _, report, windows = self._windows()
        plan = MechanismPlanner(report=report)
        kinds = _kinds(plan, windows)
        assert plan.WINDOW_MECHANISM in kinds
        assert plan.WINDOW_EXHAUSTIVE not in kinds
        assert plan.mechanism_checkpoints == kinds[plan.WINDOW_MECHANISM]

    def test_windows_with_no_droppable_writes_are_empty(self):
        plan = MechanismPlanner(report=NOTHING_INFERRED)
        assert _kinds(plan, [[]]) == {plan.WINDOW_EMPTY: 1}
        assert plan.mechanism_checkpoints == plan.mechanism_fallback_checkpoints == 0

    def test_each_workload_gets_a_fresh_plan_bound_to_its_own_analysis(self):
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        planner = MechanismPlanner()
        plan = planner.for_profile(profile)
        assert plan is not planner and plan is not planner.for_profile(profile)
        assert plan.report == audit_report(analyze_io_log(profile.io_log, "flashfs"),
                                           profile.io_log)
        assert plan.window_kinds == {} and plan.audit_demotions == plan.report.demotions

    def test_an_unbound_plan_refuses_to_enumerate(self):
        with pytest.raises(HarnessError, match="for_profile"):
            list(MechanismPlanner().scenarios(1, []))


# ------------------------------------------------------------------- fallback


class TestExhaustiveFallback:
    def test_unattributed_windows_get_the_torn_plan_verbatim(self):
        # Nothing inferred: every window must delegate to the exhaustive
        # planner — same scenarios, in the same order.
        profile = _profile("flashfs", BOTH_MECHANISMS_WORKLOAD)
        generator = CrashStateGenerator(profile)
        generator._ensure_built()
        plan = MechanismPlanner(reorder_bound=2, torn_bound=2, report=NOTHING_INFERRED)
        torn = TornWritePlanner(torn_bound=2, reorder_bound=2)
        compared = 0
        for checkpoint_id, record in sorted(generator._records.items()):
            assert (list(plan.scenarios(checkpoint_id, record.window))
                    == list(torn.scenarios(checkpoint_id, record.window)))
            compared += 1
        assert compared > 0

    def test_analyzed_mechanism_harness_counts_no_fallbacks(self):
        workload = parse_workload(BOTH_MECHANISMS_WORKLOAD, name="analyzed")
        result = CrashMonkey("flashfs", device_blocks=SMALL_DEVICE_BLOCKS,
                             crash_plan="mechanism").test_workload(workload)
        assert result.mechanism_checkpoints > 0
        assert result.mechanism_fallback_checkpoints == 0


# ------------------------------------------------------------- corrupt streams


class TestCorruptStreamIsNeverAPass:
    def _truncated_harness(self, monkeypatch, crash_plan):
        harness = CrashMonkey("flashfs", device_blocks=SMALL_DEVICE_BLOCKS,
                              crash_plan=crash_plan)
        real_profile = harness.recorder.profile

        def truncated(workload, step=None):
            profile = real_profile(workload, step=step)
            # Drop the tail of the recording: the last persistence point's
            # marker never made it into the stream, but the oracle for it
            # exists — an internally inconsistent recording.
            keep = [r.seq for r in profile.io_log if r.is_checkpoint][-1]
            profile.io_log = tuple(r for r in profile.io_log if r.seq < keep)
            return profile

        monkeypatch.setattr(harness.recorder, "profile", truncated)
        return harness

    def test_truncated_io_log_surfaces_as_a_harness_error(self, monkeypatch):
        harness = self._truncated_harness(monkeypatch, "mechanism")
        result = harness.test_workload(
            parse_workload(BOTH_MECHANISMS_WORKLOAD, name="truncated")
        )
        assert not result.passed
        report = result.bug_reports[-1]
        assert report.primary.consequence == HARNESS_ERROR
        assert Severity.rank_of(HARNESS_ERROR) == 0
        assert report.checkpoint_id == -1

    def test_the_exhaustive_plans_surface_the_same_harness_error(self, monkeypatch):
        for plan in ("prefix", "reorder", "torn"):
            harness = self._truncated_harness(monkeypatch, plan)
            result = harness.test_workload(
                parse_workload(BOTH_MECHANISMS_WORKLOAD, name=f"truncated-{plan}")
            )
            assert not result.passed
            assert result.bug_reports[-1].primary.consequence == HARNESS_ERROR

    def test_mechanism_counters_are_canonical_but_not_session_fields(self):
        from repro.crashmonkey.report import CrashTestResult

        result = CrashTestResult(
            workload=parse_workload("creat foo\nsync", name="fields"),
            fs_type="flashfs", fs_model="flashfs",
        )
        canonical = result.canonical_dict()
        assert "mechanism_checkpoints" in canonical
        assert "mechanism_fallback_checkpoints" in canonical
        assert "mechanism_checkpoints" not in CrashTestResult.SESSION_FIELDS
