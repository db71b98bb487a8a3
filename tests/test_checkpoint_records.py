"""The recording run's checkpoint records are the ones a walk of the stream builds.

A crash state is a fork of what the recording device held at a checkpoint
marker (the baseline), or of its fork at the last flush barrier before it
(the stable state) plus some of the writes issued since (the window).  The
recorder takes those while it records, and resumed siblings inherit them
from prefix nodes — possibly thawed from a spill file.  So the lane holds
every profile the harness records, tested as one planned stream, to a
from-scratch walk of its ``io_log`` (``differential.walked_records``):
marker position, baseline, stable and window at every checkpoint, over

* the full seq-1 space of all four file systems,
* the seq-2 differential slice,
* the first seq-3-data family, under a zero budget (every stored node
  spilled and read back) and resident.

Seeded-unsound variants — a window a barrier does not reset, a stable fork
taken at the marker instead of the barrier, a recording device fork that
shares its window with the run it was forked from — must fail it.

A resumed profile shares the records of the prefix it resumed from — the
same objects, so its crash states find the verdicts filed under them — and
records only those past it.  Harness reports are the same whether records
come from the recording run or from the walk, though only the former let a
sibling inherit verdicts.  That sharing is by identity, so it holds while
the spine is resident; a record thawed from a spill is equal, not the same
(the zero-budget lane above), and these checks pin a resident budget.  The
retired replay-sharing counters stay zero.
"""

import pytest

from repro.crashmonkey import CrashStateGenerator, MechanismPlanner
from repro.crashmonkey.recorder import WorkloadRecorder
from repro.crashmonkey.verdicts import _CheckpointRecord
from repro.core import CampaignConfig, CampaignResult
from repro.fs import BugConfig
from repro.storage import RecordingDevice, SpineStore
from repro.workload import parse_workload

import differential
from conftest import SIBLING_A, SIBLING_B, SMALL_DEVICE_BLOCKS
from differential import ALL_FS

#: a spine budget no test here exceeds: every node stays in memory
RESIDENT = 1 << 28


def records_against_the_walk(patch):
    """Observer: every profile the harness records, compared with the walk
    as it is returned; counts what was compared and keeps the mismatches."""
    seen = {"profiles": 0, "records": 0, "shared": 0, "mismatches": []}
    real = WorkloadRecorder.profile

    def profile(recorder, workload, step=None):
        recorded = real(recorder, workload, step)
        mismatch = differential.records_mismatch(recorded)
        if mismatch is not None:
            seen["mismatches"].append(f"{workload.display_name()}: {mismatch}")
        seen["profiles"] += 1
        seen["records"] += len(recorded.records)
        seen["shared"] += recorded.prefix_shared
        return recorded

    patch.setattr(WorkloadRecorder, "profile", profile)
    yield seen


def assert_records_are_the_walks(fs_name, space, **spec):
    run = differential.run(fs_name, space=space, stream=True,
                           observe=records_against_the_walk, **spec)
    seen = run.seen
    assert not seen["mismatches"], seen["mismatches"][:5]
    assert seen["profiles"] == len(differential.space(space))
    assert seen["records"] > 0 and seen["shared"] > 0, seen
    return run


@pytest.mark.parametrize("space", ["seq-1", "seq-2"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_recorded_records_are_the_walks(fs_name, space):
    assert_records_are_the_walks(fs_name, space)


@pytest.mark.parametrize("budget", [0, RESIDENT], ids=["spilled", "resident"])
@pytest.mark.parametrize("fs_name", ALL_FS)
def test_the_seq3_family_records_are_the_walks_spilled_or_resident(fs_name, budget):
    run = assert_records_are_the_walks(fs_name, "seq-3-data-family",
                                       spine_memory_budget=budget)
    assert (run.total("spine_rehydrations") > 0) == (budget == 0)


# ------------------------------------------------------------------ seeded variants


def window_not_reset_at_a_barrier(patch):
    real = RecordingDevice.flush

    def flush(device, *, sync=False):
        window = device._window
        real(device, sync=sync)
        device._window = window

    patch.setattr(RecordingDevice, "flush", flush)


def stable_forked_at_the_marker(patch):
    real = RecordingDevice.mark_checkpoint

    def mark_checkpoint(device):
        device.stable = device.target.snapshot(name="stable")
        return real(device)

    patch.setattr(RecordingDevice, "mark_checkpoint", mark_checkpoint)


@pytest.mark.parametrize("variant", [window_not_reset_at_a_barrier, stable_forked_at_the_marker],
                         ids=lambda variant: variant.__name__)
def test_the_lane_rejects_records_taken_at_the_wrong_point(variant):
    differential.rejects(variant, test_recorded_records_are_the_walks, "logfs", "seq-1")


def test_the_lane_rejects_a_resume_that_inherits_a_sibling_s_window():
    # On seq-1 a shared window reaches a checkpoint record on flashfs alone:
    # the other three file systems pass this lane under the variant.
    differential.rejects(differential.recording_fork_sharing("_window"),
                         test_recorded_records_are_the_walks, "flashfs", "seq-1", match="window")


# ------------------------------------------------------------------ inheritance


def resident_recorder(fs_name, bugs=None, **options):
    return differential.recorder(fs_name, bugs, spine_store=SpineStore(RESIDENT), **options)


def assert_walked(profile, context=""):
    mismatch = differential.records_mismatch(profile)
    assert mismatch is None, f"{context} {mismatch}"


def inherited(profile, previous) -> list:
    """Checkpoint ids whose record ``profile`` shares with ``previous`` (by identity)."""
    return [checkpoint_id for checkpoint_id, record in sorted(profile.records.items())
            if previous.records.get(checkpoint_id) is record]


def test_exact_prefix_workload_inherits_every_record():
    """A workload equal to a prefix of the last one records nothing: every
    record is the last one's."""
    recorder = resident_recorder("logfs", BugConfig.none())
    long = recorder.profile(
        parse_workload("creat foo\nfsync foo\ncreat bar\nfsync bar", name="long"))
    short = recorder.profile(parse_workload("creat foo\nfsync foo", name="short"))
    assert_walked(short)
    assert short.records and inherited(short, long) == sorted(short.records)
    assert short.fresh_write_requests == 0


def test_resumed_profile_records_only_the_divergent_suffix():
    recorder = resident_recorder("logfs")
    first = recorder.profile(parse_workload(SIBLING_A, name="A"))
    second = recorder.profile(parse_workload(SIBLING_B, name="B"))
    assert_walked(first, "A")
    assert_walked(second, "B")
    assert second.prefix_shared
    # Both fsync foo (checkpoint 1) before they part; B's own fsync is new.
    assert sorted(second.records) == [1, 2]
    assert inherited(second, first) == [1]


def test_records_survive_divergence_and_reconvergence():
    recorder = resident_recorder("seqfs")
    texts = [SIBLING_A, SIBLING_B, SIBLING_A, "creat other\nsync"]
    profiles = [recorder.profile(parse_workload(text, name=f"wl-{index}"))
                for index, text in enumerate(texts)]
    for text, profile in zip(texts, profiles):
        assert_walked(profile, text)
    # B resumes on A's prefix and A's re-run on B's, each taking the record
    # of the shared fsync; the last stream shares only the root, no record.
    assert [inherited(later, earlier) for earlier, later in zip(profiles, profiles[1:])] == [
        [1], [1], []]
    assert profiles[2].records[1] is profiles[0].records[1]


def test_clear_prefix_cache_forces_fresh_records():
    recorder = resident_recorder("logfs")
    workload = parse_workload(SIBLING_A, name="A")
    first = recorder.profile(workload)
    recorder.clear_prefix_cache()
    again = recorder.profile(workload)
    assert_walked(again)
    assert not again.prefix_shared
    assert again.records.keys() == first.records.keys()
    assert inherited(again, first) == []


def test_records_without_prefix_shared_recording():
    """A recorder that shares no prefixes still takes its records while it
    records, and no two profiles share one."""
    recorder = differential.recorder("logfs", share_prefixes=False)
    workload = parse_workload(SIBLING_A, name="A")
    first, again = recorder.profile(workload), recorder.profile(workload)
    assert_walked(first)
    assert_walked(again)
    assert first.records and inherited(again, first) == []


def test_the_analysis_of_a_resumed_profile_is_that_of_a_fresh_one():
    """The mechanism analysis reads the finished stream, so a profile that
    resumed inside a prefix is analysed as if recorded from scratch."""
    shared = resident_recorder("logfs")
    shared.profile(parse_workload(SIBLING_A, name="A"))
    workload = parse_workload(SIBLING_B, name="B")
    resumed = shared.profile(workload)
    fresh = differential.recorder("logfs", share_prefixes=False).profile(workload)
    assert resumed.prefix_shared
    reports = []
    for profile in (resumed, fresh):
        generator = CrashStateGenerator(profile, planner=MechanismPlanner())
        generator._ensure_built()
        assert generator.plan.report is not None
        reports.append((generator.plan.report.to_dict(), generator.plan.audit_demotions))
    assert reports[0] == reports[1]


# ------------------------------------------------------------------ harness parity


def walked_records_instead(patch):
    """Every profile's records replaced by fresh ones from the walk: equal
    content, but no record, and so no verdict, shared between profiles."""
    real = WorkloadRecorder.profile

    def profile(recorder, workload, step=None):
        recorded = real(recorder, workload, step)
        recorded.records = {checkpoint_id: _CheckpointRecord(checkpoint_id, *parts)
                            for checkpoint_id, parts
                            in differential.walked_records(recorded).items()}
        return recorded

    patch.setattr(WorkloadRecorder, "profile", profile)


@pytest.mark.parametrize("fs_name", ALL_FS)
def test_harness_reports_identical_with_recorded_and_walked_records(fs_name):
    spec = dict(space="seq-3-data-family", crash_plan="torn", spine_memory_budget=RESIDENT)
    recorded = differential.reference(fs_name, **spec)
    walked = differential.run(fs_name, variant=walked_records_instead, **spec)
    differential.assert_same(walked, recorded)
    assert walked.total("inherited_verdicts") == 0
    assert recorded.total("inherited_verdicts") > 0


# ------------------------------------------------------------------ accounting


def _campaign(*texts):
    config = CampaignConfig(fs_name="btrfs", device_blocks=SMALL_DEVICE_BLOCKS, chunk_size=8)
    workloads = [parse_workload(text, name=f"wl-{index}") for index, text in enumerate(texts)]
    return differential.chunk_outcomes(config, iter(workloads))


def test_campaign_result_keeps_the_retired_replay_counters_at_zero():
    """Sharing happens while recording now; the replay counters keep their
    shape for stored results and readers, and stay zero."""
    outcomes = _campaign(SIBLING_A, SIBLING_B)
    result = CampaignResult.of_outcomes(outcomes, fs_name="btrfs", fs_model="btrfs")
    assert result.prefix_hits == 1
    assert result.replay_hits == 0
    assert result.replay_writes_reused == 0
    assert all(r.replay_seconds_saved == 0.0 and not r.replay_shared for r in result.results)
    assert sum(outcome.replay_hits for outcome in outcomes) == 0


def test_describe_omits_replay_line_without_hits():
    description = CampaignResult.of_outcomes(_campaign(SIBLING_A), fs_name="btrfs",
                                             fs_model="btrfs").describe()
    assert "replay:" not in description
    assert "trail hits" not in description
