"""Figures 2/3 and §6.3 — CrashMonkey's phases and their cost.

CrashMonkey operates in three phases: profile the workload, construct crash
states, test correctness.  The paper reports 4.6 s end-to-end per workload
(dominated by kernel mount/unmount delays), ~20 ms to construct a crash state
and ~20 ms for the checks.  The simulator has no kernel delays, so everything
is far faster — the *shape* to reproduce is that profiling dominates and that
replay and checking are comparatively cheap.
"""

import statistics

from repro.ace import AceSynthesizer, seq2_bounds
from repro.crashmonkey import CheckPipeline, CrashStateGenerator, WorkloadRecorder
from repro.workload import parse_workload

from conftest import BENCH_DEVICE_BLOCKS, make_harness, print_table


def _naive_rescan_writes(profile):
    """Write work of the pre-incremental replayer: re-scan the prefix per checkpoint."""
    return sum(
        sum(1 for r in profile.io_log if r.is_write and r.seq <= marker.seq)
        for marker in profile.io_log
        if marker.is_checkpoint
    )

WORKLOAD = """
mkdir A
creat A/foo
write A/foo 0 16384
fsync A/foo
link A/foo A/bar
fsync A/bar
rename A/foo A/baz
sync
"""


def test_fig3_profile_phase(benchmark):
    recorder = WorkloadRecorder("btrfs", device_blocks=BENCH_DEVICE_BLOCKS)
    workload = parse_workload(WORKLOAD, name="phase-bench")
    profile = benchmark(recorder.profile, workload)
    assert profile.num_checkpoints == 3
    assert profile.recorded_bytes > 0


def test_fig3_crash_state_construction_phase(benchmark):
    recorder = WorkloadRecorder("btrfs", device_blocks=BENCH_DEVICE_BLOCKS)
    profile = recorder.profile(parse_workload(WORKLOAD, name="phase-bench"))
    generator = CrashStateGenerator(profile)
    state = benchmark(generator.generate, 3)
    assert state.mountable


def test_fig3_autochecker_phase(benchmark):
    recorder = WorkloadRecorder("btrfs", device_blocks=BENCH_DEVICE_BLOCKS)
    profile = recorder.profile(parse_workload(WORKLOAD, name="phase-bench"))
    crash_state = CrashStateGenerator(profile).generate(3)
    checker = CheckPipeline()
    mismatches = benchmark(checker.check, profile, crash_state)
    assert isinstance(mismatches, list)


def test_fig3_end_to_end_breakdown(benchmark):
    """End-to-end latency breakdown over a batch of generated workloads."""
    workloads = AceSynthesizer(seq2_bounds()).sample(30)
    harness = make_harness("btrfs")

    def run_batch():
        return [harness.test_workload(workload) for workload in workloads]

    results = benchmark.pedantic(run_batch, iterations=1, rounds=1)
    profile = statistics.mean(result.profile_seconds for result in results)
    replay = statistics.mean(result.replay_seconds for result in results)
    mount = statistics.mean(result.mount_seconds for result in results)
    fsck = statistics.mean(result.fsck_seconds for result in results)
    check = statistics.mean(result.check_seconds for result in results)
    total = profile + replay + mount + fsck + check

    print_table(
        "CrashMonkey per-workload latency breakdown (§6.3)",
        [
            ("profile workload", "~4.6 s (84% waiting on mount/IO settle)", f"{profile * 1000:.2f} ms"),
            ("construct crash state", "~20 ms", f"{replay * 1000:.2f} ms"),
            ("mount / recovery", "(lumped into the above)", f"{mount * 1000:.2f} ms"),
            ("fsck on mount failure", "(lumped into the above)", f"{fsck * 1000:.2f} ms"),
            ("check consistency", "~20 ms", f"{check * 1000:.2f} ms"),
            ("total", "~4.6 s", f"{total * 1000:.2f} ms"),
        ],
        ("phase", "paper", "measured (simulator)"),
    )

    # Shape: profiling is the dominant phase, as in the paper.
    assert profile > replay
    assert profile > check
    # The split attribution must still account for the full pipeline.
    assert abs(total - statistics.mean(result.total_seconds for result in results)) < 1e-6


def test_fig3_replay_write_work_is_linear_in_log_length():
    """The incremental builder replays each recorded write exactly once.

    Constructing every crash state of a workload costs one pass over the
    recorded stream — linear in the log length — where the old per-checkpoint
    rescan replayed the whole prefix again for every persistence point
    (quadratic in total).  The asserted seq-2 speedup is the replay-phase win.
    """
    recorder = WorkloadRecorder("btrfs", device_blocks=BENCH_DEVICE_BLOCKS)
    linear_total = 0
    naive_total = 0
    multi_checkpoint = 0
    for workload in AceSynthesizer(seq2_bounds()).sample(30):
        profile = recorder.profile(workload)
        if profile.num_checkpoints == 0:
            continue  # nothing to replay (every persistence op was skipped)
        generator = CrashStateGenerator(profile)
        for _ in generator.generate_all():
            pass
        recorded_writes = sum(1 for r in profile.io_log if r.is_write)
        # Linear: the one-pass build applied each recorded write exactly once.
        assert generator.replayed_write_requests == recorded_writes, workload.display_name()
        linear_total += recorded_writes
        naive_total += _naive_rescan_writes(profile)
        if profile.num_checkpoints > 1:
            multi_checkpoint += 1

    speedup = naive_total / linear_total if linear_total else 1.0
    print_table(
        "replay-phase write work over 30 seq-2 workloads",
        [
            ("per-checkpoint rescan (pre-refactor)", f"{naive_total} writes replayed"),
            ("incremental one-pass builder", f"{linear_total} writes replayed"),
            ("replay-phase speedup", f"{speedup:.2f}x"),
        ],
        ("replayer", "work"),
    )
    assert multi_checkpoint > 0, "sample must include multi-checkpoint workloads"
    assert naive_total > linear_total
