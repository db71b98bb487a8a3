"""Torn-write crash plan: scenario blow-up, coverage, and dedup hit rate.

The torn plan tears in-flight writes at 512-byte sector granularity, spending
its bounded tear budget on commit-critical (superblock/checkpoint/log) blocks
first.  This benchmark shows (a) how ``torn_bound`` controls the scenario
blow-up on top of the reorder plan, (b) that the torn states buy real
coverage: the missing-flush-before-FUA bug is invisible to both prefix and
reorder and found by torn, (c) that cross-checkpoint dedup measurably
reduces constructed states on flush-free windows, and (d) how many of the
torn plan's states are *distinct*: byte-identical states of one checkpoint
are mounted and checked once, with the same reports as mounting them all.

Runs with tiny bounds so it doubles as the CI regression smoke next to the
fig3 and reorder benchmarks.
"""

import time

from repro.crashmonkey import CrashMonkey, CrashStateGenerator, TornWritePlanner, WorkloadRecorder
from repro.fs import BugConfig
from repro.workload import parse_workload

from conftest import BENCH_DEVICE_BLOCKS, print_table

#: Hits the flashfs/seqfs FUA bug: sync commits a checkpoint over unflushed
#: checkpoint blocks, so the in-flight window at the marker is tearable.
FUA_WORKLOAD = """
creat foo
write foo 0 16384
sync
write foo 16384 8192
sync
"""

#: Same bug with a metadata tree big enough for a multi-chunk checkpoint:
#: several checkpoint blocks stay in flight, giving the tear budget a choice.
FUA_WIDE_WORKLOAD = "\n".join(
    f"creat f{i}\nwrite f{i} 0 4096" for i in range(24)
) + "\nsync"

#: The last two persistence points are no-ops (the buggy fdatasync skip
#: path): identical stable fork, window, and expectations — a flush-free
#: window where cross-checkpoint dedup collapses repeat states.
DEDUP_WORKLOAD = """
creat foo
write foo 0 8192
fsync foo
falloc foo 8192 8192 keep_size
fdatasync foo
fdatasync foo
"""


def _scenario_count(profile, torn_bound, reorder_bound=1):
    generator = CrashStateGenerator(
        profile, planner=TornWritePlanner(torn_bound=torn_bound, reorder_bound=reorder_bound)
    )
    return sum(1 for _ in generator.scenario_plan())


def test_torn_bound_controls_scenario_blowup():
    recorder = WorkloadRecorder("f2fs", BugConfig.only("missing_flush_before_fua"),
                                device_blocks=BENCH_DEVICE_BLOCKS)
    profile = recorder.profile(parse_workload(FUA_WIDE_WORKLOAD, name="fua-wide"))
    counts = {bound: _scenario_count(profile, bound) for bound in (1, 2, 3)}
    print_table(
        "torn scenarios per bound (multi-chunk checkpoint)",
        [(f"torn_bound={bound}", count) for bound, count in counts.items()],
        ("bound", "scenarios"),
    )
    # Each torn write adds SECTORS_PER_BLOCK - 1 = 7 scenarios per checkpoint.
    assert counts[1] < counts[2] <= counts[3]
    assert counts[2] - counts[1] >= 7  # at least one more write torn somewhere


def test_torn_finds_the_fua_bug_prefix_and_reorder_miss():
    workload = parse_workload(FUA_WORKLOAD, name="fua")
    bugs = BugConfig.only("missing_flush_before_fua")

    rows = []
    results = {}
    for plan, kwargs in (
        ("prefix", {}),
        ("reorder", {"crash_plan": "reorder", "reorder_bound": 2}),
        ("torn", {"crash_plan": "torn", "torn_bound": 1}),
    ):
        start = time.perf_counter()
        result = CrashMonkey("f2fs", bugs=bugs, device_blocks=BENCH_DEVICE_BLOCKS,
                             **kwargs).test_workload(workload)
        seconds = time.perf_counter() - start
        results[plan] = result
        rows.append((plan, result.scenarios_tested, len(result.bug_reports),
                     f"{seconds * 1000:.2f} ms"))
    print_table("prefix vs reorder vs torn on the missing-flush-before-FUA bug",
                rows, ("plan", "scenarios", "bug reports", "wall clock"))

    assert results["prefix"].passed, "ordered replay cannot see the missing flush"
    assert results["reorder"].passed, (
        "a cleanly dropped checkpoint block falls back safely: reorder is blind"
    )
    assert not results["torn"].passed, "a sector-torn checkpoint block must expose it"
    assert all(r.scenario.startswith("torn[tear=") for r in results["torn"].bug_reports)


def test_cross_checkpoint_dedup_reduces_constructed_states():
    workload = parse_workload(DEDUP_WORKLOAD, name="dedup")
    bugs = BugConfig.only("falloc_keep_size_fdatasync")

    rows = []
    results = {}
    for label, dedup in (("dedup on", True), ("dedup off", False)):
        start = time.perf_counter()
        result = CrashMonkey("ext4", bugs=bugs, device_blocks=BENCH_DEVICE_BLOCKS,
                             crash_plan="torn", dedup_scenarios=dedup
                             ).test_workload(workload)
        seconds = time.perf_counter() - start
        results[label] = result
        rows.append((label, result.scenarios_tested, result.deduped_scenarios,
                     len(result.bug_reports), f"{seconds * 1000:.2f} ms"))
    print_table("cross-checkpoint dedup on a flush-free window",
                rows, ("mode", "constructed", "deduped", "bug reports", "wall clock"))

    on, off = results["dedup on"], results["dedup off"]
    assert on.deduped_scenarios > 0, "the repeat no-op checkpoint must be collapsed"
    assert on.scenarios_tested < off.scenarios_tested
    assert on.scenarios_tested + on.deduped_scenarios == off.scenarios_tested
    # Dedup drops the double-counted duplicates but never a distinct finding.
    assert {r.group_key() for r in on.bug_reports} == {r.group_key() for r in off.bug_reports}
    assert len(on.bug_reports) < len(off.bug_reports)


def _always_mount(harness, workload):
    """Reference loop (lives here, not in ``src/``): every planner scenario
    is constructed, mounted and checked on its own."""
    profile = harness.profile(workload)
    generator = CrashStateGenerator(profile, planner=harness.planner)
    scenarios = 0
    reports = set()
    for scenario in generator.scenario_plan():
        state = generator._construct(generator._record_for(scenario.checkpoint_id), scenario)
        scenarios += 1
        found = harness.checker.check(profile, state)
        if found:
            reports.add((state.checkpoint_id, state.scenario_id,
                         tuple((m.check, m.consequence, m.path, m.actual) for m in found)))
    return scenarios, reports


def test_distinct_states_are_mounted_once_with_identical_reports():
    rows = []
    for label, fs_name, bug, text in (
        ("fua", "f2fs", "missing_flush_before_fua", FUA_WORKLOAD),
        ("fua-wide", "f2fs", "missing_flush_before_fua", FUA_WIDE_WORKLOAD),
        ("dedup", "ext4", "falloc_keep_size_fdatasync", DEDUP_WORKLOAD),
    ):
        workload = parse_workload(text, name=label)
        # Cross-checkpoint dedup off: the reference enumerates the plain plan.
        harness = CrashMonkey(fs_name, bugs=BugConfig.only(bug), crash_plan="torn",
                              device_blocks=BENCH_DEVICE_BLOCKS, dedup_scenarios=False)
        harness.profile(workload)  # warm the prefix cache: both sides then resume from it
        start = time.perf_counter()
        result = harness.test_workload(workload)
        with_memo = time.perf_counter() - start
        start = time.perf_counter()
        scenarios, reference_reports = _always_mount(harness, workload)
        without_memo = time.perf_counter() - start

        mounted = result.scenarios_tested - result.memoized_scenarios
        rows.append((label, result.scenarios_tested, mounted, result.memoized_scenarios,
                     f"{with_memo * 1000:.2f} ms", f"{without_memo * 1000:.2f} ms"))
        assert result.scenarios_tested == scenarios
        if fs_name == "f2fs":
            # Checkpoint chunks are zero-padded envelopes: cuts inside the
            # padding repeat the baseline.  (The ext4 workload flushes at
            # every persistence point — empty windows, one state each — so
            # nothing can repeat there and memoized reads 0.)
            assert result.memoized_scenarios > 0, f"{label}: some torn states must repeat"
        reports = {
            (r.checkpoint_id, r.scenario,
             tuple((m.check, m.consequence, m.path, m.actual) for m in r.mismatches))
            for r in result.bug_reports
        }
        assert reports == reference_reports, label
    print_table("distinct states under the torn plan (mounted once each)", rows,
                ("workload", "scenarios", "mounted", "memoized",
                 "wall clock", "always-mount wall clock"))
