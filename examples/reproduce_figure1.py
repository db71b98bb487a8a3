"""Reproduce the paper's Figure 1 bug step by step.

The workload — create a file, hard-link it, sync, unlink the link, re-create
the name, fsync — leaves the btrfs-like file system un-mountable after a
crash, because log replay tries to remove the stale directory entry twice.

This example walks through the pipeline explicitly (profile, build the crash
state, mount it, run fsck) instead of using the one-call harness, to show
what each phase produces.

Run with::

    python examples/reproduce_figure1.py
"""

from repro.crashmonkey import CheckPipeline, CrashStateGenerator, WorkloadRecorder
from repro.fs import BugConfig
from repro.workload import parse_workload

FIGURE1 = """
creat foo
link foo bar
sync
unlink bar
creat bar
fsync bar
"""


def run(label: str, bugs) -> None:
    print(f"--- {label} ---")
    workload = parse_workload(FIGURE1, name="figure-1")
    print(workload.describe())
    print()

    # Phase 1: profile the workload (record block I/O, oracles, persisted set).
    recorder = WorkloadRecorder("btrfs", bugs, device_blocks=4096)
    profile = recorder.profile(workload)
    print(f"recorded {len(profile.io_log)} block I/O requests, "
          f"{profile.num_checkpoints} persistence points")

    # Phase 2 + 3: build each crash state, remount, and check it.
    generator = CrashStateGenerator(profile)
    checker = CheckPipeline()
    for crash_state in generator.generate_all():
        print(f"\ncrash state after persistence point #{crash_state.checkpoint_id} "
              f"({crash_state.crash_point}):")
        print(" ", crash_state.describe())
        if crash_state.fsck_report is not None:
            print("  fsck:", crash_state.fsck_report.describe().replace("\n", "\n  "))
        mismatches = checker.check(profile, crash_state)
        if not mismatches:
            print("  all checks passed")
        for mismatch in mismatches:
            print("  " + mismatch.describe().replace("\n", "\n  "))
    print()


def main() -> int:
    run("unpatched btrfs-like file system (all bug mechanisms enabled)", None)
    run("patched file system (no bug mechanisms)", BugConfig.none())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
