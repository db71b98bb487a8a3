"""Command-line interface for the B3 reproduction.

Subcommands mirror how the paper's tools are used:

* ``repro-b3 study``          — print the Table-1 bug-study breakdown,
* ``repro-b3 generate``       — generate ACE workloads for a sequence length,
* ``repro-b3 test``           — run a workload file through CrashMonkey,
* ``repro-b3 campaign``       — generate-and-test a bounded workload space,
* ``repro-b3 analyze``        — statically infer a trace's persistence
  mechanisms (no crash states run),
* ``repro-b3 list-checks`` / ``list-planners`` — list the registered
  consistency checks / crash planners,
* ``repro-b3 reproduce``      — replay a known/new bug from the database,
* ``repro-b3 list-bugs``      — list the known-bug corpus.

Durable campaigns (``campaign --state-db PATH`` writes them to a state store) add:

* ``repro-b3 status``         — campaign progress,
* ``repro-b3 resume``         — finish an interrupted campaign,
* ``repro-b3 results``        — print/export a finished campaign's result.

These three only read an existing store: a missing store or an unknown
campaign id is refused with one ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import List, Optional

from ..ace.bounds import (
    Bounds,
    seq1_bounds,
    seq2_bounds,
    seq3_data_bounds,
    seq3_metadata_bounds,
    seq3_nested_bounds,
)
from ..ace.synthesizer import AceSynthesizer
from ..core.campaign import B3Campaign
from ..core.known_bugs import all_bugs, get_bug
from ..core.study import analyze
from ..crashmonkey.checks import DEFAULT_REGISTRY
from ..crashmonkey.crashplan import PLAN_NAMES, describe_planners, make_planner
from ..crashmonkey.harness import CrashMonkey
from ..errors import CampaignDriftError, UnknownCampaignError
from ..fs.bugs import BugConfig
from ..fs.registry import ALIASES, FILESYSTEMS
from ..options import EXECUTION, CampaignConfig, HarnessSpec
from ..service import CampaignStateDB, DurableCampaignRunner
from ..workload.language import format_workload, parse_workload

_BOUND_PRESETS = {
    "seq-1": seq1_bounds,
    "seq-2": seq2_bounds,
    "seq-3-data": seq3_data_bounds,
    "seq-3-metadata": seq3_metadata_bounds,
    "seq-3-nested": seq3_nested_bounds,
}


def _bounds_from_args(args) -> Bounds:
    if args.preset:
        return _BOUND_PRESETS[args.preset]()
    return Bounds(seq_length=args.seq_length, label=f"seq-{args.seq_length}")


def _bugs_from_args(args) -> Optional[BugConfig]:
    if getattr(args, "patched", False):
        return BugConfig.none()
    return None


def _check_list(value: Optional[str]) -> Optional[List[str]]:
    """Parse a comma-separated ``--checks``/``--skip-checks`` value."""
    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        # An empty value (e.g. an unset shell variable) must not silently
        # select zero checks and pass everything.
        raise argparse.ArgumentTypeError(
            f"no check names given; available: {', '.join(DEFAULT_REGISTRY.names())}"
        )
    unknown = [name for name in names if name not in DEFAULT_REGISTRY]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check(s) {', '.join(unknown)}; "
            f"available: {', '.join(DEFAULT_REGISTRY.names())}"
        )
    return names


def _option_overrides() -> dict:
    """What only this layer knows about the schema's flags: the registries
    their values are validated against."""
    return {
        "fs_name": {"choices": _fs_choices()},
        "crash_plan": {"choices": list(PLAN_NAMES)},
        "checks": {"type": _check_list},
        "skip_checks": {"type": _check_list},
    }


def cmd_study(args) -> int:
    print(analyze().describe())
    return 0


def cmd_list_bugs(args) -> int:
    for bug in all_bugs():
        repro = "" if bug.reproducible_by_b3 else " (outside B3 bounds)"
        print(f"{bug.bug_id:<10} {'/'.join(bug.filesystems):<12} {bug.consequence:<28} {bug.title}{repro}")
    return 0


def cmd_generate(args) -> int:
    bounds = _bounds_from_args(args)
    synthesizer = AceSynthesizer(bounds)
    count = 0
    for workload in synthesizer.generate(limit=args.max_workloads):
        count += 1
        if args.print_workloads:
            print(f"# {workload.display_name()}")
            print(format_workload(workload))
            print()
    print(f"generated {count} workloads within bounds: {bounds.describe()}", file=sys.stderr)
    return 0


def cmd_list_checks(args) -> int:
    print(DEFAULT_REGISTRY.describe())
    return 0


def cmd_list_planners(args) -> int:
    for line in describe_planners():
        print(line)
    return 0


def cmd_test(args) -> int:
    with open(args.workload, "r", encoding="utf-8") as handle:
        text = handle.read()
    workload = parse_workload(text, name=args.workload)
    harness = HarnessSpec.from_args(args, bugs=_bugs_from_args(args)).build()
    result = harness.test_workload(workload)
    print(result.summary())
    for report in result.bug_reports:
        print(report.describe())
    return 0 if result.passed else 1


def _campaign_config(args) -> CampaignConfig:
    """Build a :class:`CampaignConfig` from campaign-shaped CLI arguments."""
    return CampaignConfig.from_args(args, bugs=_bugs_from_args(args),
                                    bounds=_bounds_from_args(args))


def _print_progress(event) -> None:
    """Chunk-level progress: done/total, throughput, and an ETA when knowable.

    A durable session whose campaign's census is stored takes chunk and
    workload totals from the store; any other run sizes its workload total
    from the ACE space index.  Either way there is an ETA.
    """
    chunks = f"{event.chunks_done}"
    if event.chunks_total is not None:
        chunks += f"/{event.chunks_total}"
    workloads = f"{event.workloads_done}"
    if event.workloads_total is not None:
        workloads += f"/{event.workloads_total}"
    line = (
        f"  chunk {chunks}: {workloads} workloads, "
        f"{event.failing_workloads} failing, "
        f"{event.workloads_per_second:.1f} workloads/s"
    )
    if event.eta_seconds is not None:
        line += f", ETA {event.eta_seconds:.1f}s"
    line += f", {event.elapsed_seconds:.2f}s elapsed [{event.chunk.worker}]"
    print(line, file=sys.stderr)


def _write_json_out(result, path: Optional[str]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote JSON results to {path}", file=sys.stderr)


def cmd_campaign(args) -> int:
    if args.campaign_id and not args.state_db:
        print("error: --campaign-id names a campaign in a state store; "
              "give its --state-db PATH", file=sys.stderr)
        return 2
    config = _campaign_config(args)
    progress = _print_progress if args.progress else None

    if args.state_db:
        runner = DurableCampaignRunner(config, args.state_db, campaign_id=args.campaign_id)
        try:
            result = runner.run(progress=progress)
        finally:
            runner.close()
        print(result.describe())
        print(f"{runner.last_session.describe()} [campaign {runner.campaign_id}]",
              file=sys.stderr)
        _write_json_out(result, args.json_out)
        return 0 if not result.failing_workloads else 1

    campaign = B3Campaign(config)
    result = campaign.run(progress=progress)
    # describe() already includes the recording/dedup summary line whenever
    # prefix sharing or the verdict memo actually did something.
    print(result.describe())
    if campaign.last_run is not None:
        backend = "serial" if config.processes <= 1 else f"{config.processes}-process pool"
        print(
            f"engine: {backend}, {len(campaign.last_run.chunks)} chunks, "
            f"wall clock {campaign.last_run.wall_clock_seconds:.2f}s",
            file=sys.stderr,
        )
    _write_json_out(result, args.json_out)
    return 0 if not result.failing_workloads else 1


def cmd_status(args) -> int:
    with CampaignStateDB.existing(args.state_db) as db:
        rows = [db.status(args.campaign_id)] if args.campaign_id else db.statuses()
    for status in rows:
        print(status.describe())
    if not rows:
        print("no campaigns in the state store")
    return 0


def cmd_resume(args) -> int:
    # The execution flags default to "not given": only what this session
    # typed replaces what the campaign was created with.
    execution = {option.name: getattr(args, option.name)
                 for option in fields(CampaignConfig) if hasattr(args, option.name)}
    runner = DurableCampaignRunner.from_db(args.state_db, args.campaign_id, **execution)
    try:
        result = runner.run(progress=_print_progress if args.progress else None)
    finally:
        runner.close()
    print(result.describe())
    print(runner.last_session.describe(), file=sys.stderr)
    return 0


def cmd_results(args) -> int:
    with CampaignStateDB.existing(args.state_db) as db:
        status = db.status(args.campaign_id)
        if not status.complete:
            print(
                f"error: campaign {args.campaign_id} is {status.status} "
                f"({status.chunks_done}/{status.chunks_total} chunks done); "
                f"run `repro-b3 resume` to finish it",
                file=sys.stderr,
            )
            return 2
        result = db.campaign_result(args.campaign_id)
        config = CampaignConfig.from_dict(db.load_config(args.campaign_id))
    print(result.describe())
    mechanism_report = (B3Campaign(config).mechanism_report()
                        if config.crash_plan == "mechanism" else None)
    if mechanism_report is not None:
        print()
        print("mechanism analysis (representative workload):")
        for line in mechanism_report.summary().splitlines():
            print(f"  {line}")
    _write_json_out(result, args.json_out)
    return 0


def cmd_analyze(args) -> int:
    """Static mechanism analysis of one workload's recorded stream.

    Profiles the workload (recording its block I/O) and prints the inferred
    :class:`~repro.analysis.mechanisms.MechanismReport`, plus the pruning it
    would buy: exhaustive (torn) vs mechanism scenario counts and the
    projected fleet-cost reduction.  No crash state is constructed, mounted
    or checked.
    """
    from ..cluster.cost import CostModel
    from ..crashmonkey.replayer import CrashStateGenerator

    with open(args.workload, "r", encoding="utf-8") as handle:
        text = handle.read()
    workload = parse_workload(text, name=args.workload)
    harness = CrashMonkey(args.fs_name, bugs=_bugs_from_args(args))
    profile = harness.profile(workload)
    exhaustive = sum(1 for _ in CrashStateGenerator(
        profile, planner=make_planner("torn", args.reorder_bound, args.torn_bound),
    ).scenario_plan())
    mechanism_generator = CrashStateGenerator(
        profile, planner=make_planner("mechanism", args.reorder_bound, args.torn_bound),
    )
    pruned = sum(1 for _ in mechanism_generator.scenario_plan())
    # The plan the generator enumerated holds the workload's audited report
    # and counted every checkpoint's window by kind.
    report = mechanism_generator.plan.report
    window_kinds = mechanism_generator.plan.window_kinds
    print(report.summary())
    if window_kinds:
        described = ", ".join(
            f"{kind}: {count}" for kind, count in sorted(window_kinds.items())
        )
        print(f"checkpoint windows: {described}")
    reduction = exhaustive / pruned if pruned else 1.0
    print(f"crash scenarios: torn plan {exhaustive}, mechanism plan {pruned} "
          f"({reduction:.2f}x reduction)")
    model = CostModel()
    print(f"projected 48h fleet cost: ${model.paper_48h_cost():.2f} exhaustive, "
          f"${model.pruned_campaign_cost(48.0, reduction):.2f} with this pruning")
    if args.json_out:
        # The full MechanismReport.to_dict() payload (its "schema" key
        # versions the whole document) plus the planning counts on top.
        payload = report.to_dict()
        payload.update({
            "scenarios_exhaustive": exhaustive,
            "scenarios_mechanism": pruned,
            "scenario_reduction": reduction,
            "window_kinds": window_kinds,
        })
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote analysis to {args.json_out}", file=sys.stderr)
    return 0


def cmd_reproduce(args) -> int:
    bug = get_bug(args.bug_id)
    if not bug.reproducible_by_b3:
        print(f"{bug.bug_id} is outside B3's bounds and has no workload: {bug.notes}")
        return 2
    status = 0
    for fs_name in bug.simulator_filesystems():
        harness = CrashMonkey(fs_name, bugs=_bugs_from_args(args))
        result = harness.test_workload(bug.workload())
        found = "REPRODUCED" if not result.passed else "not reproduced"
        print(f"{bug.bug_id} on {fs_name}: {found} ({', '.join(result.consequences()) or '-'})")
        if args.verbose:
            for report in result.bug_reports:
                print(report.describe())
        if result.passed:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-b3",
        description="Bounded black-box crash testing (CrashMonkey + ACE reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("study", help="print the crash-consistency bug-study breakdown (Table 1)")

    sub.add_parser("list-bugs", help="list the known and new bugs in the database")

    generate = sub.add_parser("generate", help="generate ACE workloads")
    generate.add_argument("--preset", choices=sorted(_BOUND_PRESETS), default=None)
    generate.add_argument("--seq-length", type=int, default=1)
    CampaignConfig.add_arguments(generate, only=("max_workloads",))
    generate.add_argument("--print-workloads", action="store_true")

    sub.add_parser("list-checks", help="list the registered consistency checks")

    sub.add_parser("list-planners", help="list the registered crash planners")

    test = sub.add_parser("test", help="run one workload file through CrashMonkey")
    test.add_argument("workload", help="path to a workload-language file")
    test.add_argument("--patched", action="store_true", help="test the patched (bug-free) file system")
    HarnessSpec.add_arguments(test, **_option_overrides())

    campaign = sub.add_parser("campaign", help="generate and test a bounded workload space")
    campaign.add_argument("--preset", choices=sorted(_BOUND_PRESETS), default="seq-1")
    campaign.add_argument("--seq-length", type=int, default=1)
    campaign.add_argument("--patched", action="store_true")
    CampaignConfig.add_arguments(campaign, **_option_overrides())
    campaign.add_argument("--progress", action="store_true",
                          help="print a progress line per completed chunk")
    campaign.add_argument("--json-out", metavar="PATH", default=None,
                          help="also write the full campaign result as JSON to PATH")
    campaign.add_argument("--state-db", metavar="PATH", default=None,
                          help="run durably against this sqlite campaign state store: "
                               "completed chunks are committed as they land and an "
                               "interrupted run resumes from its last completed chunk "
                               "(see `resume`)")
    campaign.add_argument("--campaign-id", default=None,
                          help="state-store id of this campaign (default: derived "
                               "from the configuration, so identical invocations resume "
                               "each other)")

    status = sub.add_parser("status", help="show campaign progress in a state store")
    status.add_argument("--state-db", metavar="PATH", required=True)
    status.add_argument("campaign_id", nargs="?", default=None,
                        help="show one campaign (default: all)")

    resume = sub.add_parser("resume", help="recover and finish an interrupted "
                                           "durable campaign")
    resume.add_argument("--state-db", metavar="PATH", required=True)
    resume.add_argument("campaign_id")
    CampaignConfig.add_arguments(resume, tag=EXECUTION, default=argparse.SUPPRESS)
    resume.add_argument("--progress", action="store_true",
                        help="print a progress line per completed chunk")

    results = sub.add_parser("results", help="print a finished durable campaign's result")
    results.add_argument("--state-db", metavar="PATH", required=True)
    results.add_argument("campaign_id")
    results.add_argument("--json-out", metavar="PATH", default=None,
                         help="also write the full campaign result as JSON to PATH")

    analyze_cmd = sub.add_parser(
        "analyze",
        help="statically infer a workload trace's persistence mechanisms "
             "(no crash states are run)",
    )
    analyze_cmd.add_argument("workload", help="path to a workload-language file")
    analyze_cmd.add_argument("--patched", action="store_true",
                             help="record against the patched (bug-free) file system")
    HarnessSpec.add_arguments(analyze_cmd, only=("fs_name", "reorder_bound", "torn_bound"),
                              **_option_overrides())
    analyze_cmd.add_argument("--json-out", metavar="PATH", default=None,
                             help="also write the report and scenario counts as JSON")

    reproduce = sub.add_parser("reproduce", help="replay a bug from the known-bug database")
    reproduce.add_argument("bug_id", help="e.g. known-5 or new-1")
    reproduce.add_argument("--patched", action="store_true")
    reproduce.add_argument("--verbose", "-v", action="store_true")

    return parser


def _fs_choices() -> List[str]:
    """Every simulator and every real file system one stands in for."""
    return sorted({*FILESYSTEMS, *ALIASES})


_COMMANDS = {
    "study": cmd_study,
    "list-bugs": cmd_list_bugs,
    "list-checks": cmd_list_checks,
    "list-planners": cmd_list_planners,
    "generate": cmd_generate,
    "test": cmd_test,
    "campaign": cmd_campaign,
    "status": cmd_status,
    "resume": cmd_resume,
    "results": cmd_results,
    "analyze": cmd_analyze,
    "reproduce": cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CampaignDriftError, UnknownCampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
