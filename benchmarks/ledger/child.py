"""One unit of ledger work in a fresh process.

The driver (``run.py``) never imports the program; it launches this file
once per unit and reads one JSON object from the last line of its stdout:

* ``gate``     — the known-answer gate over the hand-written bug database;
* ``campaign`` — set up one named campaign, run it inside the timed region
  and report its end-to-end values, findings digest and, when traced, the
  per-layer metrics and the sum-to-wall table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pickle
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
# The driver's command names no path outside the ledger directory, so the
# program's sources are put on the path from here.
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: check names whose returned seconds become ``checks.<name>_s``
CHECK_NAMES = ("mount", "read", "directory", "atomicity", "write", "hardlink", "xattr")


def load_trace():
    """The sibling ``trace.py``, under a name the stdlib's ``trace`` cannot shadow."""
    module = sys.modules.get("ledger_trace")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "ledger_trace", os.path.join(HERE, "trace.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules["ledger_trace"] = module
        spec.loader.exec_module(module)
    return module


def findings_digest(result) -> str:
    """sha256 over failing workload names and Figure-5 report-group keys.

    Invariant under any sound pruning, dedup or sharing change: it pins what
    was found (which workloads fail, which (skeleton, consequence) groups
    exist), not how many scenarios it took to find it.
    """
    failing = sorted(r.workload.display_name() for r in result.results if not r.passed)
    groups = sorted(
        (list(group.skeleton), group.consequence) for group in result.grouped_reports()
    )
    payload = json.dumps({"failing": failing, "groups": groups}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def failed_workloads(result, submitted: int) -> int:
    """Workloads that did not get a trustworthy verdict."""
    from repro.crashmonkey.report import HARNESS_ERROR

    harness_errors = sum(
        1 for r in result.results
        if any(m.consequence == HARNESS_ERROR for report in r.bug_reports
               for m in report.mismatches)
    )
    missing = max(submitted - len(result.results) - result.invalid_workloads, 0)
    return missing + result.invalid_workloads + harness_errors


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(int(share * len(ordered)), len(ordered) - 1)]


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --------------------------------------------------------------------------- gate


def run_gate() -> Dict[str, Any]:
    """Every B3-reproducible known bug is flagged on its buggy file system,
    none on the patched one."""
    from repro.core.known_bugs import known_bugs
    from repro.crashmonkey.harness import CrashMonkey
    from repro.fs.bugs import BugConfig

    # One harness per (file system, bug set): a harness is safe to reuse
    # across workloads, and building one formats a pristine image.
    harnesses: Dict[Any, Any] = {}

    def flags(fs_name: str, bugs, bug) -> bool:
        if (fs_name, bugs is None) not in harnesses:
            harnesses[fs_name, bugs is None] = CrashMonkey(fs_name, bugs=bugs)
        return not harnesses[fs_name, bugs is None].test_workload(bug.workload()).passed

    reproduced: List[str] = []
    missed: List[str] = []
    flagged_patched: List[str] = []
    out_of_bounds = 0
    for bug in known_bugs():
        if not bug.reproducible_by_b3:
            out_of_bounds += 1
            continue
        filesystems = bug.simulator_filesystems()
        detected = any([flags(fs_name, None, bug) for fs_name in filesystems])
        (reproduced if detected else missed).append(bug.bug_id)
        if any([flags(fs_name, BugConfig.none(), bug) for fs_name in filesystems]):
            flagged_patched.append(bug.bug_id)
    return {
        "ok": len(reproduced) >= 22 and out_of_bounds == 2 and not flagged_patched,
        "reproduced": len(reproduced),
        "missed": missed,
        "out_of_bounds": out_of_bounds,
        "flagged_patched": flagged_patched,
    }


# --------------------------------------------------------------------------- campaign


def run_campaign(spec, args) -> Dict[str, Any]:
    from repro.core.campaign import B3Campaign
    from repro.service.runner import DurableCampaignRunner

    ledger_trace = load_trace()
    workloads = None
    enumerated = 0
    # Pre-built inputs are a pure function of (campaign, seed): the first
    # repetition of a run materialises them and later ones read its file.
    # A reader's set-up is charged the builder's measured build time in place
    # of its own load time, so every repetition reports the same quantity.
    setup_adjust = 0.0
    cache_payload = None
    if spec.sampler != "config":
        begin = time.perf_counter()
        if os.path.exists(args.inputs):
            with open(args.inputs, "rb") as handle:
                cached = pickle.load(handle)
            workloads, enumerated = cached["workloads"], cached["enumerated"]
            setup_adjust = cached["build_s"] - (time.perf_counter() - begin)
        else:
            workloads, enumerated = spec.build_inputs(args.seed)
            cache_payload = {"workloads": workloads, "enumerated": enumerated,
                             "build_s": time.perf_counter() - begin}
    config = spec.config(spine_spill_dir=os.path.join(args.workdir, "spill"))
    runner = campaign = None
    db_path = os.path.join(args.workdir, f"state-{os.getpid()}.sqlite")
    if spec.durable:
        runner = DurableCampaignRunner(config, db_path, campaign_id=spec.name)
    else:
        campaign = B3Campaign(config)
        campaign.harness  # built in set-up, as a long-lived service would have it

    tracer = uninstall = None
    if args.trace:
        tracer = ledger_trace.Tracer()
        uninstall = ledger_trace.install(tracer)

    cpu_before = _cpu_seconds()
    setup_s = time.time() - args.launched_at + setup_adjust
    start = time.perf_counter()
    root = tracer.begin(ledger_trace.ROOT) if tracer else -1
    result = runner.run() if runner is not None else campaign.run(workloads=workloads)
    groups = result.grouped_reports()
    if tracer:
        tracer.end(root)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_before
    peak_rss_mb = _peak_rss_mib()
    if uninstall:
        uninstall()

    if args.doctor:
        # Self-test hook: lose one failing workload, as a buggy dedup would.
        victim = next(i for i, r in enumerate(result.results) if not r.passed)
        del result.results[victim]

    submitted = spec.workloads
    report: Dict[str, Any] = {
        "workloads_submitted": submitted,
        "failed_workloads": failed_workloads(result, submitted),
        "digest": findings_digest(result),
        "end_to_end": {
            "wall_s": wall_s,
            "workloads_per_s": result.workloads_tested / wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        },
    }
    if tracer:
        db_bytes = 0
        if runner is not None:
            db_bytes = sum(os.path.getsize(db_path + suffix)
                           for suffix in ("", "-wal") if os.path.exists(db_path + suffix))
        analysis_s = _standalone_analysis(spec, workloads)
        report.update(_per_layer(spec, result, groups, tracer, wall_s, enumerated,
                                 analysis_s, db_bytes))
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    if runner is not None:
        runner.close()
    if cache_payload is not None:
        with open(args.inputs, "wb") as handle:
            pickle.dump(cache_payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return report


def _standalone_analysis(spec, workloads) -> float:
    """Seconds of ``analyze_io_log`` + ``audit_report`` over every recorded stream.

    Inside a campaign the analysis runs within the replay build, so its cost
    is not separable from returned timings; this separate pass re-profiles
    each input and times the two analysis calls alone.  It is reported next
    to the table, not in it.
    """
    if spec.crash_plan != "mechanism" or workloads is None:
        return 0.0
    from repro.analysis.audit import audit_report
    from repro.analysis.mechanisms import analyze_io_log
    from repro.crashmonkey.harness import CrashMonkey

    harness = CrashMonkey(spec.fs_name)
    total = 0.0
    for workload in workloads:
        io_log = harness.profile(workload).io_log
        start = time.perf_counter()
        audit_report(analyze_io_log(io_log, fs_name=harness.fs_name), io_log)
        total += time.perf_counter() - start
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(spec, result, groups, tracer, wall_s: float, enumerated: int,
               analysis_s: float, db_bytes: int) -> Dict[str, Any]:
    """Per-layer metrics and the sum-to-wall table of one traced run."""
    from repro.fs.bugs import Consequence

    ledger_trace = load_trace()

    results = result.results
    tested = len(results)
    pooled = spec.processes > 1
    rows = ledger_trace.layer_seconds(tracer.spans, tracer.returned)
    traced_wall = ledger_trace.root_seconds(tracer.spans)
    profile_s, replay_s, mount_s, fsck_s, check_s = result.phase_seconds()
    check_seconds = result.check_timings()
    # Worker-side seconds of a pool run never cross the process boundary as
    # spans; they come from the values the chunks returned.
    returned_rows = {
        "recorder.profile_s": profile_s, "replayer.replay_s": replay_s,
        "fs.mount_s": mount_s, "fs.fsck_s": fsck_s, "checks.total_s": check_s,
    } if pooled else {}

    scenarios = sum(r.scenarios_tested for r in results)
    checkpoints = result.crash_points_tested
    reports = result.all_reports()
    mechanism = sum(r.mechanism_checkpoints for r in results)
    fallback = sum(r.mechanism_fallback_checkpoints for r in results)
    demoted = sum(r.mechanism_demoted_checkpoints for r in results)
    enumerated += sum(s.stats.final for s in tracer.synthesizers)
    yielded = tested + result.invalid_workloads

    if pooled:
        unmountable = sum(
            1 for report in reports
            if any(m.consequence == Consequence.UNMOUNTABLE for m in report.mismatches)
        )
        fsck_runs = unmountable  # fsck runs exactly when a mount fails
        mount_us: List[float] = []  # per-state timings stay in the workers
        workload_ms = [r.total_seconds * 1e3 for r in results]
    else:
        unmountable, fsck_runs = tracer.unmountable_states, tracer.fsck_runs
        mount_us = [timings["mount"] * 1e6 for index, timings in tracer.returned.items()
                    if tracer.spans[index][0] == ledger_trace.STEP and timings["mount"] > 0]
        workload_ms = [d * 1e3 for d in ledger_trace.durations(tracer.spans,
                                                               ledger_trace.WORKLOAD)]

    chunks = [stats for run in tracer.engine_runs for stats in run.chunks]
    chunk_seconds = [stats.seconds for stats in chunks]
    ingest_ms = [d * 1e3 for d in ledger_trace.durations(tracer.spans, "statedb.ingest")]
    spills = result.spine_spills

    def layer(name: str) -> float:
        return returned_rows.get(name, rows[name])

    metrics: Dict[str, float] = {
        "ace.generate_s": rows["ace.generate_s"],
        "ace.adapt_s": rows["ace.adapt_s"],
        "ace.workloads_enumerated": enumerated,
        "ace.workloads_yielded": yielded,
        "ace.yield_ratio": _ratio(yielded, enumerated),
        "ace.invalid_workloads": result.invalid_workloads,
        "recorder.profile_s": layer("recorder.profile_s"),
        "recorder.profiles": tested,
        "recorder.prefix_hits": result.prefix_hits,
        "recorder.prefix_hit_ratio": _ratio(result.prefix_hits, tested),
        "recorder.ops_executed": sum(r.executed_ops for r in results),
        "recorder.ops_reused": result.prefix_ops_reused,
        "recorder.recorded_requests": sum(r.recorded_requests for r in results),
        "recorder.recorded_bytes": sum(r.recorded_bytes for r in results),
        "replayer.replay_s": layer("replayer.replay_s"),
        "replayer.states_built": scenarios,
        "replayer.replayed_writes": result.replayed_write_requests,
        "replayer.writes_reused": result.replay_writes_reused,
        "replayer.trail_hit_ratio": _ratio(result.replay_hits, tested),
        "replayer.overlay_bytes_max": max(
            (r.crash_state_overlay_bytes for r in results), default=0),
        "crashplan.self_s": rows["crashplan.self_s"],
        "crashplan.scenarios": scenarios,
        "crashplan.scenarios_per_checkpoint": _ratio(scenarios, checkpoints),
        "crashplan.scenarios_per_s": _ratio(scenarios, wall_s),
        "crashplan.deduped_scenarios": result.deduped_scenarios,
        "crashplan.cross_deduped_scenarios": result.cross_deduped_scenarios,
        "analysis.standalone_s": analysis_s,
        "analysis.mechanism_checkpoints": mechanism,
        "analysis.fallback_checkpoints": fallback,
        "analysis.demoted_checkpoints": demoted,
        "analysis.demoted_share": _ratio(demoted, mechanism + fallback),
        "analysis.audit_demotions": sum(r.audit_demotions for r in results),
        "fs.mount_s": layer("fs.mount_s"),
        "fs.fsck_s": layer("fs.fsck_s"),
        "fs.mounts": scenarios,
        "fs.unmountable": unmountable,
        "fs.fsck_runs": fsck_runs,
        "fs.mount_us_p50": percentile(mount_us, 0.50),
        "fs.mount_us_p90": percentile(mount_us, 0.90),
        "checks.total_s": layer("checks.total_s"),
        "checks.runs": scenarios,
        "checks.mismatches": sum(len(report.mismatches) for report in reports),
        "spill.put_s": rows["spill.put_s"],
        "spill.get_s": rows["spill.get_s"],
        "spill.spills": spills,
        "spill.spilled_bytes": result.spine_spilled_bytes,
        "spill.rehydrations": result.spine_rehydrations,
        "spill.rehydrate_ratio": _ratio(result.spine_rehydrations, spills),
        "spill.peak_resident_bytes": result.spine_peak_resident_bytes,
        "engine.chunks": len(chunks),
        "engine.chunk_s_p50": statistics.median(chunk_seconds) if chunk_seconds else 0.0,
        "engine.chunk_s_max": max(chunk_seconds, default=0.0),
        "engine.dispatch_wait_s": rows["engine.dispatch_wait_s"],
        "engine.aggregate_s": rows["engine.aggregate_s"],
        "engine.worker_busy_share": _ratio(sum(chunk_seconds), wall_s * spec.processes),
        "statedb.register_s": rows["statedb.register_s"],
        "statedb.claim_s": rows["statedb.claim_s"],
        "statedb.ingest_s": rows["statedb.ingest_s"],
        "statedb.ingests": len(ingest_ms),
        "statedb.ingest_ms_p50": statistics.median(ingest_ms) if ingest_ms else 0.0,
        "statedb.ingest_ms_max": max(ingest_ms, default=0.0),
        "statedb.db_bytes": db_bytes,
        "core.group_reports_s": rows["core.group_reports_s"],
        "core.raw_reports": len(reports),
        "core.report_groups": len(groups),
        "core.failing_workloads": result.failing_workloads,
        "harness.workload_ms_p50": percentile(workload_ms, 0.50),
        "harness.workload_ms_p90": percentile(workload_ms, 0.90),
        "harness.unattributed_s": rows[ledger_trace.UNATTRIBUTED],
        "harness.unattributed_share": _ratio(rows[ledger_trace.UNATTRIBUTED], traced_wall),
    }
    for name in CHECK_NAMES:
        metrics[f"checks.{name}_s"] = check_seconds.get(name, 0.0)

    table = [
        {"row": name, "seconds": seconds, "share": _ratio(seconds, traced_wall),
         "source": "span"}
        for name, seconds in rows.items()
    ]
    table += [
        {"row": name, "seconds": seconds, "share": _ratio(seconds, traced_wall),
         "source": "returned"}
        for name, seconds in returned_rows.items()
    ]
    return {
        "per_layer": metrics,
        "layer_table": table,
        "traced_wall_s": traced_wall,
        "samples": {"workload_ms": len(workload_ms), "mount_us": len(mount_us),
                    "spans": len(tracer.spans)},
    }


# --------------------------------------------------------------------------- entry


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("unit", choices=("gate", "campaign"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--doctor", action="store_true")
    parser.add_argument("--inputs")
    parser.add_argument("--workdir")
    parser.add_argument("--launched-at", type=float, default=time.time())
    args = parser.parse_args(argv)

    if args.unit == "gate":
        report = run_gate()
    else:
        import inputs as ledger_inputs

        spec = ledger_inputs.BY_NAME[args.workload].scaled(args.scale)
        report = run_campaign(spec, args)
    report["unit_s"] = time.time() - args.launched_at
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
