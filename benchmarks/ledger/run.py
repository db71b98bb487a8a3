"""The perf ledger's driver.

    python3 benchmarks/ledger/run.py --seed 0 --out ledger.json

runs the six named campaigns one at a time, each repetition in a fresh child
process (clean peak RSS, cold caches, no cross-run state), checks that every
repetition's findings are correct, prints every metric by name with its unit
and ends with one JSON object on the last line of stdout.  The system under
test is a batch job, so the load is a closed loop of one campaign at a time.

End-to-end numbers come from untraced repetitions only; one further traced
repetition per campaign gives the per-layer table.

With ``--workload NAME --seed N --seconds S --trace 0|1`` the last line is
``{"correct", "attempted", "failed", "metrics"}`` for that one campaign:
end-to-end medians with ``--trace 0``, per-layer metrics with ``--trace 1``.
Repetitions are launched until ``S`` seconds of timed region are measured
(``--reps`` fixes their number instead).

This file never imports the program: everything that does runs in
``child.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(HERE, "_work")

#: one child may not outlive this (the driver allows a run 180 s in all)
CHILD_TIMEOUT_S = 150
DEFAULT_REPS = 3

#: reported by the ledger beside the declared end-to-end metrics; the driver
#: contract carries it as ``attempted``/``failed`` because it is 0 when all
#: is well.  Any increase is a regression.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_declarations() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_expected_digests(seed: int) -> Dict[str, str]:
    """Committed findings digests per campaign for ``seed`` (at scale 1).

    The two config-driven campaigns ignore the seed, so their digests hold
    for any; the pre-built ones are committed for seeds 0 and 1.
    """
    with open(os.path.join(HERE, "expected_digests.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    return {**committed["any"], **committed.get(str(seed), {})}


# --------------------------------------------------------------------------- children


def launch(unit: str, arguments: Sequence[str], workdir: str) -> Optional[Dict[str, Any]]:
    """Run one child unit to completion; its last stdout line, parsed.

    Returns ``None`` when the child failed, hung or printed no result; its
    stderr is passed through either way.  The child gets its own process
    group so a hung pool is killed with it.
    """
    env = dict(os.environ, TMPDIR=workdir)
    command = [sys.executable, CHILD, unit, *arguments,
               "--workdir", workdir, "--launched-at", repr(time.time())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, env=env, cwd=REPO_ROOT, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
        stderr += f"\n{unit} child killed after {CHILD_TIMEOUT_S} s"
    if stderr.strip():
        print(stderr.rstrip(), file=sys.stderr)
    if process.returncode != 0:
        print(f"{unit} child exited with {process.returncode}", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{unit} child printed no result", file=sys.stderr)
        return None


def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "git_commit": commit,
        "loadavg_1m_start": load,
        # Flagged, not fatal: the numbers of a run started on a busy box are
        # suspect, and whoever reads them should know.
        "started_overloaded": load > nproc,
    }


# --------------------------------------------------------------------------- measuring


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values), "values": list(values)}


def measure_workload(name: str, args: argparse.Namespace, reps: Optional[int],
                     workdir: str, expected_digest: Optional[str]) -> Dict[str, Any]:
    """Run one campaign's repetitions and fold them into its ledger entry.

    The traced repetition, when asked for, runs first; untraced ones follow
    until ``reps`` of them are in or, without ``reps``, until ``--seconds`` of
    timed region have been measured over all repetitions.
    """
    seed, scale = args.seed, args.scale
    inputs_path = os.path.join(workdir, f"{name}.inputs")
    runs: List[Dict[str, Any]] = []
    measured = 0.0
    broken = False
    while True:
        trace_this = bool(args.trace) and not runs
        arguments = ["--workload", name, "--seed", str(seed), "--scale", repr(scale),
                     "--inputs", inputs_path, "--trace", "1" if trace_this else "0"]
        if trace_this:
            os.makedirs(args.trace_dir, exist_ok=True)
            arguments += ["--trace-out",
                          os.path.join(args.trace_dir, f"{name}.seed{seed}.trace.jsonl")]
        if args.doctor_rep == len(runs):
            arguments.append("--doctor")
        report = launch("campaign", arguments, workdir)
        if report is None:
            broken = True
            break
        report["traced"] = trace_this
        runs.append(report)
        measured += report["end_to_end"]["wall_s"]
        untraced = sum(1 for run in runs if not run["traced"])
        if reps is not None:
            if untraced >= reps:
                break
        elif untraced >= 1 and measured >= (args.seconds or 0.0):
            break

    # Without a committed digest the repetitions vouch for each other; a
    # disagreement cannot say which of them is wrong, so it fails them all.
    digests = {run["digest"] for run in runs}
    reference = expected_digest if expected_digest is not None else (
        runs[0]["digest"] if len(digests) == 1 else None)
    attempted = failed = 0
    for run in runs:
        run["digest_ok"] = run["digest"] == reference
        submitted = run["workloads_submitted"]
        run["failed"] = run["failed_workloads"] if run["digest_ok"] else submitted
        run["end_to_end"]["failed_share"] = run["failed"] / submitted
        attempted += submitted
        failed += run["failed"]
    if broken:
        # The repetition that died tested nothing: all its workloads failed
        # (its size is only known from a sibling that survived).
        lost = runs[0]["workloads_submitted"] if runs else 1
        attempted += lost
        failed += lost

    entry: Dict[str, Any] = {
        "seed": seed,
        "scale": scale,
        "digest": reference,
        "digest_expected": expected_digest,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "runs": runs,
    }
    untraced_runs = [run for run in runs if not run["traced"]]
    if untraced_runs:
        entry["workloads"] = untraced_runs[0]["workloads_submitted"]
        entry["end_to_end"] = {
            metric: summarise([run["end_to_end"][metric] for run in untraced_runs])
            for metric in untraced_runs[0]["end_to_end"]
        }
    traced_runs = [run for run in runs if run["traced"]]
    if traced_runs and untraced_runs:
        trace_run = traced_runs[0]
        base = entry["end_to_end"]["wall_s"]["median"]
        # The traced repetition's per-layer results move up to the entry.
        for key in ("per_layer", "layer_table", "traced_wall_s", "samples"):
            entry[key] = trace_run.pop(key)
        entry["per_layer"]["trace.overhead_share"] = (
            trace_run["end_to_end"]["wall_s"] - base) / base
    return entry


# --------------------------------------------------------------------------- printing


def print_entry(name: str, entry: Dict[str, Any], declarations: Dict[str, Any]) -> None:
    untraced = sum(1 for run in entry["runs"] if not run["traced"])
    traced = len(entry["runs"]) - untraced
    if entry["digest_expected"] is None:
        digest_note = "no committed digest"
    elif all(run["digest_ok"] for run in entry["runs"]):
        digest_note = "matches committed"
    else:
        digest_note = "a repetition MISMATCHES the committed one"
    print(f"\n== {name}: seed {entry['seed']}, {entry.get('workloads', '?')} workloads, "
          f"{untraced} untraced + {traced} traced repetition(s), "
          f"digest {(entry['digest'] or 'DISAGREES')[:16]} ({digest_note}), "
          f"{'correct' if entry['correct'] else 'INCORRECT'} ==")
    end_to_end = entry.get("end_to_end")
    if end_to_end:
        print(f"  {'end-to-end metric':<22}{'median':>12} {'unit':<6}{'min':>12}{'max':>12}"
              f"{'n':>4}  bound")
        for declared in declarations["end_to_end"] + [FAILED_SHARE]:
            stats = end_to_end[declared["name"]]
            print(f"  {declared['name']:<22}{stats['median']:>12.4f} {declared['unit']:<6}"
                  f"{stats['min']:>12.4f}{stats['max']:>12.4f}{stats['n']:>4}"
                  f"  {declared['bound']:.0%} ({declared['better']} is better)")
    if "layer_table" in entry:
        wall = entry["traced_wall_s"]
        print(f"  per-layer table of the traced repetition (wall {wall:.4f} s):")
        total = 0.0
        for row in entry["layer_table"]:
            counted = row["source"] == "span"
            total += row["seconds"] if counted else 0.0
            note = "" if counted else "  (returned by the workers; not in the sum)"
            print(f"    {row['row']:<28}{row['seconds']:>10.4f} s {row['share']:>7.1%}{note}")
        print(f"    {'sum of span rows':<28}{total:>10.4f} s {total / wall:>7.1%}")
        units = {declared["name"]: declared["unit"] for declared in declarations["per_layer"]}
        samples = entry["samples"]
        print(f"  per-layer metrics (percentiles over {samples['workload_ms']} workloads, "
              f"{samples['mount_us']} mounts; {samples['spans']} spans):")
        for metric, unit in units.items():
            print(f"    {metric:<36}{entry['per_layer'][metric]:>16.6g} {unit}")


# --------------------------------------------------------------------------- entry


def contract_line(entry: Dict[str, Any], declarations: Dict[str, Any], traced: bool,
                  gate_ok: bool) -> Dict[str, Any]:
    """The single-campaign result object of the driver contract."""
    if traced:
        metrics = {
            declared["name"]: {"value": entry["per_layer"][declared["name"]],
                               "unit": declared["unit"]}
            for declared in declarations["per_layer"]
        }
    else:
        metrics = {
            declared["name"]: {"value": entry["end_to_end"][declared["name"]]["median"],
                               "unit": declared["unit"]}
            for declared in declarations["end_to_end"]
        }
    return {"correct": bool(entry["correct"] and gate_ok),
            "attempted": entry["attempted"], "failed": entry["failed"], "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    declarations = load_declarations()
    names = [workload["name"] for workload in declarations["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run this one campaign (default: all six)")
    parser.add_argument("--seed", type=int, default=0, help="selects the inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="launch repetitions until this much timed region is measured")
    parser.add_argument("--reps", type=int, default=None,
                        help=f"untraced repetitions per campaign (default {DEFAULT_REPS} "
                             "unless --seconds is given)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="also run one traced repetition for the per-layer table")
    parser.add_argument("--out", help="write the whole ledger document to this file")
    parser.add_argument("--trace-dir", default=os.path.join(WORK_ROOT, "traces"),
                        help="where traced repetitions write <campaign>.seed<N>.trace.jsonl")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every campaign (smoke runs; digests are not checked)")
    parser.add_argument("--doctor-rep", type=int, default=None,
                        help="self-test: drop a failing workload from this repetition")
    args = parser.parse_args(argv)
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = DEFAULT_REPS
    selected = [args.workload] if args.workload else names

    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        env = environment()
        if env["started_overloaded"]:
            print(f"warning: 1-minute load {env['loadavg_1m_start']:.2f} exceeds "
                  f"{env['nproc']} cpus; timings of this run are suspect", file=sys.stderr)
        gate = launch("gate", [], workdir)
        if gate is None:
            print("known-answer gate could not run", file=sys.stderr)
            return 2
        print(f"known-answer gate: {'ok' if gate['ok'] else 'FAILED'} — "
              f"{gate['reproduced']} known bugs reproduced, {gate['out_of_bounds']} out of "
              f"bounds, {len(gate['flagged_patched'])} flagged on patched file systems")
        expected = load_expected_digests(args.seed) if args.scale == 1.0 else {}
        entries = {
            name: measure_workload(name, args, reps, workdir, expected.get(name))
            for name in selected
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, entry in entries.items():
        print_entry(name, entry, declarations)
    correct = gate["ok"] and all(entry["correct"] for entry in entries.values())
    document = {"schema": 1, "seed": args.seed, "scale": args.scale, "environment": env,
                "gate": gate, "correct": correct, "workloads": entries}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print()
    if args.workload:
        entry = entries[args.workload]
        if "end_to_end" not in entry or (args.trace and "per_layer" not in entry):
            print(f"{args.workload} produced no complete repetition", file=sys.stderr)
            return 2
        print(json.dumps(contract_line(entry, declarations, bool(args.trace), gate["ok"])))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(entry["attempted"] for entry in entries.values()),
            "failed": sum(entry["failed"] for entry in entries.values()),
            "workloads": {
                name: {metric: stats["median"]
                       for metric, stats in entry.get("end_to_end", {}).items()}
                for name, entry in entries.items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
