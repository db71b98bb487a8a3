"""Compare ledger documents: one row per campaign x end-to-end metric.

    python3 benchmarks/ledger/compare.py BASE.json CHANGE.json [CHANGE2.json ...]

Each document is what ``run.py --out`` wrote.  The first is the base; every
further one is compared against it in its own table.  A row gives each side's
median and quartiles over its untraced repetitions, the ratio with its base,
and a verdict:

* ``regressed``    — the change's median is worse than the base's by more
  than the metric's bound;
* ``improved``     — both sides have at least ten repetitions, every one of
  the change reads better than every one of the base, and the medians differ
  by more than the base's own interquartile spread;
* ``unresolved``   — the run-to-run spread is wider than the bound and the
  two sides interleave, so the row says nothing either way;
* ``within-bound`` — otherwise.

Exits non-zero when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import FAILED_SHARE, load_declarations

#: a gain is not claimed on fewer repetitions per side than this
MIN_REPS_FOR_A_GAIN = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """Judge one metric of one campaign; see the module docstring for the rules."""
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the change is worse, as a share of the base's median.
    scale = abs(base_median) or 1.0
    worse_by = sign * (change_median - base_median) / scale
    spread = max(base_q3 - base_q1, change_q3 - change_q1) / scale
    if better == "lower":
        all_better = max(change) < min(base)
        all_worse = min(change) > max(base)
    else:
        all_better = min(change) > max(base)
        all_worse = max(change) < min(base)
    if spread > bound and not (all_better or all_worse):
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    elif (all_better and min(len(base), len(change)) >= MIN_REPS_FOR_A_GAIN
          and abs(change_median - base_median) > base_q3 - base_q1):
        outcome = "improved"
    else:
        outcome = "within-bound"
    return {
        "verdict": outcome,
        "base": {"q1": base_q1, "median": base_median, "q3": base_q3, "n": len(base)},
        "change": {"q1": change_q1, "median": change_median, "q3": change_q3,
                   "n": len(change)},
        "ratio": change_median / base_median if base_median else None,
        "worse_by": worse_by,
        "spread": spread,
    }


def compare(base: Dict[str, Any], change: Dict[str, Any],
            metrics: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows for every campaign both documents measured."""
    rows: List[Dict[str, Any]] = []
    for name, base_entry in base["workloads"].items():
        change_entry = change["workloads"].get(name)
        if change_entry is None or "end_to_end" not in base_entry \
                or "end_to_end" not in change_entry:
            continue
        for metric in metrics:
            row = verdict(base_entry["end_to_end"][metric["name"]]["values"],
                          change_entry["end_to_end"][metric["name"]]["values"],
                          metric["better"], metric["bound"])
            row.update(workload=name, metric=metric["name"], unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
        if base_entry.get("digest") != change_entry.get("digest"):
            rows.append({"workload": name, "metric": "findings digest", "verdict": "regressed",
                         "note": f"{base_entry.get('digest')} != {change_entry.get('digest')}"})
    return rows


def print_rows(rows: Sequence[Dict[str, Any]]) -> None:
    print(f"{'campaign':<24}{'metric':<17}{'base median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'change/base':>13}  verdict")
    for row in rows:
        if "base" not in row:
            print(f"{row['workload']:<24}{row['metric']:<17}{row['note']:>81}  {row['verdict']}")
            continue

        def side(stats: Dict[str, float]) -> str:
            return (f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] "
                    f"n={stats['n']}")

        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:<24}{row['metric']:<17}{side(row['base']):>34}"
              f"{side(row['change']):>34}{ratio:>13}  {row['verdict']} "
              f"(bound {row['bound']:.0%}, {row['unit']})")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("changes", nargs="+", metavar="change")
    args = parser.parse_args(argv)
    metrics = load_declarations()["end_to_end"] + [FAILED_SHARE]
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    bad = 0
    for path in args.changes:
        with open(path, encoding="utf-8") as handle:
            change = json.load(handle)
        print(f"\n{path} against {args.base} (base)")
        rows = compare(base, change, metrics)
        print_rows(rows)
        bad += sum(1 for row in rows if row["verdict"] in ("regressed", "unresolved"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
