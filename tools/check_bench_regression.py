#!/usr/bin/env python3
"""Compares a fresh benchmark result against a committed baseline.

Two input shapes are understood, matched automatically:

* RunReport JSON objects (telemetry::RenderRunReport: a dict with a
  "counters" map and a "wall_seconds" scalar). Counters are compared
  pairwise; wall time is compared as a scalar.
* Row-list JSON (bench_util.h JsonRowWriter: a list of flat dicts, e.g.
  BENCH_parallel.json). Rows are matched on every field except "seconds",
  and "seconds" is compared.

A metric REGRESSES when the current value exceeds the baseline by more
than the tolerance (default 20%, i.e. 0.2). Improvements never fail.
A counter whose baseline is 0 must stay 0, since a relative tolerance
of 0 is 0: such counters (fsg/match_steps_exhausted,
fsg/closure_fallbacks, ...) flag work that should not happen at all.
Baseline entries that CANNOT be compared are never silently skipped:
a baseline counter or row absent from the fresh run is a regression
(the workload shrank or the row key drifted), while malformed baseline
entries (a row without "seconds") and non-positive baseline times are
reported as ::notice:: annotations — visible in the job log but never
affecting the exit code, since there is nothing meaningful to compare.
Counters that describe the schedule rather than the computation are
skipped (they legitimately differ across machines and thread counts):
"threadpool/*", plus the scratch-pool hit/miss split
("scratch/reuse_hits", "scratch/fresh_allocs" — which thread's pool was
warm is scheduling; "scratch/acquires" IS deterministic and is checked).
The TID-set kernel counters ("tidset/intersect_words",
"tidset/gallop_steps") and the FSG join-prune counter
("fsg/feasible_pruned_by_join") are deterministic functions of the
workload and encoding policy — identical across thread counts — so they
get no skip entry and ARE compared.

Override knob: pass --tolerance or set TNMINE_BENCH_TOLERANCE (a float;
e.g. 0.5 for 50%). CI runs this as a non-blocking job: regressions print
GitHub ::warning:: annotations and exit 1, but the job is marked
continue-on-error so it annotates the PR without gating it.

--require-counter NAME (repeatable, RunReport shape only) asserts the
counter exists in the *fresh* run regardless of the baseline — the guard
for telemetry the code is contractually supposed to emit (e.g. the
server/conn_* connection-lifecycle counters): a build that silently
stops emitting one is a regression even if the baseline predates it.

Usage:
  tools/check_bench_regression.py --baseline bench/baselines/X.json \
      --current /tmp/X.json [--tolerance 0.2] [--require-counter NAME]

Exit codes: 0 clean, 1 regression found, 2 usage/input error.
"""

import argparse
import json
import os
import sys


def github_annotate(level, message):
    """Prints a GitHub Actions annotation (plain text elsewhere)."""
    if os.environ.get("GITHUB_ACTIONS") == "true":
        print(f"::{level}::{message}")
    else:
        print(f"{level}: {message}")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        github_annotate("error", f"cannot read {path}: {err}")
        sys.exit(2)


def exceeds(current, baseline, tolerance):
    """True when `current` regressed past `baseline` by > tolerance."""
    if baseline <= 0:
        return False  # nothing meaningful to compare against
    return current > baseline * (1.0 + tolerance)


# Schedule-dependent counters (see DESIGN.md §9): legitimate to differ
# between machines/thread counts, so never compared.
SCHEDULE_COUNTER_PREFIXES = (
    "threadpool/",
    "scratch/reuse_hits",
    "scratch/fresh_allocs",
)


def compare_runreports(baseline, current, tolerance):
    regressions = []
    notices = []
    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for name, base_value in sorted(base_counters.items()):
        if name.startswith(SCHEDULE_COUNTER_PREFIXES):
            continue
        cur_value = cur_counters.get(name)
        if cur_value is None:
            regressions.append(f"counter {name} vanished "
                               f"(baseline {base_value})")
            continue
        if base_value <= 0:
            if cur_value > base_value:
                regressions.append(f"counter {name}: {base_value} -> "
                                   f"{cur_value} (a zero baseline must "
                                   "stay zero)")
            continue
        if exceeds(cur_value, base_value, tolerance):
            regressions.append(
                f"counter {name}: {base_value} -> {cur_value} "
                f"(+{100.0 * (cur_value / base_value - 1):.1f}%)")
    base_wall = baseline.get("wall_seconds", 0.0)
    cur_wall = current.get("wall_seconds", 0.0)
    if base_wall <= 0:
        notices.append(f"wall_seconds has non-positive baseline "
                       f"{base_wall}; not compared")
    elif exceeds(cur_wall, base_wall, tolerance):
        regressions.append(
            f"wall_seconds: {base_wall:.3f} -> {cur_wall:.3f} "
            f"(+{100.0 * (cur_wall / base_wall - 1):.1f}%)")
    return regressions, notices


def row_key(row):
    return tuple(sorted((k, v) for k, v in row.items() if k != "seconds"))


def compare_row_lists(baseline, current, tolerance):
    regressions = []
    notices = []
    current_by_key = {row_key(row): row for row in current}
    for row in baseline:
        if "seconds" not in row:
            notices.append(f"baseline row {dict(row_key(row))} has no "
                           "\"seconds\" field; not compared")
            continue
        match = current_by_key.get(row_key(row))
        if match is None:
            regressions.append(f"row {dict(row_key(row))} vanished")
            continue
        if "seconds" not in match:
            regressions.append(f"row {dict(row_key(row))} present in the "
                               "fresh run but lost its \"seconds\" field")
            continue
        if row["seconds"] <= 0:
            notices.append(f"row {dict(row_key(row))} has non-positive "
                           f"baseline seconds {row['seconds']}; "
                           "not compared")
            continue
        if exceeds(match["seconds"], row["seconds"], tolerance):
            regressions.append(
                f"row {dict(row_key(row))}: {row['seconds']:.3f}s -> "
                f"{match['seconds']:.3f}s "
                f"(+{100.0 * (match['seconds'] / row['seconds'] - 1):.1f}%)")
    return regressions, notices


def main():
    parser = argparse.ArgumentParser(
        description="Fail on >tolerance wall-time or counter regressions.")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--current", required=True,
                        help="freshly produced JSON of the same shape")
    parser.add_argument(
        "--require-counter", action="append", default=[],
        metavar="NAME",
        help="counter that must exist in the fresh RunReport (repeatable); "
             "a missing one is a regression even when absent from the "
             "baseline")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("TNMINE_BENCH_TOLERANCE", "0.2")),
        help="allowed relative growth before failing (default 0.2 = 20%%; "
             "env TNMINE_BENCH_TOLERANCE overrides)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if isinstance(baseline, dict) != isinstance(current, dict):
        github_annotate("error",
                        f"{args.baseline} and {args.current} have "
                        "different shapes")
        return 2
    if isinstance(baseline, dict):
        regressions, notices = compare_runreports(baseline, current,
                                                  args.tolerance)
        for name in args.require_counter:
            if name not in current.get("counters", {}):
                regressions.append(
                    f"required counter {name} missing from the fresh run")
    else:
        if args.require_counter:
            github_annotate("error", "--require-counter only applies to "
                            "RunReport-shaped inputs")
            return 2
        regressions, notices = compare_row_lists(baseline, current,
                                                 args.tolerance)

    for n in notices:
        github_annotate(
            "notice",
            f"bench baseline {os.path.basename(args.baseline)}: {n}")
    if regressions:
        for r in regressions:
            github_annotate(
                "warning",
                f"bench regression vs {os.path.basename(args.baseline)}: "
                f"{r}")
        print(f"{len(regressions)} regression(s) beyond "
              f"{100 * args.tolerance:.0f}% tolerance")
        return 1
    print(f"no regressions vs {args.baseline} "
          f"(tolerance {100 * args.tolerance:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
