#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 perfbench/stability.py [--runs 10] [--sets 1] [--workloads a,b]

Every workload's first run uses its default seed, at which the pinned
result counts are checked; the others use seeds 101, 102, ..., so each
check also covers seeds no change was written against. A metric's spread
is the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median, printed
against the metric's bound in BENCHMARK.json: "steady" below a third of
the bound, "ok" within it, "WIDE" beyond it. With --sets 2 or more the
same runs are made again, set after set, and each later set's median is
compared with the first set's: its drift in the metric's worse direction
must stay within the bound.

Exits non-zero when a run fails, a spread exceeds its bound, or a median
drifts beyond it. Each run's wall time is reported as well, with what
4 + 22 runs per workload would take at that pace.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_OTHER_SEED = 101


def run_once(spec, workload, seed):
    """Returns (result or None, wall seconds) of one untraced run."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seconds", str(spec["run_seconds"]),
        "--trace", "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None, wall
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(metric, first, later):
    """How much worse the later median is than the first, as a share."""
    change = (statistics.median(later) - statistics.median(first)) / \
        statistics.median(first)
    return change if metric["better"] == "lower" else -change


def report(label, spec, values, first=None):
    """Prints one workload's table for one set; returns False on a
    violated bound. `first` holds the first set's values, if this is a
    later set."""
    ok = True
    print("%s:" % label)
    print("  %-18s %12s %8s %6s  %-7s %s" % (
        "metric", "median", "spread", "bound", "verdict",
        "drift vs set 1" if first else ""))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if len(values[name]) < 2:
            print("  %-18s too few successful runs" % name)
            ok = False
            continue
        s = spread(values[name])
        verdict = ("steady" if s < bound / 3 else
                   "ok" if s <= bound else "WIDE")
        ok = ok and verdict != "WIDE"
        line = "  %-18s %12.6g %7.2f%% %5.0f%%  %-7s" % (
            name, statistics.median(values[name]), 100 * s, 100 * bound,
            verdict)
        if first and len(first[name]) >= 2:
            d = drift(metric, first[name], values[name])
            ok = ok and d <= bound
            line += " %+.2f%% %s" % (100 * d, "ok" if d <= bound else "DRIFT")
        print(line)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads",
                        help="comma-separated workload names (default: all)")
    args = parser.parse_args()
    if args.runs < 2 or args.sets < 1:
        parser.error("--runs must be at least 2 and --sets at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads else
             [w["name"] for w in spec["workloads"]])
    seeds = [None] + list(range(FIRST_OTHER_SEED,
                                FIRST_OTHER_SEED + args.runs - 1))

    ok = True
    walls = []
    first = {}
    for number in range(1, args.sets + 1):
        for workload in names:
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for seed in seeds:
                result, wall = run_once(spec, workload, seed)
                walls.append(wall)
                label = "default" if seed is None else seed
                if result is None:
                    print("  %s seed %s: FAILED in %.1f s" % (
                        workload, label, wall), flush=True)
                    ok = False
                    continue
                for metric, series in values.items():
                    series.append(result["metrics"][metric]["value"])
                print("  %s seed %s: ok in %.1f s: %s" % (
                    workload, label, wall, " ".join(
                        "%s=%.6g" % (m, v[-1]) for m, v in values.items())),
                    flush=True)
            ok = report("%s, set %d" % (workload, number), spec, values,
                        first.get(workload)) and ok
            first.setdefault(workload, values)
            sys.stdout.flush()
    runs = 4 + 22 * len(spec["workloads"])
    print("run wall time: median %.1f s, max %.1f s; %d runs at the median "
          "take %.0f s" % (statistics.median(walls), max(walls), runs,
                           runs * statistics.median(walls)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
