#!/usr/bin/env python3
"""Checks tools/check_bench_regression.py on hand-made RunReports.

Usage: check_bench_regression_test.py <path to check_bench_regression.py>

A counter whose baseline is 0 must stay 0 (exit 1 when it grows), while
a schedule-dependent counter may grow from 0 and an unchanged report is
clean (exit 0).
"""

import json
import os
import subprocess
import sys
import tempfile


def run(script, baseline, current):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, counters in (("baseline", baseline), ("current", current)):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"counters": counters, "wall_seconds": 1.0}, f)
            paths.append(path)
        return subprocess.run(
            [sys.executable, script, "--baseline", paths[0], "--current",
             paths[1]],
            stdout=subprocess.DEVNULL, check=False).returncode


def main():
    script = sys.argv[1]
    cases = [
        ("zero baseline grows",
         {"fsg/match_steps_exhausted": 0}, {"fsg/match_steps_exhausted": 1},
         1),
        ("zero baseline stays zero",
         {"fsg/match_steps_exhausted": 0}, {"fsg/match_steps_exhausted": 0},
         0),
        ("schedule counter grows from zero",
         {"threadpool/inline_runs": 0}, {"threadpool/inline_runs": 5}, 0),
    ]
    failed = 0
    for name, baseline, current, expected in cases:
        code = run(script, baseline, current)
        if code != expected:
            print(f"FAIL {name}: exit {code}, expected {expected}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
