#!/usr/bin/env python3
"""Builds the tnmine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload structural --seed 1 --seconds 20 --trace 0

The C++ driver (perfbench/src) is configured with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use
and rebuilt incrementally afterwards; build output goes to stderr.
BENCHMARK.json is the one source of the run length (--seconds defaults to
its run_seconds) and of the metrics: tnbench is given the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1. Its
human-readable report is passed through; its last stdout line, one JSON
object, is printed as this script's last line once it has the shape of a
result.

    python3 perfbench/run.py --selftest

builds and runs the unit tests of the benchmark's own helpers instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("structural", "temporal", "subdue", "gspan", "server")
# tnbench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(directory, target, options=()):
    """Configures `directory` once, then builds `target` in it."""
    if not os.path.exists(os.path.join(directory, "build.ninja")) and \
            not os.path.exists(os.path.join(directory, "Makefile")):
        command = ["cmake", "-S", HERE, "-B", directory,
                   "-DCMAKE_BUILD_TYPE=Release", *options]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", directory, "--target", target,
                       "--parallel", jobs], stdout=sys.stderr).returncode:
        fail("building %s failed" % target)
    return os.path.join(directory, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def is_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and \
        set(result) == {"correct", "attempted", "failed", "metrics"}


def selftest():
    directory = os.path.join(build_root(), "perfbench-tests")
    binary = build(directory, "perfbench_helpers_test",
                   ["-DPERFBENCH_BUILD_TESTS=ON"])
    sys.exit(subprocess.run([binary]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else \
        spec["run_seconds"]
    metrics = ",".join("%s:%s" % (m["name"], m["unit"]) for m in
                       spec["per_layer" if args.trace else "end_to_end"])

    binary = build(os.path.join(build_root(), "perfbench"), "tnbench")
    work_dir = os.path.join(build_root(), "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--metrics", metrics,
               # Relative, so the server's unix socket path stays short.
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if not is_result(lines[-1]):
        fail("the benchmark printed no result (exit code %d)" %
             proc.returncode)
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
