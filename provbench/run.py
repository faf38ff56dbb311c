#!/usr/bin/env python3
"""Build and run one ProvLedger benchmark workload.

Usage (from the root of a checkout):

    python3 provbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds provbench/ in Release into $CARGO_TARGET_DIR (default
.bench_build), runs the provbench binary, checks its result against
BENCHMARK.json and prints that result as the last line of stdout: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1. A
per-layer metric of a layer the workload never enters reads 0. Build
output and the binary's diagnostics go to stderr. Exits non-zero, printing
no result, when the build, the run or the result check fails.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "provbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def checked_metrics(metrics, declared):
    """The declared metrics in declaration order, units checked."""
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = metrics.get(name)
        if got is None:
            if "bound" in metric:
                fail("end-to-end metric %s missing from the result" % name)
            got = {"value": 0, "unit": unit}  # layer not entered
        if got["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, got["unit"], unit))
        out[name] = got
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        fail("metrics not declared in BENCHMARK.json: "
             + ", ".join(sorted(extra)))
    return out


def main():
    args = sys.argv[1:]
    trace = "0"
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(bench_dir), "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(bench_dir, build_dir)

    binary = os.path.join(build_dir, "provbench")
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("provbench exited with %d" % done.returncode)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        fail("provbench printed no result")
    result = json.loads(lines[-1])
    declared = spec["per_layer"] if trace != "0" else spec["end_to_end"]
    result["metrics"] = checked_metrics(result["metrics"], declared)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
