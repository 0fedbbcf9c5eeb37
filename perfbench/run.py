#!/usr/bin/env python3
"""Builds the system and runs one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/CMakeLists.txt (the system's
src/ tree plus the benchmark driver) into $CARGO_TARGET_DIR or .bench_build;
later runs only rebuild what changed. The driver's last stdout line is one
JSON object; this script checks that its metric names and units are exactly
the ones BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1) and re-prints it as the last line, after the
driver's other output. Exits nonzero, without printing a result, when
the build fails, the driver fails, or the output does not match.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "goldilocks", "Engine.h")):
        fail("system sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if res.returncode != 0:
            sys.stderr.write(res.stdout.decode(errors="replace")[-4000:])
            fail("build step %s exited %d" % (cmd[:2], res.returncode))
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def check_result(line, trace):
    """Returns the parsed result, or fails with the first mismatch."""
    try:
        res = json.loads(line)
    except ValueError:
        fail("driver's last line is not JSON: %r" % line[:200])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        fail("failed must be a non-negative integer")
    want = declared_metrics(trace)
    got = [(k, v.get("unit")) for k, v in res["metrics"].items()]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metric names/units differ from BENCHMARK.json: missing %s, "
             "extra %s" % (missing, extra))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            fail("metric %s has no numeric value" % k)
    return res


def self_test():
    out = build()
    res = subprocess.run([os.path.join(out, "perfbench_selftest")],
                         timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        fail("C++ helper self-test failed")
    # The metric tables compiled into the driver must be the ones
    # BENCHMARK.json declares: run each mode on a short pass and compare.
    for trace in (0, 1):
        line = run_driver(out, "jvm-txn", 1, 1, trace)
        check_result(line, trace)
    print("perfbench self-test: metric names match BENCHMARK.json")


def run_driver(out, workload, seed, seconds, trace):
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--work-dir", os.path.join(os.path.dirname(out), "run")]
    os.makedirs(os.path.join(os.path.dirname(out), "run"), exist_ok=True)
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    text = res.stdout.decode(errors="replace")
    lines = [l for l in text.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l)
    if res.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail("driver exited %d" % res.returncode)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.workload:
        fail("--workload is required")
    out = build()
    line = run_driver(out, args.workload, args.seed, args.seconds, args.trace)
    check_result(line, args.trace)
    print(line)


if __name__ == "__main__":
    main()
