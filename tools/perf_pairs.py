#!/usr/bin/env python3
"""Runs alternating perfbench pairs on two checkouts and compares them.

Usage:

    python3 tools/perf_pairs.py --base <checkout> --change <checkout> \\
        --workloads svc-shm,jvm-apps --pairs 5 --seconds 20 \\
        [--seed 1] [--trace 0|1] [--metrics setup_s,run_s] [--build-root DIR]

Each checkout is built into its own CARGO_TARGET_DIR (<build-root>/base and
<build-root>/change; default build root .bench_build/perf_pairs under the
current directory) by its own perfbench/run.py, so the two sides never share
objects. Then, per workload, it runs --pairs pairs. The side that runs first
flips on every pair: a fixed order can bias a metric that reads differently
for whichever run comes second (svc-tcp setup_s has done so).

Prints every pair, then per metric both medians, the base side's quartiles,
the relative change of the medians, and in how many pairs the change side
was better by the metric's "better" direction in the change checkout's
BENCHMARK.json (a tie is not better). With --trace 1, pass per-layer
metric names (BENCHMARK.json "per_layer") in --metrics. Exits 1 if any run
fails, reports "correct": false or has failed operations, after printing
what it has.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def run_side(checkout, target_dir, args_list):
    """Runs perfbench/run.py in \\p checkout; returns (result or None, text)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py")]
    try:
        res = subprocess.run(cmd + args_list, cwd=checkout, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    out = res.stdout.decode(errors="replace")
    err = res.stderr.decode(errors="replace")
    lines = [l for l in out.splitlines() if l.strip()]
    if res.returncode != 0 or not lines:
        return None, (err or out)[-2000:]
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, "last line is not JSON: %r" % lines[-1][:200]


def fmt(value, unit):
    if unit == "s":
        return "%.3f ms" % (value * 1e3)
    return "%.4g %s" % (value, unit)


def better_directions(checkout):
    """Maps every metric BENCHMARK.json declares to its "better" direction."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="checkout of the parent")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True,
                    help="comma-separated perfbench workload names")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metrics", default="setup_s,run_s",
                    help="comma-separated metric names to compare")
    ap.add_argument("--build-root",
                    default=os.path.join(".bench_build", "perf_pairs"))
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = os.path.abspath(args.build_root)
    sides = {
        "base": (os.path.abspath(args.base), os.path.join(root, "base")),
        "change": (os.path.abspath(args.change), os.path.join(root, "change")),
    }
    metrics = [m for m in args.metrics.split(",") if m]
    better = better_directions(sides["change"][0])
    unknown = [m for m in metrics if m not in better]
    if unknown:
        ap.error("no \"better\" direction in BENCHMARK.json for: " +
                 ", ".join(unknown))
    ok = True

    # Build both sides up front (run.py --self-test builds, then checks the
    # perfbench binary's metric tables against the checkout's BENCHMARK.json).
    for name, (checkout, target) in sides.items():
        print("building %s (%s) into %s" % (name, checkout, target), flush=True)
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        res = subprocess.run([sys.executable,
                              os.path.join(checkout, "perfbench", "run.py"),
                              "--self-test"], cwd=checkout, env=env)
        if res.returncode != 0:
            print("perf_pairs: %s failed to build" % name, file=sys.stderr)
            return 1

    for workload in [w for w in args.workloads.split(",") if w]:
        runs = {"base": [], "change": []}
        units = {}
        wins = {m: 0 for m in metrics}
        complete = 0
        print("\n== %s: %d pairs, %g s, seed %d, trace %d" %
              (workload, args.pairs, args.seconds, args.seed, args.trace),
              flush=True)
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            got = {}
            for name in order:
                checkout, target = sides[name]
                res, why = run_side(checkout, target, [
                    "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace)])
                if res is None:
                    print("  pair %d %s: run failed: %s" % (pair + 1, name,
                                                            why.strip()))
                    ok = False
                    continue
                if not res["correct"] or res["failed"]:
                    print("  pair %d %s: correct=%s failed=%d of %d" %
                          (pair + 1, name, res["correct"], res["failed"],
                           res["attempted"]))
                    ok = False
                missing = [m for m in metrics if m not in res["metrics"]]
                if missing:
                    print("perf_pairs: no metric %s in %s output" %
                          (", ".join(missing), name), file=sys.stderr)
                    return 1
                got[name] = res
                runs[name].append(res)
                for m in metrics:
                    units[m] = res["metrics"][m]["unit"]
            if len(got) != 2:
                continue
            complete += 1
            cells = []
            for m in metrics:
                b = got["base"]["metrics"][m]["value"]
                c = got["change"]["metrics"][m]["value"]
                if (c < b) if better[m] == "lower" else (c > b):
                    wins[m] += 1
                cells.append("%s %s -> %s" % (m, fmt(b, units[m]),
                                              fmt(c, units[m])))
            print("  pair %d (%s first): %s" % (pair + 1, order[0],
                                                "; ".join(cells)), flush=True)
        for m in metrics:
            b = [r["metrics"][m]["value"] for r in runs["base"]]
            c = [r["metrics"][m]["value"] for r in runs["change"]]
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            q1, q3 = quartiles(b)
            rel = (mc - mb) / mb * 100 if mb else float("nan")
            print("  %s median: base %s (IQR %s-%s), change %s, %+.1f%%; "
                  "change better in %d of %d pairs (%s is better)" %
                  (m, fmt(mb, units[m]), fmt(q1, units[m]), fmt(q3, units[m]),
                   fmt(mc, units[m]), rel, wins[m], complete, better[m]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
