#!/usr/bin/env python3
"""Validate the repo's measurement artifacts (stdlib only).

Understands every JSON document the binaries emit and checks real
invariants, not just well-formedness:

  gold-bench-v1        perf-smoke artifacts (bench_table1 --json,
                       goldilocks-trace --stats-json)
  gold-metrics-v1      goldilocks-trace / goldilocks-serve --metrics-json
  gold-health-v1       goldilocks-serve --health-json (service + shards)
  gold-race-report-v1  goldilocks-trace --race-report
  gold-trace-v1        goldilocks-serve / net_chaos_client --trace-out and
                       merge_traces.py output (pipeline span traces); checks
                       the per-frame stage-sum invariant
                       wire + ring_wait + apply <= e2e
  gold-timeseries-v1   goldilocks-serve /metrics/history (time-series ring)
  Chrome trace events  goldilocks-trace --trace-out (Perfetto-loadable)

Usage: check_bench_schema.py FILE [FILE...]
Exit status: 0 when every file validates, 1 otherwise.
"""

import json
import sys

TELEMETRY_LEVELS = ("off", "counters", "full")


class Bad(Exception):
    pass


def need(doc, key, types, ctx):
    if key not in doc:
        raise Bad(f"{ctx}: missing required key '{key}'")
    val = doc[key]
    if not isinstance(val, types):
        raise Bad(f"{ctx}: '{key}' has type {type(val).__name__}, "
                  f"expected {types}")
    return val


def check_counter_map(obj, ctx):
    if not isinstance(obj, dict):
        raise Bad(f"{ctx}: expected an object")
    for name, val in obj.items():
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise Bad(f"{ctx}.{name}: non-numeric value {val!r}")
        if val < 0:
            raise Bad(f"{ctx}.{name}: negative counter {val}")


def check_stats_block(stats, ctx):
    check_counter_map(stats, ctx)
    # Counters the engine has emitted since PR 1; their absence means the
    # emitter and this checker have drifted.
    for key in ("accesses", "sync_events", "full_walks", "cells_walked"):
        if key not in stats:
            raise Bad(f"{ctx}: missing engine counter '{key}'")


def check_histogram(name, h, ctx):
    ctx = f"{ctx}.{name}"
    count = need(h, "count", int, ctx)
    total = need(h, "sum", int, ctx)
    hmax = need(h, "max", int, ctx)
    need(h, "mean", (int, float), ctx)
    buckets = need(h, "buckets", list, ctx)
    bucket_total = 0
    prev_hi = -1
    for i, b in enumerate(buckets):
        if (not isinstance(b, list) or len(b) != 3
                or not all(isinstance(x, int) for x in b)):
            raise Bad(f"{ctx}.buckets[{i}]: expected [lo, hi, count] ints, "
                      f"got {b!r}")
        lo, hi, n = b
        if lo > hi:
            raise Bad(f"{ctx}.buckets[{i}]: lo {lo} > hi {hi}")
        if lo <= prev_hi:
            raise Bad(f"{ctx}.buckets[{i}]: overlaps previous bucket")
        prev_hi = hi
        bucket_total += n
    if bucket_total != count:
        raise Bad(f"{ctx}: bucket counts sum to {bucket_total}, "
                  f"count says {count}")
    if count and total < hmax:
        raise Bad(f"{ctx}: sum {total} < max {hmax}")


def check_metrics_body(doc, ctx):
    level = need(doc, "level", str, ctx)
    if level not in TELEMETRY_LEVELS:
        raise Bad(f"{ctx}: bad level {level!r}")
    check_counter_map(need(doc, "counters", dict, ctx), f"{ctx}.counters")
    check_counter_map(need(doc, "gauges", dict, ctx), f"{ctx}.gauges")
    hists = need(doc, "histograms", dict, ctx)
    for name, h in hists.items():
        if not isinstance(h, dict):
            raise Bad(f"{ctx}.histograms.{name}: expected an object")
        check_histogram(name, h, f"{ctx}.histograms")
    if level != "full" and hists:
        raise Bad(f"{ctx}: histograms present at level {level!r}")


def check_metrics(doc, path):
    need(doc, "source", str, path)
    check_metrics_body(doc, path)


def check_bench(doc, path):
    need(doc, "bench", str, path)
    need(doc, "git_rev", str, path)
    need(doc, "utc", str, path)
    runs = doc.get("runs")
    if runs is not None:
        if not isinstance(runs, list) or not runs:
            raise Bad(f"{path}: 'runs' must be a non-empty array")
        for i, r in enumerate(runs):
            ctx = f"{path}.runs[{i}]"
            if not isinstance(r, dict):
                raise Bad(f"{ctx}: expected an object")
            if "seconds" in r and (not isinstance(r["seconds"], (int, float))
                                   or r["seconds"] < 0):
                raise Bad(f"{ctx}: bad 'seconds' {r['seconds']!r}")
            if "stats" in r:
                check_stats_block(r["stats"], f"{ctx}.stats")
    if "stats" in doc:
        check_stats_block(doc["stats"], f"{path}.stats")
    if "health" in doc:
        check_counter_map(
            {k: v for k, v in doc["health"].items()
             if not isinstance(v, bool)}, f"{path}.health")


def check_service_health(doc, path):
    """goldilocks-serve --health-json: the service-wide ladder and loss
    accounting plus one engine-health block per shard."""
    need(doc, "source", str, path)
    shards = need(doc, "shards", int, path)
    check_counter_map(
        {k: v for k, v in doc.items()
         if not isinstance(v, (bool, str, list, dict))}, path)
    shard_health = need(doc, "shard_health", list, path)
    if len(shard_health) != shards:
        raise Bad(f"{path}: shards says {shards} but shard_health has "
                  f"{len(shard_health)} entries")
    for i, sh in enumerate(shard_health):
        ctx = f"{path}.shard_health[{i}]"
        if not isinstance(sh, dict):
            raise Bad(f"{ctx}: expected an object")
        check_counter_map(
            {k: v for k, v in sh.items() if not isinstance(v, bool)}, ctx)
        for key in ("cells", "degradation_level"):
            need(sh, key, int, ctx)
    # Loss is accounted, never silent: the total is exactly its parts.
    loss = need(doc, "verdict_loss_events", int, path)
    parts = (doc.get("lost_sessions", 0) + doc.get("verdicts_dropped_dead", 0)
             + doc.get("dropped_pending_actions", 0))
    if loss != parts:
        raise Bad(f"{path}: verdict_loss_events {loss} is not the sum of its "
                  f"components {parts}")


def check_race_report(doc, path):
    need(doc, "source", str, path)
    count = need(doc, "race_count", int, path)
    races = need(doc, "races", list, path)
    if len(races) != count:
        raise Bad(f"{path}: race_count {count} != len(races) {len(races)}")
    for i, r in enumerate(races):
        ctx = f"{path}.races[{i}]"
        need(r, "var", str, ctx)
        for side in ("access", "prior"):
            a = need(r, side, dict, ctx)
            need(a, "thread", int, f"{ctx}.{side}")
            need(a, "kind", str, f"{ctx}.{side}")
        prov = need(r, "provenance", dict, ctx)
        if need(prov, "captured", bool, f"{ctx}.provenance"):
            steps = need(prov, "steps", list, f"{ctx}.provenance")
            prev = 0
            for j, s in enumerate(steps):
                seq = need(s, "seq", int, f"{ctx}.provenance.steps[{j}]")
                if seq <= prev:
                    raise Bad(f"{ctx}.provenance.steps[{j}]: seq {seq} not "
                              f"strictly increasing")
                prev = seq


def check_pipe_trace(doc, path):
    """gold-trace-v1: pipeline span traces from TraceEventSink::json (one
    process, top-level 'pid') or merge_traces.py ('pids' + 'merged_from').

    Beyond well-formedness this checks the invariant the whole span model is
    built around: for every sampled frame the three pipeline stages tile the
    end-to-end span exactly, so wire + ring_wait + apply <= e2e (with a tiny
    float tolerance — ts/dur are microseconds with ns precision).  Spans are
    grouped by (pid, tid, client, seq, shard): a frame goes to its session's
    one shard, so each frame has one chain, and a second stage span under the
    same key is an attribution bug."""
    if need(doc, "displayTimeUnit", str, path) != "ns":
        raise Bad(f"{path}: displayTimeUnit is not 'ns'")
    if need(doc, "ts_origin_nanos", int, path) < 0:
        raise Bad(f"{path}: negative ts_origin_nanos")
    merged = "pids" in doc
    if merged:
        pids = need(doc, "pids", list, path)
        if not all(isinstance(p, int) for p in pids):
            raise Bad(f"{path}: non-integer entry in 'pids'")
        if need(doc, "merged_from", int, path) != len(pids):
            raise Bad(f"{path}: merged_from disagrees with len(pids)")
        known_pids = set(pids)
    else:
        known_pids = {need(doc, "pid", int, path)}
    events = need(doc, "traceEvents", list, path)
    stages = {}  # (pid, tid, client, seq, shard) -> {stage: dur_us}
    for i, e in enumerate(events):
        ctx = f"{path}.traceEvents[{i}]"
        name = need(e, "name", str, ctx)
        ph = need(e, "ph", str, ctx)
        if ph not in ("X", "i"):
            raise Bad(f"{ctx}: unexpected phase {ph!r}")
        if need(e, "ts", (int, float), ctx) < 0:
            raise Bad(f"{ctx}: negative ts")
        dur = 0.0
        if ph == "X":
            dur = need(e, "dur", (int, float), ctx)
            if dur < 0:
                raise Bad(f"{ctx}: negative dur")
        pid = need(e, "pid", int, ctx)
        if pid not in known_pids:
            raise Bad(f"{ctx}: pid {pid} not declared at top level")
        tid = need(e, "tid", int, ctx)
        if e.get("cat") != "pipe" or ph != "X":
            continue
        args = need(e, "args", dict, ctx)
        key = (pid, tid, need(args, "client", int, f"{ctx}.args"),
               need(args, "seq", int, f"{ctx}.args"), args.get("shard", -1))
        chain = stages.setdefault(key, {})
        if name in ("wire", "ring_wait", "apply", "e2e"):
            # A frame's stage chain is emitted exactly once; a second copy
            # under the same key is an attribution bug.  Other
            # pipe spans (verdict, client_e2e) legitimately repeat: one
            # frame can deliver many race verdicts.
            if name in chain:
                raise Bad(f"{ctx}: duplicate '{name}' span for frame {key}")
            chain[name] = dur
    chains = 0
    for key, chain in stages.items():
        if "e2e" not in chain:
            continue  # client_e2e / verdict-only groups carry no stage sum
        chains += 1
        parts = sum(chain.get(s, 0.0) for s in ("wire", "ring_wait", "apply"))
        # 1ns per stage of float slack: ts/dur went through a /1000.0.
        if parts > chain["e2e"] + 0.004:
            raise Bad(f"{path}: frame {key}: stage sum {parts}us exceeds "
                      f"e2e {chain['e2e']}us")
    return chains


def check_timeseries(doc, path):
    """gold-timeseries-v1: the /metrics/history ring. Samples must be in
    time order with positive observation windows, rates non-negative, and
    every histogram's quantiles ordered."""
    need(doc, "source", str, path)
    need(doc, "interval_hint_ms", int, path)
    capacity = need(doc, "capacity", int, path)
    if capacity <= 0:
        raise Bad(f"{path}: non-positive capacity")
    if need(doc, "forgotten", int, path) < 0:
        raise Bad(f"{path}: negative forgotten")
    samples = need(doc, "samples", list, path)
    if len(samples) > capacity:
        raise Bad(f"{path}: {len(samples)} samples exceed capacity "
                  f"{capacity}")
    prev_t = -1
    for i, s in enumerate(samples):
        ctx = f"{path}.samples[{i}]"
        t = need(s, "t_unix_ms", int, ctx)
        if t < prev_t:
            raise Bad(f"{ctx}: t_unix_ms went backwards")
        prev_t = t
        if need(s, "dt_secs", (int, float), ctx) <= 0:
            raise Bad(f"{ctx}: non-positive dt_secs")
        check_counter_map(need(s, "rates", dict, ctx), f"{ctx}.rates")
        for name, g in need(s, "gauges", dict, ctx).items():
            if not isinstance(g, int) or isinstance(g, bool):
                raise Bad(f"{ctx}.gauges.{name}: bad gauge {g!r}")
        for name, h in need(s, "histograms", dict, ctx).items():
            hctx = f"{ctx}.histograms.{name}"
            if not isinstance(h, dict):
                raise Bad(f"{hctx}: expected an object")
            if need(h, "count", int, hctx) < 0:
                raise Bad(f"{hctx}: negative count")
            p50 = need(h, "p50", int, hctx)
            p99 = need(h, "p99", int, hctx)
            if not 0 <= p50 <= p99:
                raise Bad(f"{hctx}: p50 {p50} > p99 {p99}")


def check_chrome_trace(doc, path):
    events = need(doc, "traceEvents", list, path)
    for i, e in enumerate(events):
        ctx = f"{path}.traceEvents[{i}]"
        ph = need(e, "ph", str, ctx)
        need(e, "name", str, ctx)
        ts = need(e, "ts", (int, float), ctx)
        if ts < 0:
            raise Bad(f"{ctx}: negative ts")
        if ph == "X":
            if need(e, "dur", (int, float), ctx) < 0:
                raise Bad(f"{ctx}: negative dur")
        elif ph != "i":
            raise Bad(f"{ctx}: unexpected phase {ph!r}")


def check_file(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise Bad(f"{path}: top level is not an object")
    schema = doc.get("schema")
    if schema == "gold-bench-v1":
        check_bench(doc, path)
    elif schema == "gold-metrics-v1":
        check_metrics(doc, path)
    elif schema == "gold-health-v1":
        check_service_health(doc, path)
    elif schema == "gold-race-report-v1":
        check_race_report(doc, path)
    elif schema == "gold-trace-v1":
        chains = check_pipe_trace(doc, path)
        schema = f"gold-trace-v1, {chains} stage chains"
    elif schema == "gold-timeseries-v1":
        check_timeseries(doc, path)
    elif schema is None and "traceEvents" in doc:
        check_chrome_trace(doc, path)
        schema = "chrome-trace"
    else:
        raise Bad(f"{path}: unknown schema {schema!r}")
    return schema


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    failed = False
    for path in argv[1:]:
        try:
            schema = check_file(path)
            print(f"{path}: ok ({schema})")
        except (Bad, OSError, json.JSONDecodeError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
