//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
///
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--work-dir <dir>]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
/// the end-to-end metrics; --trace 1 runs the workload twice (untraced,
/// then with bench-side spans) and reports the per-layer metrics plus the
/// tracing overhead, writing the spans to
/// <work-dir>/<workload>-<seed>.trace.json.
/// Exits 1 when any operation failed its correctness check, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>

using namespace pb;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Must match BENCHMARK.json ("end_to_end"); run.py checks it does.
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
};

/// Must match BENCHMARK.json ("per_layer"). A layer a workload does not
/// exercise reports 0.
const MetricDef PerLayer[] = {
    {"trace.overhead_x", "x"},
    {"process.peak_rss_mb", "MiB"},
    {"vm.self_s", "s"},
    {"vm.bare_s", "s"},
    {"vm.slowdown_x", "x"},
    {"vm.instructions", "count"},
    {"vm.volatile_reads", "count"},
    {"goldilocks.access.calls", "count"},
    {"goldilocks.access.busy_s", "s"},
    {"goldilocks.access.p99_ns", "ns"},
    {"goldilocks.sync.calls", "count"},
    {"goldilocks.sync.busy_s", "s"},
    {"goldilocks.commit.calls", "count"},
    {"goldilocks.commit.busy_s", "s"},
    {"goldilocks.short_circuit_frac", "ratio"},
    {"goldilocks.cells_per_walk", "count"},
    {"goldilocks.append_retries", "count"},
    {"goldilocks.grace_waits", "count"},
    {"goldilocks.gc_runs", "count"},
    {"goldilocks.cells_high_water", "count"},
    {"stm.commits", "count"},
    {"stm.conflict_retries", "count"},
    {"stm.retry_frac", "ratio"},
    {"stm.failures", "count"},
    {"client.publish.busy_s", "s"},
    {"client.publish.p99_ns", "ns"},
    {"client.ack_p50_us", "us"},
    {"client.ack_p99_us", "us"},
    {"client.backpressure_waits", "count"},
    {"client.shed", "count"},
    {"client.rewinds", "count"},
    {"client.close.busy_s", "s"},
    {"client.verdict_p50_ms", "ms"},
    {"client.verdict_tail_ms", "ms"},
    {"net.poll.busy_s", "s"},
    {"net.poll.idle_frac", "ratio"},
    {"net.frames_per_poll", "count"},
    {"net.backpressure_replies", "count"},
    {"net.dup_frames", "count"},
    {"shm.poll.busy_s", "s"},
    {"shm.poll.idle_frac", "ratio"},
    {"shm.frames_per_poll", "count"},
    {"shm.slots_per_frame", "count"},
    {"shm.doorbell_wakeups", "count"},
    {"shm.backpressure_writes", "count"},
    {"service.actions_per_s", "1/s"},
    {"service.broadcast_factor", "ratio"},
    {"service.apply.busy_s", "s"},
    {"service.ring_wait_s", "s"},
    {"service.backpressure_rejects", "count"},
    {"service.queued_bytes_hwm", "bytes"},
    {"service.shard_skew", "ratio"},
    {"loadgen.late_p99_us", "us"},
    {"loadgen.late_frac", "ratio"},
};

const char *const Workloads[] = {"jvm-apps", "jvm-txn", "svc-shm", "svc-tcp"};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<jvm-apps|jvm-txn|svc-shm|svc-tcp> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    errno = 0;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (errno || *End)
        usage("bad --seed");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (errno || *End || !(O.Seconds > 0) || O.Seconds > 600)
        usage("bad --seconds");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else {
      usage(("unknown flag " + A).c_str());
    }
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known |= HaveWorkload && O.Workload == W;
  if (!Known)
    usage("unknown or missing --workload");
  return O;
}

PassResult runPass(const Options &O, double Seconds, bool Traced) {
  return O.Workload.rfind("jvm-", 0) == 0 ? runJvm(O, Seconds, Traced)
                                          : runSvc(O, Seconds, Traced);
}

template <size_t N>
void emit(const PassResult &R, const MetricDef (&Defs)[N], bool Correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed);
  for (size_t I = 0; I != N; ++I) {
    auto It = R.Metrics.find(Defs[I].Name);
    double V = It == R.Metrics.end() ? 0.0 : It->second;
    if (!std::isfinite(V))
      V = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", I ? ", " : "",
                Defs[I].Name, V, Defs[I].Unit);
  }
  std::printf("}}\n");
}

} // namespace

double pb::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (::mkdir(O.WorkDir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 O.WorkDir.c_str(), std::strerror(errno));
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  if (!O.Trace) {
    PassResult R = runPass(O, O.Seconds, /*Traced=*/false);
    bool Correct = R.Failed == 0 && R.Attempted > 0;
    emit(R, EndToEnd, Correct);
    return Correct ? 0 : 1;
  }

  // Traced run: the same workload untraced, then traced, each with half
  // the budget. Per-layer figures come from the traced pass.
  PassResult U = runPass(O, O.Seconds / 2, /*Traced=*/false);
  Tracer::enable(true);
  PassResult T = runPass(O, O.Seconds / 2, /*Traced=*/true);
  Tracer::enable(false);
  T.Metrics["trace.overhead_x"] = U.Headline > 0 ? T.Headline / U.Headline : 0;
  T.Metrics["client.verdict_p50_ms"] = U.Metrics["client.verdict_p50_ms"];
  T.Metrics["client.verdict_tail_ms"] = U.Metrics["client.verdict_tail_ms"];
  if (T.Metrics.count("vm.bare_s") && T.Metrics["vm.bare_s"] > 0)
    T.Metrics["vm.slowdown_x"] = U.Headline / T.Metrics["vm.bare_s"];
  std::string Path = O.WorkDir + "/" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".trace.json";
  uint64_t Dropped = 0;
  long Spans = Tracer::writeChromeTrace(Path, Dropped);
  if (Spans < 0)
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());
  else
    std::printf("wrote %ld spans to %s (%llu dropped)\n", Spans, Path.c_str(),
                (unsigned long long)Dropped);
  T.Attempted += U.Attempted;
  T.Failed += U.Failed;
  bool Correct = T.Failed == 0 && T.Attempted > 0 && Spans >= 0;
  emit(T, PerLayer, Correct);
  return Correct ? 0 : 1;
}
