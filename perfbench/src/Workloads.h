//===- perfbench/src/Workloads.h - Workload runners -------------*- C++ -*-===//
///
/// \file
/// The four workloads (see perfbench/README.md for why each exists). A
/// runner performs one pass — set-ups, the measured loop and the
/// correctness checks — and returns every metric it can produce; main()
/// picks the end-to-end or the per-layer set depending on --trace.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for run artifacts inside the checkout (shm segment, spans).
  std::string WorkDir = ".bench_build/run";
};

/// One pass's results. Values are keyed by metric name; the JSON emitter
/// looks the unit up from the metric tables in main.cpp.
struct PassResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The headline figure the tracing overhead is computed from (run_s).
  double Headline = 0;
  std::map<std::string, double> Metrics;
};

/// jvm-apps and jvm-txn. \p Traced wraps every detector call in spans.
PassResult runJvm(const Options &O, double Seconds, bool Traced);
/// svc-shm and svc-tcp. \p Traced wraps every client and server call in
/// spans and arms the service's pipeline tracing at full sampling.
PassResult runSvc(const Options &O, double Seconds, bool Traced);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
