//===- bench/BenchJson.h - gold-bench-v1 JSON reporting ---------*- C++ -*-===//
///
/// \file
/// The shared JSON artifact vocabulary: every measurement emitter in the
/// repo (the bench_* harnesses and `goldilocks-trace --stats-json`) writes
/// the same "gold-bench-v1" header and the same raw-counter engine blocks,
/// so CI and the plotting scripts can treat all artifacts uniformly. Split
/// out of BenchUtil.h so tools that never touch the VM/workload stack can
/// report without linking it.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_BENCH_BENCHJSON_H
#define GOLD_BENCH_BENCHJSON_H

#include "goldilocks/Engine.h"
#include "support/Json.h"

#include <cstdio>
#include <ctime>
#include <string>
#include <thread>

namespace gold {

/// The current git revision, or "unknown" outside a work tree. The bench
/// binaries run from the build directory, which lives inside the repo, so a
/// plain rev-parse finds the right HEAD.
inline std::string gitRevision() {
  FILE *P = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (!P)
    return "unknown";
  char Buf[64] = {0};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, P);
  ::pclose(P);
  while (N && (Buf[N - 1] == '\n' || Buf[N - 1] == '\r'))
    Buf[--N] = 0;
  return N ? std::string(Buf, N) : std::string("unknown");
}

/// Emits the shared header every gold-bench-v1 artifact starts with, so the
/// plotting/CI side can treat them uniformly: schema tag, bench name, the
/// revision the binary was built from, hardware parallelism and a UTC
/// timestamp. Leaves the top-level object open for bench-specific fields.
inline void jsonBenchHeader(JsonWriter &J, const char *Bench) {
  J.beginObject();
  J.kv("schema", "gold-bench-v1");
  J.kv("bench", Bench);
  J.kv("git_rev", gitRevision());
  J.kv("hw_threads", std::thread::hardware_concurrency());
  std::time_t Now = std::time(nullptr);
  char Ts[32] = "unknown";
  if (std::tm *Tm = std::gmtime(&Now))
    std::strftime(Ts, sizeof(Ts), "%Y-%m-%dT%H:%M:%SZ", Tm);
  J.kv("utc", Ts);
}

/// Emits every EngineStats counter as one JSON object member; the artifact
/// keeps raw counters (not rates) so post-processing can derive whatever it
/// wants without re-running.
inline void jsonEngineStats(JsonWriter &J, const char *Key,
                            const EngineStats &S) {
  J.key(Key);
  J.beginObject();
  jsonCounters(J, S);
  J.kv("short_circuit_fraction", S.shortCircuitFraction());
  J.endObject();
}

/// Emits the EngineConfig knobs that affect hot-path behaviour (the ones an
/// ablation run varies); fixed algorithmic toggles ride along so a JSON file
/// is self-describing.
inline void jsonEngineConfig(JsonWriter &J, const char *Key,
                             const EngineConfig &C) {
  J.key(Key);
  J.beginObject();
  J.kv("gc_threshold", C.GcThreshold);
  J.kv("trim_fraction", C.TrimFraction);
  J.kv("enable_slab_pooling", C.EnableSlabPooling);
  J.kv("max_cells", C.MaxCells);
  J.kv("max_info_records", C.MaxInfoRecords);
  J.kv("max_bytes", C.MaxBytes);
  J.kv("grace_deadline_micros", C.GraceDeadlineMicros);
  J.kv("epoch_slot_count", C.EpochSlotCount);
  J.endObject();
}

} // namespace gold

#endif // GOLD_BENCH_BENCHJSON_H
