//===- bench/bench_scaling.cpp - Multi-core engine scaling ----------------===//
///
/// Throughput of the detection engine under 1..16 real threads, across the
/// engine's allocation configurations. Each thread works on its own
/// variables and its own lock — the workload itself is perfectly parallel,
/// so any plateau is the engine's serialization: tail-CAS contention on the
/// event list plus striped-lock traffic.
///
/// Per iteration a thread runs: two volatile reads of shared (read-only,
/// race-free) flags, then one *nested* monitor block — four lock acquires,
/// four write/read pairs on private fields, four releases. That is 8
/// data-access checks and 10 event-list appends, roughly the sync-to-data
/// ratio of the paper's lock-heavy benchmarks. GC stays in play via a small
/// threshold.
///
/// Modes (--modes csv, default "lockfree,nopool"):
///   lockfree  the production-default configuration (slab pooling on)
///   nopool    slab pooling off (pooling ablation)
///
/// Methodology: min-of-k wall-clock (steady clock) around the fork/join
/// region (engine construction/teardown excluded); engine stats are taken
/// from the fastest rep. The table reports Mops/s where an op is one checked
/// data access; the JSON artifact additionally reports events/sec counting
/// every engine interaction (data checks + sync events).
///
///   bench_scaling [--scale N] [--reps K] [--modes csv]
///                 [--json PATH] [--label NAME]
///
/// --json writes a gold-bench-v1 artifact (see BenchUtil.h); --label tags
/// every run entry (e.g. "pre" / "post" for the checked-in trajectory in
/// BENCH_scaling.json — see EXPERIMENTS.md for the regeneration recipe).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Table.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace gold;

namespace {

constexpr unsigned FieldsPerObj = 4;
constexpr unsigned LockDepth = 4; // nested monitor depth (the acquire burst)
constexpr ObjectId VolObj = 5000; // shared volatile flags, read-only

struct Mode {
  const char *Name;
  void (*Configure)(EngineConfig &);
};

const Mode Modes[] = {
    {"lockfree", [](EngineConfig &) {}},
    {"nopool", [](EngineConfig &C) { C.EnableSlabPooling = false; }},
};

const Mode *findMode(const std::string &Name) {
  for (const Mode &M : Modes)
    if (Name == M.Name)
      return &M;
  return nullptr;
}

struct ScalingRun {
  double Seconds = 0;
  uint64_t DataOps = 0;
  uint64_t Appends = 0;
  EngineStats Stats;
};

/// One timed fork/join run under \p Cfg.
ScalingRun hammer(EngineConfig Cfg, unsigned NumThreads, unsigned Iters) {
  Cfg.GcThreshold = 1u << 14;
  GoldilocksDetector D(Cfg);

  D.onAlloc(0, VolObj, 2);
  for (unsigned I = 1; I <= NumThreads; ++I) {
    for (unsigned L = 0; L != LockDepth; ++L)
      D.onAlloc(0, 100 + I * LockDepth + L, 1); // thread I's lock objects
    D.onAlloc(0, 1000 + I, FieldsPerObj);       // thread I's data object
  }

  std::atomic<bool> Go{false};
  auto Worker = [&](ThreadId Tid) {
    ObjectId Lock0 = 100 + Tid * LockDepth;
    ObjectId Obj = 1000 + Tid;
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    for (unsigned I = 0; I != Iters; ++I) {
      D.onVolatileRead(Tid, VarId{VolObj, 0});
      D.onVolatileRead(Tid, VarId{VolObj, 1});
      for (unsigned L = 0; L != LockDepth; ++L)
        D.onAcquire(Tid, Lock0 + L);
      for (FieldId F = 0; F != FieldsPerObj; ++F) {
        D.onWrite(Tid, VarId{Obj, F});
        D.onRead(Tid, VarId{Obj, F});
      }
      for (unsigned L = LockDepth; L != 0; --L)
        D.onRelease(Tid, Lock0 + L - 1);
    }
    D.onTerminate(Tid);
  };

  ScalingRun R;
  Timer T;
  std::vector<std::thread> Threads;
  for (unsigned I = 1; I <= NumThreads; ++I) {
    D.onFork(0, I);
    Threads.emplace_back(Worker, static_cast<ThreadId>(I));
  }
  Go.store(true, std::memory_order_release);
  for (unsigned I = 1; I <= NumThreads; ++I) {
    Threads[I - 1].join();
    D.onJoin(0, I);
  }
  R.Seconds = T.seconds();
  R.DataOps = static_cast<uint64_t>(NumThreads) * Iters * (2 * FieldsPerObj);
  R.Appends = static_cast<uint64_t>(NumThreads) * Iters * (2 + 2 * LockDepth);
  R.Stats = D.engine().stats();
  return R;
}

ScalingRun bestRun(const EngineConfig &Cfg, unsigned NumThreads,
                   unsigned Iters, int Reps) {
  ScalingRun Best;
  for (int I = 0; I != Reps; ++I) {
    ScalingRun R = hammer(Cfg, NumThreads, Iters);
    if (I == 0 || R.Seconds < Best.Seconds)
      Best = R;
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Scale = parseScale(Argc, Argv, 4);
  const unsigned Iters = 25000 * Scale;
  const int Reps = static_cast<int>(parseUintArg(Argc, Argv, "--reps", 3));
  std::string JsonPath = parseStrArg(Argc, Argv, "--json", "");
  std::string Label = parseStrArg(Argc, Argv, "--label", "");
  std::string ModesCsv =
      parseStrArg(Argc, Argv, "--modes", "lockfree,nopool");

  std::vector<const Mode *> Selected;
  for (size_t Pos = 0; Pos < ModesCsv.size();) {
    size_t End = ModesCsv.find(',', Pos);
    if (End == std::string::npos)
      End = ModesCsv.size();
    std::string Name = ModesCsv.substr(Pos, End - Pos);
    const Mode *M = findMode(Name);
    if (!M) {
      std::fprintf(stderr, "unknown mode '%s' (have:", Name.c_str());
      for (const Mode &K : Modes)
        std::fprintf(stderr, " %s", K.Name);
      std::fprintf(stderr, ")\n");
      return 1;
    }
    Selected.push_back(M);
    Pos = End + 1;
  }

  std::printf("=== Engine scaling (scale %u, %u iters/thread, min of %d, "
              "%u hw threads) ===\n\n",
              Scale, Iters, Reps, std::thread::hardware_concurrency());

  std::vector<std::string> Cols = {"Threads"};
  for (const Mode *M : Selected) {
    Cols.push_back(std::string(M->Name) + " Mops/s");
    Cols.push_back("speedup");
  }
  Table T(Cols);

  JsonWriter J;
  jsonBenchHeader(J, "bench_scaling");
  J.kv("scale", Scale);
  J.kv("iters_per_thread", Iters);
  J.kv("reps", static_cast<uint64_t>(Reps));
  J.key("runs");
  J.beginArray();

  std::vector<double> Base(Selected.size(), 0.0);
  for (unsigned N : {1u, 2u, 4u, 8u, 16u}) {
    std::vector<std::string> Row = {std::to_string(N)};
    for (size_t MI = 0; MI != Selected.size(); ++MI) {
      EngineConfig Cfg;
      Selected[MI]->Configure(Cfg);
      ScalingRun R = bestRun(Cfg, N, Iters, Reps);
      double Mops = static_cast<double>(R.DataOps) / R.Seconds / 1e6;
      uint64_t Events = R.DataOps + R.Stats.SyncEvents;
      if (N == 1)
        Base[MI] = Mops;
      char V[32], S[16];
      std::snprintf(V, sizeof(V), "%.2f", Mops);
      std::snprintf(S, sizeof(S), "%.2fx", Mops / Base[MI]);
      Row.push_back(V);
      Row.push_back(S);

      J.beginObject();
      if (!Label.empty())
        J.kv("label", Label);
      J.kv("mode", Selected[MI]->Name);
      J.kv("threads", N);
      J.kv("seconds", R.Seconds);
      J.kv("data_ops", R.DataOps);
      J.kv("events", Events);
      J.kv("mops_per_sec", Mops);
      J.kv("events_per_sec", static_cast<double>(Events) / R.Seconds);
      J.kv("append_retries_per_event",
           R.Stats.SyncEvents
               ? static_cast<double>(R.Stats.AppendRetries) /
                     static_cast<double>(R.Stats.SyncEvents)
               : 0.0);
      Cfg.GcThreshold = 1u << 14; // what hammer actually ran with
      jsonEngineConfig(J, "config", Cfg);
      jsonEngineStats(J, "stats", R.Stats);
      J.endObject();
    }
    T.addRow(Row);
  }
  J.endArray();
  J.endObject();

  T.print();
  std::printf("\nAn op is one checked data access (8 per iteration, plus 10 "
              "event-list appends:\n2 volatile reads of shared flags, 4 "
              "nested acquires, 4 releases). Lock-free\nappends + striped "
              "variable locks should scale until appends saturate the "
              "tail.\n");

  if (!JsonPath.empty()) {
    if (!J.writeFile(JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", JsonPath.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
