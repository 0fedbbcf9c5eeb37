//===- perfbench/src/Jvm.cpp - In-process runtime workloads --------------===//
///
/// jvm-apps runs colt (1 guest thread), hedc, tsp and philo (2 each), every
/// access checked (Table 1's "no static" column); jvm-txn runs the Table 3
/// transactional Multiset over a small set so commits conflict. Both drive
/// the system only through Vm + GoldilocksDetector under default configs.
///
/// One pass builds the mix (programs, detectors, VMs: the set-up), then runs
/// each program to completion (the run). Passes repeat until the time
/// budget is spent; every figure is a median over passes or program runs.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"
#include "Workloads.h"

#include "detectors/GoldilocksDetectors.h"
#include "vm/Vm.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <unordered_map>

using namespace gold;
using namespace pb;

namespace {

/// Program sizes: each runs for tens of milliseconds instrumented.
/// The threaded programs run 2 guest threads: real contention between
/// threads, with headroom on a 4-vCPU host. With 4, jvm-apps' pass time
/// drifted by +-15% from run to run as the host took CPU back, and the
/// Multiset's run time became bimodal between processes (30 vs 38 ms
/// medians, conflict retries per commit 0.33 vs 0.7), so two sets of ten
/// runs disagreed by half. Two threads still retry about one commit in four.
constexpr unsigned AppsThreads = 2;
constexpr unsigned TxnThreads = 2;
constexpr unsigned TxnOpsPerThread = 800;
constexpr unsigned TxnSetSize = 8;
/// Floor on passes, whatever the budget, so medians have a population.
constexpr unsigned MinPasses = 5;
/// The tail percentile reported for program runs (ten runs lie beyond it
/// from 100 runs on: 25 passes of jvm-apps, 100 of jvm-txn).
constexpr double TailQ = 0.90;

using Maker = std::function<Workload()>;

std::vector<Maker> mixFor(const std::string &Name) {
  // The volatile-barrier kernels (lufact, sor, sor2, moldyn, raytracer) are
  // left out: under the precise detector a run of them intermittently stops
  // making progress (see README.md), which no time-bounded run can absorb.
  // colt runs one guest thread: it is here for the interpreter and the
  // same-thread fast path, and with two its run time was bimodal between
  // processes (the two threads either overlap or serialise: 56 vs 74 ms
  // medians, CPU time 1x vs 2x wall) and slower than with one (31 ms).
  if (Name == "jvm-apps")
    return {[] { return makeColt(1, WorkloadScale{2}); },
            [] { return makeHedc(AppsThreads, WorkloadScale{6}); },
            [] { return makeTsp(AppsThreads, WorkloadScale{8}); },
            [] { return makePhilo(AppsThreads, WorkloadScale{8}); }};
  return {[] {
    return makeMultiset(TxnThreads, TxnOpsPerThread, TxnSetSize);
  }};
}

/// RaceDetector decorator recording a span around every hook, plus the
/// guest-thread lifetimes vm.self_s subtracts detector time from.
class TimedDetector final : public RaceDetector {
public:
  TimedDetector(GoldilocksDetector &D, uint64_t Req) : D(D), Req(Req) {}

  /// The main guest thread's lifetime starts with Vm::run.
  void setRunStart(uint64_t Ns) { RunStart = Ns; }

  std::optional<RaceReport> onRead(ThreadId T, VarId V) override {
    ScopedSpan S(Bnd::Access, Req, Req);
    return D.onRead(T, V);
  }
  std::optional<RaceReport> onWrite(ThreadId T, VarId V) override {
    ScopedSpan S(Bnd::Access, Req, Req);
    return D.onWrite(T, V);
  }
  void onAlloc(ThreadId T, ObjectId O, uint32_t N) override {
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onAlloc(T, O, N);
  }
  void onAcquire(ThreadId T, ObjectId O) override {
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onAcquire(T, O);
  }
  void onRelease(ThreadId T, ObjectId O) override {
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onRelease(T, O);
  }
  void onVolatileRead(ThreadId T, VarId V) override {
    VolatileReads.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onVolatileRead(T, V);
  }
  void onVolatileWrite(ThreadId T, VarId V) override {
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onVolatileWrite(T, V);
  }
  void onFork(ThreadId T, ThreadId Child) override {
    {
      std::lock_guard<std::mutex> G(Mu);
      Started[Child] = Tracer::nowNs();
    }
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onFork(T, Child);
  }
  void onJoin(ThreadId T, ThreadId Child) override {
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onJoin(T, Child);
  }
  void onTerminate(ThreadId T) override {
    ScopedSpan S(Bnd::Sync, Req, Req);
    D.onTerminate(T);
  }
  void onThreadExit(ThreadId T) override {
    {
      ScopedSpan S(Bnd::Sync, Req, Req);
      D.onThreadExit(T);
    }
    uint64_t Begin = RunStart;
    {
      std::lock_guard<std::mutex> G(Mu);
      auto It = Started.find(T);
      if (It != Started.end())
        Begin = It->second;
    }
    Tracer::record(Bnd::VmThread, Begin, Tracer::nowNs(), Req, Req);
  }
  std::vector<RaceReport> onCommit(ThreadId T, const CommitSets &CS) override {
    ScopedSpan S(Bnd::Commit, Req, Req);
    return D.onCommit(T, CS);
  }
  void onCommitPoint(ThreadId T, const CommitSets &CS) override {
    ScopedSpan S(Bnd::Commit, Req, Req);
    D.onCommitPoint(T, CS);
  }
  std::vector<RaceReport> onCommitFinish(ThreadId T,
                                         const CommitSets &CS) override {
    ScopedSpan S(Bnd::Commit, Req, Req);
    return D.onCommitFinish(T, CS);
  }
  const char *name() const override { return "timed-goldilocks"; }

  uint64_t req() const { return Req; }
  uint64_t volatileReads() const {
    return VolatileReads.load(std::memory_order_relaxed);
  }

private:
  GoldilocksDetector &D;
  const uint64_t Req;
  uint64_t RunStart = 0;
  std::mutex Mu;
  std::unordered_map<ThreadId, uint64_t> Started; ///< guarded by Mu
  std::atomic<uint64_t> VolatileReads{0};
};

/// True when a finished run is correct: no race on these race-free
/// programs, the expected result, no uncaught exception, no TxnFailure.
bool runIsCorrect(const Vm &V, const Workload &W, std::string &Why) {
  VmStats St = V.stats();
  if (!V.raceLog().empty())
    Why = W.Name + ": race reported: " + V.raceLog().front().str();
  else if (!V.uncaught().empty())
    Why = W.Name + ": uncaught guest exception";
  else if (St.TxnFailures)
    Why = W.Name + ": TxnFailure raised";
  else if (W.HasExpected &&
           static_cast<int64_t>(V.global(W.ResultGlobal)) != W.Expected)
    Why = W.Name + ": wrong result";
  else
    return true;
  return false;
}

/// Totals the traced pass accumulates from the system's own counters.
struct EngineTotals {
  uint64_t Fast = 0, Walks = 0, CellsWalked = 0, AppendRetries = 0,
           GraceWaits = 0, GcRuns = 0, CellsHighWater = 0;
  uint64_t TxnCommits = 0, TxnRetries = 0, TxnFailures = 0;
  std::vector<double> InstrPerPass, VolPerPass;
};

} // namespace

PassResult pb::runJvm(const Options &O, double Seconds, bool Traced) {
  std::vector<Maker> Mix = mixFor(O.Workload);
  std::mt19937_64 Rng(O.Seed);
  PassResult R;
  std::vector<double> SetupS, RunS, ProgramMs;
  std::vector<std::vector<double>> MsByProgram(Mix.size());
  EngineTotals Tot;
  uint64_t StartNs = Tracer::nowNs();
  // The bare (uninstrumented) passes of a traced run get a quarter of it.
  double InstrBudget = Traced ? Seconds * 0.75 : Seconds;
  auto Elapsed = [&] { return double(Tracer::nowNs() - StartNs) / 1e9; };

  unsigned Pass = 0;
  for (; Pass < MinPasses || Elapsed() < InstrBudget; ++Pass) {
    std::vector<size_t> Order(Mix.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), Rng);

    // Set-up: programs, detectors, VMs.
    uint64_t T0 = Tracer::nowNs();
    std::vector<Workload> Ws;
    std::vector<std::unique_ptr<GoldilocksDetector>> Ds;
    std::vector<std::unique_ptr<Vm>> Vms;
    for (size_t I : Order) {
      Ws.push_back(Mix[I]());
      Ds.push_back(std::make_unique<GoldilocksDetector>());
    }
    std::vector<std::unique_ptr<TimedDetector>> Timed;
    for (size_t I = 0; I != Ws.size(); ++I) {
      VmConfig Cfg;
      Cfg.Detector = Ds[I].get();
      if (Traced) {
        Timed.push_back(
            std::make_unique<TimedDetector>(*Ds[I], Tracer::newId()));
        Cfg.Detector = Timed.back().get();
      }
      Vms.push_back(std::make_unique<Vm>(Ws[I].Prog, Cfg));
    }
    uint64_t T1 = Tracer::nowNs();
    SetupS.push_back(double(T1 - T0) / 1e9);

    // Run. Each traced program is one request: its vm.run span is the
    // parent of every detector-call span the decorator records.
    for (size_t I = 0; I != Vms.size(); ++I) {
      uint64_t S = Tracer::nowNs();
      if (Traced)
        Timed[I]->setRunStart(S);
      Vms[I]->run();
      uint64_t E = Tracer::nowNs();
      if (Traced)
        Tracer::record(Bnd::VmRun, S, E, Timed[I]->req(), 0);
      ProgramMs.push_back(double(E - S) / 1e6);
      MsByProgram[Order[I]].push_back(double(E - S) / 1e6);
    }
    RunS.push_back(double(Tracer::nowNs() - T1) / 1e9);

    uint64_t PassInstr = 0, PassVol = 0;
    for (size_t I = 0; I != Vms.size(); ++I) {
      ++R.Attempted;
      std::string Why;
      if (!runIsCorrect(*Vms[I], Ws[I], Why)) {
        ++R.Failed;
        std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
      }
      VmStats VS = Vms[I]->stats();
      EngineStats ES = Ds[I]->engine().stats();
      EngineHealth EH = Ds[I]->engine().health();
      Tot.Fast += ES.Sc1Xact + ES.Sc2SameThread + ES.Sc3ALock;
      Tot.Walks += ES.FilteredWalks + ES.FullWalks;
      Tot.CellsWalked += ES.CellsWalked;
      Tot.AppendRetries += ES.AppendRetries;
      Tot.GraceWaits += ES.GraceWaits;
      Tot.GcRuns += ES.GcRuns;
      Tot.CellsHighWater = std::max<uint64_t>(Tot.CellsHighWater,
                                              EH.EventListHighWater);
      Tot.TxnCommits += VS.TxnCommits;
      Tot.TxnRetries += VS.TxnConflictRetries;
      Tot.TxnFailures += VS.TxnFailures;
      PassInstr += VS.Instructions;
      if (Traced)
        PassVol += Timed[I]->volatileReads();
    }
    Tot.InstrPerPass.push_back(double(PassInstr));
    Tot.VolPerPass.push_back(double(PassVol));
  }

  R.Headline = medianOf(RunS);
  R.Metrics["setup_s"] = medianOf(SetupS);
  R.Metrics["run_s"] = R.Headline;
  // Each program's median run, combined by geometric mean: a median over
  // the pooled runs of different programs would sit on the edge between
  // two programs' distributions and jump with either one's extremes.
  double LogSum = 0;
  for (const std::vector<double> &Ms : MsByProgram)
    LogSum += std::log(medianOf(Ms));
  R.Metrics["client.verdict_p50_ms"] = std::exp(LogSum / double(Mix.size()));
  R.Metrics["client.verdict_tail_ms"] = quantileOf(ProgramMs, TailQ);
  R.Metrics["process.peak_rss_mb"] = peakRssMb();
  std::printf("%s: %u passes, %zu program runs; verdict tail = p%.0f of %zu "
              "runs\n",
              O.Workload.c_str(), Pass, ProgramMs.size(), TailQ * 100,
              ProgramMs.size());
  if (!Traced)
    return R;

  // Per-layer figures, per mix pass.
  double P = double(Pass);
  BoundaryAgg Acc = Tracer::aggregate(Bnd::Access);
  BoundaryAgg Syn = Tracer::aggregate(Bnd::Sync);
  BoundaryAgg Com = Tracer::aggregate(Bnd::Commit);
  BoundaryAgg Thr = Tracer::aggregate(Bnd::VmThread);
  double DetectorNs = double(Acc.BusyNs + Syn.BusyNs + Com.BusyNs);
  auto &M = R.Metrics;
  M["vm.self_s"] = std::max(0.0, double(Thr.BusyNs) - DetectorNs) / 1e9 / P;
  M["vm.instructions"] = medianOf(Tot.InstrPerPass);
  M["vm.volatile_reads"] = medianOf(Tot.VolPerPass);
  M["goldilocks.access.calls"] = double(Acc.Calls) / P;
  M["goldilocks.access.busy_s"] = double(Acc.BusyNs) / 1e9 / P;
  M["goldilocks.access.p99_ns"] = Acc.Hist.quantile(0.99);
  M["goldilocks.sync.calls"] = double(Syn.Calls) / P;
  M["goldilocks.sync.busy_s"] = double(Syn.BusyNs) / 1e9 / P;
  M["goldilocks.commit.calls"] = double(Com.Calls) / P;
  M["goldilocks.commit.busy_s"] = double(Com.BusyNs) / 1e9 / P;
  M["goldilocks.short_circuit_frac"] =
      Tot.Fast + Tot.Walks ? double(Tot.Fast) / double(Tot.Fast + Tot.Walks)
                           : 1.0;
  M["goldilocks.cells_per_walk"] =
      Tot.Walks ? double(Tot.CellsWalked) / double(Tot.Walks) : 0.0;
  M["goldilocks.append_retries"] = double(Tot.AppendRetries) / P;
  M["goldilocks.grace_waits"] = double(Tot.GraceWaits) / P;
  M["goldilocks.gc_runs"] = double(Tot.GcRuns) / P;
  M["goldilocks.cells_high_water"] = double(Tot.CellsHighWater);
  M["stm.commits"] = double(Tot.TxnCommits) / P;
  M["stm.conflict_retries"] = double(Tot.TxnRetries) / P;
  M["stm.retry_frac"] = Tot.TxnCommits
                            ? double(Tot.TxnRetries) / double(Tot.TxnCommits)
                            : 0.0;
  M["stm.failures"] = double(Tot.TxnFailures);

  // The uninstrumented mix, for the paper's slowdown figure.
  std::vector<double> BareS;
  while (BareS.size() < MinPasses || Elapsed() < Seconds) {
    std::vector<Workload> Ws;
    for (const Maker &Mk : Mix)
      Ws.push_back(Mk());
    std::vector<std::unique_ptr<Vm>> Vms;
    for (const Workload &W : Ws)
      Vms.push_back(std::make_unique<Vm>(W.Prog));
    uint64_t S = Tracer::nowNs();
    for (auto &V : Vms)
      V->run();
    BareS.push_back(double(Tracer::nowNs() - S) / 1e9);
    for (size_t I = 0; I != Vms.size(); ++I) {
      ++R.Attempted;
      std::string Why;
      if (!runIsCorrect(*Vms[I], Ws[I], Why)) {
        ++R.Failed;
        std::fprintf(stderr, "perfbench: bare %s\n", Why.c_str());
      }
    }
  }
  M["vm.bare_s"] = medianOf(BareS);
  return R;
}
