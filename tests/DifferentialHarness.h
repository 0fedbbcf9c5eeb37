//===- tests/DifferentialHarness.h - shared differential machinery -*- C++ -*-//
///
/// \file
/// The one reusable differential-test harness every cross-detector suite
/// builds on (ChaosTest, ConcurrencyTest, DifferentialTest, EngineTest,
/// RandomTraceTest, and the service suites ServiceTest, NetTest and
/// ShmTest). Three layers:
///
///  * verdict-set helpers — project race reports / oracle output down to the
///    per-variable verdict sets the suites compare, plus a gtest
///    predicate-formatter that renders a per-variable diff (missing vs.
///    invented) instead of gtest's opaque set printout;
///
///  * seeded trace-shape builders — the canonical RandomTraceParams shapes
///    the sweeps share, so "the chaos shape at seed S" means the same trace
///    in every suite that replays it, plus the small client trace the
///    service suites stream line by line;
///
///  * the ticketed concurrency harness — N real OS threads hammer one
///    detector through logged wrappers; every call takes a global ticket
///    while the *real* synchronization ordering it is held, so sorting by
///    ticket yields a legal linearization that can be replayed post-hoc
///    through the HB oracle and the eager reference algorithm.
///
/// Header-only and gtest-dependent by design: it is test machinery, not
/// product code, and each suite instantiates only what it uses.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_TESTS_DIFFERENTIALHARNESS_H
#define GOLD_TESTS_DIFFERENTIALHARNESS_H

#include "detectors/GoldilocksDetectors.h"
#include "event/RandomTrace.h"
#include "event/TraceIO.h"
#include "hb/HbOracle.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace gold {
namespace difftest {

//===----------------------------------------------------------------------===//
// Verdict sets and per-variable diffing
//===----------------------------------------------------------------------===//

/// The per-variable verdict set of a report stream.
inline std::set<VarId> racyVarSet(const std::vector<RaceReport> &Races) {
  std::set<VarId> Out;
  for (const RaceReport &R : Races)
    Out.insert(R.Var);
  return Out;
}

/// Same projection keyed by VarId::key(), for suites (the service tests)
/// that compare across detector instances where VarId itself is awkward.
inline std::set<uint64_t> racyKeySet(const std::vector<RaceReport> &Races) {
  std::set<uint64_t> Out;
  for (const RaceReport &R : Races)
    Out.insert(R.Var.key());
  return Out;
}

/// The HB oracle's racy-variable verdict set for a trace.
inline std::set<VarId>
oracleVarSet(const Trace &T,
             TxnSyncSemantics Sem = TxnSyncSemantics::SharedVariable) {
  RaceOracle O(T, Sem);
  std::set<VarId> Out;
  for (VarId V : O.racyVars())
    Out.insert(V);
  return Out;
}

/// Oracle verdicts keyed by VarId::key().
inline std::set<uint64_t>
oracleKeySet(const Trace &T,
             TxnSyncSemantics Sem = TxnSyncSemantics::SharedVariable) {
  RaceOracle O(T, Sem);
  std::set<uint64_t> Out;
  for (const VarId &V : O.racyVars())
    Out.insert(V.key());
  return Out;
}

/// Oracle verdicts rendered by VarId::str(), for suites that compare against
/// verdicts decoded from the wire.
inline std::set<std::string> oracleVarStrings(const Trace &T) {
  RaceOracle O(T, TxnSyncSemantics::SharedVariable);
  std::set<std::string> Out;
  for (const VarId &V : O.racyVars())
    Out.insert(V.str());
  return Out;
}

/// The eager reference algorithm's verdict set for a trace.
inline std::set<VarId> referenceVarSet(const Trace &T) {
  GoldilocksReferenceDetector Ref;
  return racyVarSet(Ref.runTrace(T));
}

inline std::string describe(const std::set<VarId> &S) {
  std::string Out = "{";
  for (VarId V : S)
    Out += V.str() + " ";
  return Out + "}";
}

/// Renders the per-variable difference between two verdict sets: which
/// variables the candidate missed and which it invented relative to the
/// expected set. Empty string when they agree.
inline std::string verdictDiff(const std::set<VarId> &Expected,
                               const std::set<VarId> &Got) {
  std::set<VarId> Missed, Invented;
  std::set_difference(Expected.begin(), Expected.end(), Got.begin(), Got.end(),
                      std::inserter(Missed, Missed.begin()));
  std::set_difference(Got.begin(), Got.end(), Expected.begin(), Expected.end(),
                      std::inserter(Invented, Invented.begin()));
  if (Missed.empty() && Invented.empty())
    return "";
  std::string Out;
  if (!Missed.empty())
    Out += "missed " + describe(Missed);
  if (!Invented.empty()) {
    if (!Out.empty())
      Out += ", ";
    Out += "invented " + describe(Invented);
  }
  return Out;
}

/// gtest predicate-formatter: EXPECT_PRED_FORMAT2(sameVerdicts, Exp, Got)
/// fails with the per-variable diff instead of two raw set dumps.
inline ::testing::AssertionResult sameVerdicts(const char *ExpectedExpr,
                                               const char *GotExpr,
                                               const std::set<VarId> &Expected,
                                               const std::set<VarId> &Got) {
  std::string Diff = verdictDiff(Expected, Got);
  if (Diff.empty())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << GotExpr << " disagrees with " << ExpectedExpr << ": " << Diff
         << "\n  expected " << describe(Expected) << "\n  got      "
         << describe(Got);
}

//===----------------------------------------------------------------------===//
// Seeded trace-shape builders
//===----------------------------------------------------------------------===//

/// The differential-sweep shape: sparse and dense conflict patterns, heavy
/// and light transaction mixes, all driven off the seed.
inline RandomTraceParams sweepParams(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + static_cast<ThreadId>(Seed % 4);
  P.NumObjects = 2 + static_cast<ObjectId>(Seed % 5);
  P.DataFields = 1 + static_cast<FieldId>(Seed % 3);
  P.StepsPerThread = 30 + static_cast<unsigned>(Seed % 50);
  P.WBeginTxn = static_cast<unsigned>(Seed % 3);
  return P;
}

/// The chaos-sweep shape: adds volatile-field variation and longer runs so
/// fault injection has room to fire.
inline RandomTraceParams chaosParams(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = 0xC0FFEE ^ Seed;
  P.NumThreads = 2 + Seed % 4;
  P.NumObjects = 2 + Seed % 6;
  P.DataFields = 1 + Seed % 3;
  P.VolatileFields = Seed % 2;
  if (P.VolatileFields == 0)
    P.WVolRead = P.WVolWrite = 0;
  P.StepsPerThread = 40 + static_cast<unsigned>(Seed % 80);
  P.WBeginTxn = Seed % 3 ? 1 : 0;
  return P;
}

/// A four-thread client trace of \p Steps steps per thread: the shape the
/// service suites stream.
inline Trace smallRandomTrace(uint64_t Seed, unsigned Steps) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.StepsPerThread = Steps;
  P.NumThreads = 4;
  return generateRandomTrace(P);
}

/// \p T serialized one TraceIO line per action, as a client streams it.
inline std::vector<std::string> traceLines(const Trace &T) {
  std::vector<std::string> Lines;
  std::istringstream In(serializeTrace(T));
  std::string L;
  while (std::getline(In, L))
    if (!L.empty())
      Lines.push_back(L);
  return Lines;
}

//===----------------------------------------------------------------------===//
// Ticketed true-concurrency harness
//===----------------------------------------------------------------------===//

/// One logged engine call. Tick is taken adjacent to the call, under the
/// same real synchronization, so sorting by Tick yields a linearization
/// consistent with the extended happens-before order of the execution.
struct LoggedOp {
  uint64_t Tick = 0;
  Action A;
  CommitSets CS; // payload when A.Kind == Commit
};

inline Action mkAct(ActionKind K, ThreadId T, VarId V = VarId{},
                    ThreadId Target = NoThread) {
  Action A;
  A.Kind = K;
  A.Thread = T;
  A.Var = V;
  A.Target = Target;
  return A;
}

/// Per-worker recording: the op log and the race verdicts the engine
/// returned to this thread. Threads only touch their own recorder.
struct Recorder {
  std::vector<LoggedOp> Log;
  std::vector<VarId> ReportedRacy;

  void note(std::optional<RaceReport> R) {
    if (R)
      ReportedRacy.push_back(R->Var);
  }
  void note(const std::vector<RaceReport> &Rs) {
    for (const RaceReport &R : Rs)
      ReportedRacy.push_back(R.Var);
  }
};

/// Shared test state: the detector under test and the global ticket.
struct Harness {
  explicit Harness(EngineConfig C) : Det(C) {}

  GoldilocksDetector Det;
  std::atomic<uint64_t> Ticket{0};

  uint64_t tick() { return Ticket.fetch_add(1, std::memory_order_relaxed); }

  void log(Recorder &R, Action A) { R.Log.push_back({tick(), A, {}}); }
  void logCommit(Recorder &R, ThreadId T, const CommitSets &CS) {
    LoggedOp Op;
    Op.Tick = tick();
    Op.A = mkAct(ActionKind::Commit, T);
    Op.CS = CS;
    R.Log.push_back(std::move(Op));
  }

  // Logged wrappers over the detector interface. The data-access wrappers
  // note the verdict so the per-thread recorder carries what the engine
  // reported to this thread.
  void alloc(Recorder &R, ThreadId T, ObjectId O, uint32_t Fields) {
    log(R, mkAct(ActionKind::Alloc, T, VarId{O, Fields}));
    Det.onAlloc(T, O, Fields);
  }
  void read(Recorder &R, ThreadId T, VarId V) {
    log(R, mkAct(ActionKind::Read, T, V));
    R.note(Det.onRead(T, V));
  }
  void write(Recorder &R, ThreadId T, VarId V) {
    log(R, mkAct(ActionKind::Write, T, V));
    R.note(Det.onWrite(T, V));
  }
  void volRead(Recorder &R, ThreadId T, VarId V) {
    log(R, mkAct(ActionKind::VolatileRead, T, V));
    Det.onVolatileRead(T, V);
  }
  void volWrite(Recorder &R, ThreadId T, VarId V) {
    log(R, mkAct(ActionKind::VolatileWrite, T, V));
    Det.onVolatileWrite(T, V);
  }
  void acq(Recorder &R, ThreadId T, ObjectId O) {
    log(R, mkAct(ActionKind::Acquire, T, lockVar(O)));
    Det.onAcquire(T, O);
  }
  void rel(Recorder &R, ThreadId T, ObjectId O) {
    log(R, mkAct(ActionKind::Release, T, lockVar(O)));
    Det.onRelease(T, O);
  }
  void fork(Recorder &R, ThreadId T, ThreadId Child) {
    log(R, mkAct(ActionKind::Fork, T, VarId{}, Child));
    Det.onFork(T, Child);
  }
  void join(Recorder &R, ThreadId T, ThreadId Child) {
    log(R, mkAct(ActionKind::Join, T, VarId{}, Child));
    Det.onJoin(T, Child);
  }
  void terminate(Recorder &R, ThreadId T) {
    log(R, mkAct(ActionKind::Terminate, T));
    Det.onTerminate(T);
  }
  void commitPoint(Recorder &R, ThreadId T, const CommitSets &CS) {
    logCommit(R, T, CS);
    Det.onCommitPoint(T, CS);
  }
  void commitFinish(Recorder &R, ThreadId T, const CommitSets &CS) {
    R.note(Det.onCommitFinish(T, CS));
  }
};

/// Merges the per-thread logs into the observed linearization.
inline Trace mergeTrace(std::vector<Recorder> &Recs) {
  std::vector<const LoggedOp *> All;
  for (const Recorder &R : Recs)
    for (const LoggedOp &Op : R.Log)
      All.push_back(&Op);
  std::sort(All.begin(), All.end(), [](const LoggedOp *A, const LoggedOp *B) {
    return A->Tick < B->Tick;
  });
  TraceBuilder B;
  for (const LoggedOp *Op : All) {
    if (Op->A.Kind == ActionKind::Commit)
      B.commit(Op->A.Thread, Op->CS.Reads, Op->CS.Writes);
    else
      B.append(Op->A);
  }
  return B.take();
}

/// The union of per-thread verdicts the live engine handed back.
inline std::set<VarId> engineVerdicts(const std::vector<Recorder> &Recs) {
  std::set<VarId> Out;
  for (const Recorder &R : Recs)
    Out.insert(R.ReportedRacy.begin(), R.ReportedRacy.end());
  return Out;
}

/// Post-run engine accounting invariants (quiescent state).
inline void checkEngineConsistency(GoldilocksEngine &E) {
  EngineStats St = E.stats();
  EngineHealth H = E.health();
  // The sentinel cell plus every allocated-and-not-freed cell is the list.
  EXPECT_EQ(E.eventListLength(), 1 + St.CellsAllocated - St.CellsFreed);
  EXPECT_EQ(H.EventListLength, E.eventListLength());
  EXPECT_GE(H.EventListHighWater, H.EventListLength);
  EXPECT_GE(H.InfoHighWater, H.InfoRecords);
  EXPECT_EQ(H.InfoRecords, E.infoRecordCount());
}

//===----------------------------------------------------------------------===//
// Seeded mixed-idiom true-concurrency workload
//===----------------------------------------------------------------------===//

// Object-id layout for the mixed-workload runs (one detector per run).
constexpr ObjectId PrivBase = 100;    // + thread id, 4 fields, thread-private
constexpr ObjectId OwnLockBase = 200; // + thread id, per-thread lock object
constexpr ObjectId PairLockBase = 250; // + pair, lock shared by a pair
constexpr ObjectId SharedBase = 300;  // + pair, data guarded by the pair lock
constexpr ObjectId RacyObj = 400;     // field p: pair p's deliberate race
constexpr ObjectId VolObj = 500;      // field p: pair p's volatile flag
constexpr ObjectId PubObj = 600;      // field p: pair p's published payload

/// Runs NumThreads real OS workers over the mixed idiom workload (private
/// data, lock-shared data, volatile publication, deliberate no-sync races)
/// and cross-checks the engine's verdicts against the HB oracle and the
/// reference algorithm. The workload is verdict-stable by construction:
/// every variable is race-free under every legal interleaving or racy under
/// every legal interleaving, so scheduling may vary freely. A small GC
/// threshold keeps collection and epoch reclamation in play.
inline void runMixedWorkload(unsigned NumThreads, uint64_t Seed) {
  SCOPED_TRACE(testing::Message()
               << "threads=" << NumThreads << " seed=" << Seed);
  EngineConfig C;
  C.GcThreshold = 256;
  Harness H(C);
  std::vector<Recorder> Recs(NumThreads + 1);
  Recorder &Main = Recs[0];

  unsigned NumPairs = NumThreads / 2;
  // Real synchronization backing the harness protocols.
  std::vector<std::mutex> OwnLocks(NumThreads + 1);
  std::vector<std::mutex> PairLocks(NumPairs + 1);
  // One publish flag per pair: 0 = unpublished, 1 = published.
  std::vector<std::atomic<int>> Published(NumPairs + 1);
  for (auto &P : Published)
    P.store(0, std::memory_order_relaxed);

  // Main allocates every object up front, then forks the workers.
  for (unsigned I = 1; I <= NumThreads; ++I) {
    H.alloc(Main, 0, PrivBase + I, 4);
    H.alloc(Main, 0, OwnLockBase + I, 1);
  }
  for (unsigned P = 0; P != NumPairs; ++P) {
    H.alloc(Main, 0, PairLockBase + P, 1);
    H.alloc(Main, 0, SharedBase + P, 4);
  }
  H.alloc(Main, 0, RacyObj, NumPairs ? NumPairs : 1);
  H.alloc(Main, 0, VolObj, NumPairs ? NumPairs : 1);
  H.alloc(Main, 0, PubObj, NumPairs ? NumPairs : 1);

  // Even pairs race on RacyObj.f(pair); odd pairs publish through a
  // volatile and share data under their pair lock.
  std::set<VarId> Expected;
  for (unsigned P = 0; P < NumPairs; P += 2)
    Expected.insert(VarId{RacyObj, P});

  auto Worker = [&](ThreadId Tid) {
    Recorder &R = Recs[Tid];
    Random Rng(Seed * 7919 + Tid);
    unsigned Pair = (Tid - 1) / 2;
    bool HasPair = Pair < NumPairs;
    bool RacyPair = HasPair && (Pair % 2 == 0);
    bool PubPair = HasPair && (Pair % 2 == 1);
    bool Lower = (Tid % 2) == 1; // first thread of its pair
    VarId Priv{PrivBase + Tid, 0};
    bool PublishedMine = false;

    for (unsigned Step = 0; Step != 120; ++Step) {
      switch (Rng.nextBelow(10)) {
      default: { // private data, no synchronization needed
        VarId V{PrivBase + Tid, static_cast<FieldId>(Rng.nextBelow(4))};
        if (Rng.chance(1, 3))
          H.write(R, Tid, V);
        else
          H.read(R, Tid, V);
        break;
      }
      case 7: { // critical section on the thread's own lock
        ObjectId L = OwnLockBase + Tid;
        std::lock_guard<std::mutex> G(OwnLocks[Tid]);
        H.acq(R, Tid, L);
        H.write(R, Tid, Priv);
        H.read(R, Tid, Priv);
        H.rel(R, Tid, L);
        break;
      }
      case 8: { // pair-shared data under the pair lock (race-free)
        if (!PubPair)
          break;
        ObjectId L = PairLockBase + Pair;
        VarId V{SharedBase + Pair, static_cast<FieldId>(Rng.nextBelow(4))};
        std::lock_guard<std::mutex> G(PairLocks[Pair]);
        H.acq(R, Tid, L);
        if (Rng.chance(1, 2))
          H.write(R, Tid, V);
        else
          H.read(R, Tid, V);
        H.rel(R, Tid, L);
        break;
      }
      case 9: { // deliberate no-sync conflict (racy in every schedule)
        if (!RacyPair)
          break;
        VarId V{RacyObj, Pair};
        if (Lower || Rng.chance(1, 2))
          H.write(R, Tid, V);
        else
          H.read(R, Tid, V);
        break;
      }
      }
      // Volatile publication: the lower thread publishes once mid-run; the
      // upper thread consumes once the real flag says the payload (and its
      // volatile-write event) exists.
      if (PubPair && Lower && !PublishedMine && Step > 40) {
        H.write(R, Tid, VarId{PubObj, Pair});
        H.volWrite(R, Tid, VarId{VolObj, Pair});
        Published[Pair].store(1, std::memory_order_release);
        PublishedMine = true;
      }
      if (PubPair && !Lower && Step == 100) {
        while (Published[Pair].load(std::memory_order_acquire) == 0)
          std::this_thread::yield();
        H.volRead(R, Tid, VarId{VolObj, Pair});
        H.read(R, Tid, VarId{PubObj, Pair});
      }
    }
    // Guarantee the conflict for racy pairs even if the random mix never
    // rolled case 9: one unsynchronized write from the lower thread, one
    // unsynchronized read from the upper — unordered in every schedule.
    if (RacyPair) {
      if (Lower)
        H.write(R, Tid, VarId{RacyObj, Pair});
      else
        H.read(R, Tid, VarId{RacyObj, Pair});
    }
    H.terminate(R, Tid);
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 1; I <= NumThreads; ++I) {
    H.fork(Main, 0, I);
    Threads.emplace_back(Worker, static_cast<ThreadId>(I));
  }
  for (unsigned I = 1; I <= NumThreads; ++I) {
    Threads[I - 1].join();
    H.join(Main, 0, I);
  }
  H.terminate(Main, 0);

  Trace Observed = mergeTrace(Recs);
  std::set<VarId> Engine = engineVerdicts(Recs);
  std::set<VarId> Oracle = oracleVarSet(Observed);
  std::set<VarId> Reference = referenceVarSet(Observed);

  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, Oracle)
      << "oracle disagrees with construction";
  EXPECT_PRED_FORMAT2(sameVerdicts, Oracle, Engine)
      << "engine disagrees with the HB oracle";
  EXPECT_PRED_FORMAT2(sameVerdicts, Oracle, Reference)
      << "reference disagrees with the HB oracle";
  checkEngineConsistency(H.Det.engine());
}

} // namespace difftest
} // namespace gold

#endif // GOLD_TESTS_DIFFERENTIALHARNESS_H
