//===- tests/EngineTest.cpp - optimized engine tests ----------------------===//

#include "DifferentialHarness.h"
#include "detectors/GoldilocksDetectors.h"
#include "event/PaperTraces.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

using namespace gold;

TEST(EngineTest, PaperTracesVerdictsMatchReference) {
  auto Check = [](const Trace &T, const char *Name) {
    GoldilocksDetector Engine;
    GoldilocksReferenceDetector Ref;
    auto ER = Engine.runTrace(T);
    auto RR = Ref.runTrace(T);
    ASSERT_EQ(ER.size(), RR.size()) << Name;
    for (size_t I = 0; I != ER.size(); ++I) {
      EXPECT_EQ(ER[I].Var, RR[I].Var) << Name;
      EXPECT_EQ(ER[I].Thread, RR[I].Thread) << Name;
      EXPECT_EQ(ER[I].IsWrite, RR[I].IsWrite) << Name;
    }
  };
  Check(paperExample2Trace(), "example2");
  Check(paperExample3Trace(), "example3");
  Check(paperExample4Trace(false), "example4/withdraw-first");
  Check(paperExample4Trace(true), "example4/txn-first");
  Check(idiomVolatileFlagTrace(), "volatile-flag");
  Check(idiomForkJoinTrace(), "fork-join");
  Check(idiomBarrierTrace(), "barrier");
  Check(idiomUnsyncRacyTrace(), "unsync-racy");
  Check(idiomIndirectHandoffTrace(), "indirect-handoff");
}

TEST(EngineTest, Example2IsRaceFree) {
  GoldilocksDetector D;
  EXPECT_TRUE(D.runTrace(paperExample2Trace()).empty());
}

TEST(EngineTest, Example3IsRaceFree) {
  GoldilocksDetector D;
  EXPECT_TRUE(D.runTrace(paperExample3Trace()).empty());
}

TEST(EngineTest, Example4RacesOnCheckingBal) {
  for (bool TxnFirst : {false, true}) {
    GoldilocksDetector D;
    auto Races = D.runTrace(paperExample4Trace(TxnFirst));
    ASSERT_EQ(Races.size(), 1u);
    EXPECT_EQ(Races[0].Var, (VarId{1, 0}));
  }
}

TEST(EngineTest, SameThreadShortCircuitFires) {
  GoldilocksDetector D;
  TraceBuilder B;
  for (int I = 0; I != 10; ++I)
    B.write(1, 1, 0);
  EXPECT_TRUE(D.runTrace(B.take()).empty());
  EngineStats S = D.engine().stats();
  EXPECT_EQ(S.Sc2SameThread, 9u); // every re-access after the first
  EXPECT_EQ(S.FullWalks, 0u);
}

TEST(EngineTest, ALockShortCircuitFires) {
  GoldilocksDetector D;
  TraceBuilder B;
  B.acq(1, 9).write(1, 1, 0).rel(1, 9);
  B.acq(2, 9).write(2, 1, 0).rel(2, 9);
  EXPECT_TRUE(D.runTrace(B.take()).empty());
  EngineStats S = D.engine().stats();
  EXPECT_EQ(S.Sc3ALock, 1u);
  EXPECT_EQ(S.FullWalks, 0u);
}

TEST(EngineTest, XactShortCircuitFires) {
  GoldilocksDetector D;
  VarId X{1, 0};
  TraceBuilder B;
  B.commit(1, {}, {X});
  B.commit(2, {X}, {});
  EXPECT_TRUE(D.runTrace(B.take()).empty());
  EXPECT_GE(D.engine().stats().Sc1Xact, 1u);
}

TEST(EngineTest, FilteredWalkHandlesDirectHandoff) {
  EngineConfig C;
  C.EnableALockShortCircuit = false; // force the walk path
  GoldilocksDetector D(C);
  TraceBuilder B;
  B.acq(1, 9).write(1, 1, 0).rel(1, 9);
  B.acq(2, 9).write(2, 1, 0).rel(2, 9);
  EXPECT_TRUE(D.runTrace(B.take()).empty());
  EngineStats S = D.engine().stats();
  EXPECT_EQ(S.FilteredWalks, 1u);
  EXPECT_EQ(S.FullWalks, 0u);
}

TEST(EngineTest, IndirectHandoffNeedsFullWalk) {
  GoldilocksDetector D;
  EXPECT_TRUE(D.runTrace(idiomIndirectHandoffTrace()).empty());
  EngineStats S = D.engine().stats();
  // Both transfers (T1 -> T3 and T3 -> T1) go through the intermediary
  // T2's lock operations, which the filtered walk cannot see.
  EXPECT_EQ(S.FullWalks, 2u);
}

TEST(EngineTest, ShortCircuitsDisabledStillCorrect) {
  EngineConfig C;
  C.EnableXactShortCircuit = false;
  C.EnableSameThreadShortCircuit = false;
  C.EnableALockShortCircuit = false;
  C.EnableFilteredWalk = false;
  for (const Trace &T : {paperExample2Trace(), paperExample3Trace(),
                         idiomBarrierTrace(), idiomIndirectHandoffTrace()}) {
    GoldilocksDetector D(C);
    EXPECT_TRUE(D.runTrace(T).empty());
  }
  GoldilocksDetector D(C);
  EXPECT_EQ(D.runTrace(idiomUnsyncRacyTrace()).size(), 1u);
}

TEST(EngineTest, EventListGrowsAndGcTrims) {
  EngineConfig C;
  C.GcThreshold = 0; // manual collection only
  GoldilocksDetector D(C);
  TraceBuilder B;
  B.write(1, 1, 0);
  for (int I = 0; I != 100; ++I)
    B.acq(1, 9).rel(1, 9);
  B.write(1, 1, 0); // advances the variable's Info to the list tail
  EXPECT_TRUE(D.runTrace(B.take()).empty());
  size_t Before = D.engine().eventListLength();
  EXPECT_GT(Before, 200u);
  D.engine().collectGarbage();
  // Everything before the last access's position is unreferenced.
  EXPECT_LT(D.engine().eventListLength(), 4u);
}

TEST(EngineTest, AutomaticGcKeepsListBounded) {
  EngineConfig C;
  C.GcThreshold = 64;
  GoldilocksDetector D(C);
  TraceBuilder B;
  B.write(1, 1, 0);
  for (int I = 0; I != 4000; ++I)
    B.acq(1, 9).rel(1, 9);
  B.write(2, 1, 0); // T2 never synchronized with T1: a race
  auto Races = D.runTrace(B.take());
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_LT(D.engine().eventListLength(), 128u);
  EXPECT_GT(D.engine().stats().GcRuns, 0u);
}

TEST(EngineTest, PartiallyEagerEvaluationPreservesVerdicts) {
  // A variable accessed early and then never again anchors the list head;
  // partially-eager evaluation must advance it without changing verdicts.
  EngineConfig Small;
  Small.GcThreshold = 32;
  GoldilocksDetector D(Small);
  GoldilocksReferenceDetector Ref;
  TraceBuilder B;
  B.acq(1, 8).write(1, 1, 0).rel(1, 8); // early access, never repeated...
  for (int I = 0; I != 500; ++I)
    B.acq(2, 9).write(2, 2, 0).rel(2, 9);
  // ... until now: T3 acquires lock 8, so ownership of o1.f0 transfers
  // properly across the long (and by now partially trimmed) window.
  B.acq(3, 8).write(3, 1, 0).rel(3, 8);
  Trace T = B.take();
  auto ER = D.runTrace(T);
  auto RR = Ref.runTrace(T);
  ASSERT_EQ(ER.size(), RR.size());
  EXPECT_TRUE(ER.empty()); // lock 8 protects both accesses
  EXPECT_GT(D.engine().stats().EagerAdvances, 0u);
  EXPECT_GT(D.engine().stats().GcRuns, 0u);
}

TEST(EngineTest, PartiallyEagerEvaluationStillCatchesRaces) {
  EngineConfig Small;
  Small.GcThreshold = 32;
  GoldilocksDetector D(Small);
  TraceBuilder B;
  B.write(1, 1, 0); // unprotected early write
  for (int I = 0; I != 500; ++I)
    B.acq(2, 9).write(2, 2, 0).rel(2, 9);
  B.write(3, 1, 0); // races with T1's write across the trimmed window
  auto Races = D.runTrace(B.take());
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Var, (VarId{1, 0}));
}

TEST(EngineTest, AllocResetsVariableState) {
  GoldilocksDetector D;
  TraceBuilder B;
  B.write(1, 1, 0).alloc(2, 1, 1).write(2, 1, 0);
  EXPECT_TRUE(D.runTrace(B.take()).empty());
}

// Rule 8 over many objects: more objects than the engine has index shards,
// all sharing field ids 0..3, plus one object with hundreds of fields.
// alloc must make exactly the reallocated objects' variables fresh (and
// re-enable one that was disabled after its race), while every other
// object's same-numbered fields keep their state and still report.
TEST(EngineTest, AllocResetsExactlyTheReallocatedObjects) {
  constexpr ObjectId NumSmall = 100;
  constexpr FieldId SmallFields = 4;
  constexpr ObjectId Big = 1000;
  constexpr FieldId BigFields = 256;
  std::vector<VarId> All;
  for (ObjectId O = 1; O <= NumSmall; ++O)
    for (FieldId F = 0; F != SmallFields; ++F)
      All.push_back(VarId{O, F});
  for (FieldId F = 0; F != BigFields; ++F)
    All.push_back(VarId{Big, F});
  auto Reallocated = [&](ObjectId O) { return O == Big || O % 3 == 0; };
  const VarId DisabledSmall{3, 0}, DisabledBig{Big, 7};

  auto WriteAll = [&](ThreadId T) {
    TraceBuilder B;
    for (VarId V : All)
      B.write(T, V.Object, V.Field);
    return B.take();
  };
  std::set<VarId> Stale, Fresh;
  for (VarId V : All)
    (Reallocated(V.Object) ? Fresh : Stale).insert(V);

  GoldilocksDetector D;
  GoldilocksReferenceDetector Ref;
  auto Run = [&](const Trace &T) {
    auto ER = D.runTrace(T);
    std::set<VarId> Got = difftest::racyVarSet(ER);
    EXPECT_EQ(Got.size(), ER.size()) << "a variable reported twice";
    EXPECT_PRED_FORMAT2(difftest::sameVerdicts,
                        difftest::racyVarSet(Ref.runTrace(T)), Got);
    return Got;
  };

  // Race on two variables of reallocated objects so both are disabled.
  TraceBuilder Pre;
  for (VarId V : {DisabledSmall, DisabledBig})
    Pre.write(1, V.Object, V.Field).write(2, V.Object, V.Field);
  EXPECT_PRED_FORMAT2(difftest::sameVerdicts,
                      (std::set<VarId>{DisabledSmall, DisabledBig}),
                      Run(Pre.take()));

  // Thread 1 writes everything; thread 3 reallocates the subset; thread 2's
  // unordered writes then race exactly on the objects left alone.
  EXPECT_TRUE(Run(WriteAll(1)).empty());
  TraceBuilder Alloc;
  for (ObjectId O = 1; O <= NumSmall; ++O)
    if (Reallocated(O))
      Alloc.alloc(3, O, SmallFields);
  Alloc.alloc(3, Big, BigFields);
  EXPECT_TRUE(Run(Alloc.take()).empty());
  EXPECT_PRED_FORMAT2(difftest::sameVerdicts, Stale, Run(WriteAll(2)));

  // The reallocated variables, the two disabled ones included, are checked
  // again: thread 4's writes race with thread 2's. The others were disabled
  // by their race above and stay quiet.
  EXPECT_PRED_FORMAT2(difftest::sameVerdicts, Fresh, Run(WriteAll(4)));
}

TEST(EngineTest, EnableVarReenablesChecking) {
  GoldilocksDetector D;
  TraceBuilder B1;
  B1.write(1, 1, 0).write(2, 1, 0);
  EXPECT_EQ(D.runTrace(B1.take()).size(), 1u);
  TraceBuilder B2;
  B2.write(3, 1, 0);
  EXPECT_TRUE(D.runTrace(B2.take()).empty()); // disabled
  D.engine().enableVar(VarId{1, 0});
  TraceBuilder B3;
  B3.write(4, 1, 0).write(5, 1, 0);
  EXPECT_EQ(D.runTrace(B3.take()).size(), 1u);
}

TEST(EngineTest, StatsCountAccessesAndSyncEvents) {
  GoldilocksDetector D;
  TraceBuilder B;
  B.write(1, 1, 0).read(1, 1, 0).acq(1, 9).rel(1, 9);
  B.commit(1, {VarId{1, 1}}, {});
  D.runTrace(B.take());
  EngineStats S = D.engine().stats();
  EXPECT_EQ(S.Accesses, 3u); // write, read, commit's read
  EXPECT_EQ(S.SyncEvents, 3u); // acq, rel, commit
  EXPECT_EQ(S.Commits, 1u);
}

TEST(EngineTest, VolatileReadsWithNoNewWriteAppendNoCell) {
  GoldilocksDetector D;
  TraceBuilder B;
  B.write(1, 1, 0).volWrite(1, 5, 0);
  for (int I = 0; I != 50; ++I)
    B.volRead(2, 5, 0); // a spin: only the first read is recorded
  B.read(2, 1, 0);      // ordered after T1's write through v
  B.write(2, 2, 0);
  B.volWrite(1, 5, 0);
  B.volRead(2, 5, 0);   // a new write: recorded again
  B.read(3, 2, 0);      // T3 never read v: races with T2's write
  auto Races = D.runTrace(B.take());
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Var, (VarId{2, 0}));
  EXPECT_EQ(Races[0].Thread, 3u);
  EXPECT_EQ(D.engine().stats().SyncEvents, 4u); // 2 writes, 2 reads
}

TEST(EngineTest, VolatileReadAfterAnInterveningWriteIsRecorded) {
  // T2's first read of v precedes both T1's write of x and T1's write of
  // v, so only a second recorded read can order T2 after T1.
  GoldilocksDetector D;
  TraceBuilder B;
  B.volRead(2, 5, 0);
  B.write(1, 1, 0).volWrite(1, 5, 0);
  B.volRead(2, 5, 0).read(2, 1, 0);
  EXPECT_TRUE(D.runTrace(B.take()).empty());
  EXPECT_EQ(D.engine().stats().SyncEvents, 3u);
}

TEST(EngineTest, ConcurrentHammeringIsSafeAndSound) {
  // Many real threads hammer the engine: per-thread-private variables plus
  // a properly locked shared variable must stay race-free; an unprotected
  // shared variable must be reported exactly once.
  EngineConfig C;
  C.GcThreshold = 256;
  GoldilocksEngine E(C);
  constexpr int NumThreads = 4, Iters = 3000;
  std::atomic<int> SafeRaces{0}, UnsafeRaces{0};
  std::vector<std::thread> Threads;
  for (int T = 1; T <= NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ThreadId Tid = static_cast<ThreadId>(T);
      VarId Priv{static_cast<ObjectId>(100 + T), 0};
      VarId Shared{50, 0}, Racy{60, 0};
      for (int I = 0; I != Iters; ++I) {
        if (E.onWrite(Tid, Priv))
          SafeRaces++;
        E.onAcquire(Tid, 50);
        if (E.onWrite(Tid, Shared))
          SafeRaces++;
        E.onRelease(Tid, 50);
        if (E.onWrite(Tid, Racy))
          UnsafeRaces++;
      }
    });
  for (auto &Th : Threads)
    Th.join();
  EXPECT_EQ(SafeRaces.load(), 0);
  EXPECT_EQ(UnsafeRaces.load(), 1); // reported once, then disabled
  EXPECT_GT(E.stats().GcRuns, 0u);
}

//===----------------------------------------------------------------------===//
// GC / partially-eager advance invariants (Section 5.4)
//===----------------------------------------------------------------------===//

namespace {

/// Per-step replay of a trace so invariants can be asserted between events.
void replayOne(RaceDetector &D, const Trace &T, const Action &A,
               std::vector<RaceReport> &Out) {
  switch (A.Kind) {
  case ActionKind::Alloc:
    D.onAlloc(A.Thread, A.Var.Object, A.Var.Field);
    break;
  case ActionKind::Read:
    if (auto R = D.onRead(A.Thread, A.Var))
      Out.push_back(*R);
    break;
  case ActionKind::Write:
    if (auto R = D.onWrite(A.Thread, A.Var))
      Out.push_back(*R);
    break;
  case ActionKind::VolatileRead:
    D.onVolatileRead(A.Thread, A.Var);
    break;
  case ActionKind::VolatileWrite:
    D.onVolatileWrite(A.Thread, A.Var);
    break;
  case ActionKind::Acquire:
    D.onAcquire(A.Thread, A.Var.Object);
    break;
  case ActionKind::Release:
    D.onRelease(A.Thread, A.Var.Object);
    break;
  case ActionKind::Fork:
    D.onFork(A.Thread, A.Target);
    break;
  case ActionKind::Join:
    D.onJoin(A.Thread, A.Target);
    break;
  case ActionKind::Commit: {
    auto Races = D.onCommit(A.Thread, T.commitSets(A));
    Out.insert(Out.end(), Races.begin(), Races.end());
    break;
  }
  case ActionKind::Terminate:
    D.onTerminate(A.Thread);
    break;
  }
}

Trace gcStressTrace(uint64_t Seed, unsigned TxnWeight = 1) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 4;
  P.NumObjects = 4;
  P.StepsPerThread = 150;
  P.WAcquire = 5;
  P.WRelease = 5;
  P.WBeginTxn = TxnWeight;
  return generateRandomTrace(P);
}

std::vector<VarId> sortedRacyVars(const std::vector<RaceReport> &Races) {
  std::set<VarId> S;
  for (const RaceReport &R : Races)
    S.insert(R.Var);
  return std::vector<VarId>(S.begin(), S.end());
}

} // namespace

TEST(EngineTest, TinyGcThresholdBoundsListAtEveryStep) {
  for (uint64_t Seed : {3u, 14u, 15u}) {
    Trace T = gcStressTrace(Seed);
    EngineConfig C;
    C.GcThreshold = 32;
    GoldilocksDetector D(C);
    std::vector<RaceReport> Races;
    for (const Action &A : T.Actions) {
      replayOne(D, T, A, Races);
      // One sync event may land before maybeCollect runs, and one GC pass
      // trims only a fraction, but the length can never run away.
      ASSERT_LT(D.engine().eventListLength(), 2 * C.GcThreshold)
          << "seed " << Seed;
    }
    EXPECT_GT(D.engine().stats().GcRuns, 0u) << "GC never engaged";
  }
}

TEST(EngineTest, EagerAdvanceLeavesVerdictsUnchanged) {
  // The same trace replayed under every collection regime — from "never
  // collect" to "collect constantly" — must produce the same race set in
  // the same order as the default engine.
  for (uint64_t Seed : {9u, 26u, 53u}) {
    Trace T = gcStressTrace(Seed);
    GoldilocksDetector Base;
    auto Want = Base.runTrace(T);
    for (size_t Threshold : {size_t(0), size_t(16), size_t(48), size_t(4096)}) {
      EngineConfig C;
      C.GcThreshold = Threshold;
      GoldilocksDetector D(C);
      auto Got = D.runTrace(T);
      ASSERT_EQ(Got.size(), Want.size())
          << "seed " << Seed << " threshold " << Threshold;
      for (size_t I = 0; I != Got.size(); ++I) {
        EXPECT_EQ(Got[I].Var, Want[I].Var) << "seed " << Seed;
        EXPECT_EQ(Got[I].Thread, Want[I].Thread) << "seed " << Seed;
      }
    }
  }
}

TEST(EngineTest, TinyGcThresholdStaysExactOnTxnHeavyTraces) {
  // Commit processing anchors its checks at the commit cell; aggressive
  // collection must never advance a record past a pending anchor, so the
  // verdict stays equal to the oracle even on transaction-heavy traces.
  for (uint64_t Seed : {2u, 21u, 34u}) {
    Trace T = gcStressTrace(Seed, /*TxnWeight=*/4);
    EngineConfig C;
    C.GcThreshold = 16;
    GoldilocksDetector D(C);
    auto Races = D.runTrace(T);
    RaceOracle O(T);
    std::set<VarId> Want(O.racyVars().begin(), O.racyVars().end());
    std::vector<VarId> WantSorted(Want.begin(), Want.end());
    EXPECT_EQ(sortedRacyVars(Races), WantSorted) << "seed " << Seed;
  }
}

TEST(EngineTest, GcHighWaterAndHealthAgree) {
  Trace T = gcStressTrace(6);
  EngineConfig C;
  C.GcThreshold = 32;
  GoldilocksDetector D(C);
  (void)D.runTrace(T);
  EngineHealth H = D.engine().health();
  EXPECT_GE(H.EventListHighWater, H.EventListLength);
  EXPECT_LE(H.EventListLength, D.engine().eventListLength());
  EXPECT_GT(D.engine().stats().GcRuns, 0u);
  // Plain GC is not degradation: the governor ladder must be untouched.
  EXPECT_EQ(H.DegradationLevel, 0u);
  EXPECT_EQ(H.ForcedGcs, 0u);
}

//===----------------------------------------------------------------------===//
// Reused work: the thread-pair walk memo, the per-thread lookup caches and
// net-zero record replacement (DESIGN.md §6.1, §6.3)
//===----------------------------------------------------------------------===//

namespace {

constexpr ObjectId QueueLock = 1;
constexpr ObjectId TaskBase = 100;
constexpr ObjectId ResultBase = 1000;

/// A hedc-shaped task queue: T1 forks worker T2, then writes K task
/// payloads, enqueueing each under lock Q. Only then does T2 dequeue each
/// under Q, read its payload and write a result. T1 joins T2 and reads
/// every result. Every payload read walks from the producer's write to
/// T2's first acquire, past the producer's later acq(Q)/rel(Q) pairs, and
/// every result read walks past T2's later pairs to the join. When
/// \p RewriteLast is set, T1 writes the last payload again after its last
/// release, which races with T2's read of it.
Trace hedcShapedTrace(unsigned K, bool RewriteLast = false) {
  TraceBuilder B;
  B.fork(1, 2);
  for (unsigned I = 0; I != K; ++I) {
    B.write(1, TaskBase + I, 0); // payload, written unlocked
    B.acq(1, QueueLock).write(1, QueueLock, 0).rel(1, QueueLock);
  }
  if (RewriteLast)
    B.write(1, TaskBase + K - 1, 0);
  for (unsigned I = 0; I != K; ++I) {
    B.acq(2, QueueLock).write(2, QueueLock, 0).rel(2, QueueLock);
    B.read(2, TaskBase + I, 0);
    B.write(2, ResultBase + I, 0);
  }
  B.terminate(2);
  B.join(1, 2);
  for (unsigned I = 0; I != K; ++I)
    B.read(1, ResultBase + I, 0);
  return B.take();
}

} // namespace

TEST(EngineTest, HedcShapedWalksReuseTheirOwnershipProofs) {
  // The walks re-apply the same stretch of the other thread's no-op
  // acq(Q)/rel(Q) cells, so without the memo the cells applied grow
  // quadratically in K: without it the engine applies 2,146 cells at
  // K = 32 and 8,386 at K = 64. With it each pair's first walk runs to the
  // ownership cell and every later one stops at its first lockset growth:
  // 6 cells per task.
  auto CellsWalked = [](unsigned K) {
    EngineConfig C;
    C.EnableALockShortCircuit = false; // the queue's own fields walk too
    GoldilocksDetector D(C);
    EXPECT_TRUE(D.runTrace(hedcShapedTrace(K)).empty()) << "K = " << K;
    EngineStats S = D.engine().stats();
    EXPECT_EQ(S.FullWalks, 0u);
    EXPECT_EQ(S.WalkMemoHits, 2u * (K - 1)) << "K = " << K;
    return S.CellsWalked;
  };
  uint64_t At32 = CellsWalked(32);
  uint64_t At64 = CellsWalked(64);
  EXPECT_EQ(At32, 6u * 32);
  EXPECT_EQ(At64, 6u * 64);
}

TEST(EngineTest, WalkMemoNeedsItsLocksetBeforeTheProofCell) {
  // T2's first payload reads leave a proof for T1 at T2's first acquire
  // with L = {T1, Q}. The last payload was written again after T1's last
  // release, so its walk never holds Q: the proof must not apply.
  for (bool DisableVar : {true, false}) {
    EngineConfig C;
    C.DisableVarAfterRace = DisableVar;
    GoldilocksDetector D(C);
    GoldilocksReferenceDetector Ref;
    Trace T = hedcShapedTrace(8, /*RewriteLast=*/true);
    auto Races = D.runTrace(T);
    ASSERT_EQ(Races.size(), 1u);
    EXPECT_EQ(Races[0].Var, (VarId{TaskBase + 7, 0}));
    EXPECT_EQ(Races[0].Thread, 2u);
    EXPECT_EQ(Ref.runTrace(T).size(), 1u);
    EXPECT_GT(D.engine().stats().WalkMemoHits, 0u);
  }
}

TEST(EngineTest, WalkMemoNeedsItsProofCellInsideTheWindow) {
  // T2's commit is placed in the synchronization order before T2 acquires
  // lock 9, so it is not ordered after T1's write of X. Between the two
  // commit phases T2 reads Y through the lock, which leaves a proof for T1
  // at T2's acquire, after the commit's anchor. The commit replay's window
  // ends at the anchor, so the proof must not apply.
  GoldilocksEngine E;
  const VarId X{7, 0}, Y{8, 0};
  E.onWrite(1, Y);
  E.onWrite(1, X);
  E.onAcquire(1, 9);
  E.onRelease(1, 9);
  CommitSets CS;
  CS.Writes = {X};
  E.commitPoint(2, CS);
  E.onAcquire(2, 9);
  EXPECT_FALSE(E.onRead(2, Y).has_value());
  EXPECT_EQ(E.stats().FilteredWalks, 1u);
  auto Races = E.finishCommit(2, CS);
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0].Var, X);
  EXPECT_EQ(E.stats().WalkMemoHits, 0u);
  E.onRelease(2, 9);
}

TEST(EngineTest, EnginesOnOneOsThreadKeepSeparateThreadStates) {
  // In E1, T1 holds lock 9. In E2 it holds nothing, so its read of X,
  // written by T2 under lock 9, races there. Reading E1's T1 state in E2
  // would let the alock short circuit order the pair.
  const VarId X{5, 0}, Z{6, 0};
  GoldilocksEngine E1, E2;
  E1.onAcquire(1, 9);
  EXPECT_FALSE(E1.onWrite(1, Z).has_value());
  E2.onAcquire(2, 9);
  EXPECT_FALSE(E2.onWrite(2, X).has_value());
  E2.onRelease(2, 9);
  EXPECT_FALSE(E1.onRead(1, Z).has_value());
  auto R = E2.onRead(1, X);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->PriorThread, 2u);
  EXPECT_EQ(E2.stats().Sc3ALock, 0u);
  E1.onRelease(1, 9);

  // The per-OS-thread cache is indexed by ThreadId plus engine generation
  // modulo 16, so engines built 16 apart put T1 in the same cache slot.
  // Only the generation in the entry tells them apart there.
  std::vector<std::unique_ptr<GoldilocksEngine>> Es;
  for (int I = 0; I != 17; ++I)
    Es.push_back(std::make_unique<GoldilocksEngine>());
  Es[0]->onAcquire(1, 9); // left held: T1's stack is {9} in Es[0] only
  Es[16]->onAcquire(2, 9);
  EXPECT_FALSE(Es[16]->onWrite(2, X).has_value());
  Es[16]->onRelease(2, 9);
  EXPECT_TRUE(Es[16]->onRead(1, X).has_value());
}

TEST(EngineTest, SameCellRecordReplacementKeepsCountsExact) {
  EngineConfig C;
  C.GcThreshold = 0; // manual collection only
  GoldilocksEngine E(C);
  const VarId X{1, 0};
  // 10^5 replacements at one position: a write leaves one record, a read
  // by the same thread adds its read record, the next write drops it.
  for (int I = 0; I != 100000; ++I) {
    EXPECT_FALSE(E.onWrite(1, X).has_value());
    EXPECT_FALSE(E.onRead(1, X).has_value());
    if (I % 1000 == 999) { // move the position now and then
      E.onAcquire(1, 9);
      E.onRelease(1, 9);
    }
  }
  EXPECT_EQ(E.infoRecordCount(), 2u);
  EXPECT_EQ(E.health().InfoHighWater, 2u);
  EXPECT_FALSE(E.onWrite(1, X).has_value()); // at the tail: drops the read
  EXPECT_EQ(E.infoRecordCount(), 1u);
  EXPECT_EQ(E.eventListLength(), 201u); // the sentinel and 100 acq/rel pairs
  // Every replaced record released its old position: only the tail is
  // still referenced, so a collection frees the whole prefix before it.
  E.collectGarbage();
  EXPECT_EQ(E.eventListLength(), 1u);
  EXPECT_EQ(E.infoRecordCount(), 1u);
}

TEST(EngineTest, AdvancedRecordLifetimeKeepsAccountingExact) {
  // A record advanced by the coarsening rung carries its own lockset until
  // a compact install replaces it or rule 8 drops it; the governor's byte
  // count must charge it exactly that long. Lock 9 chains T1 -> T2 -> T3;
  // T1 never takes it again, so its late write of Z races T2's. X is
  // (7, 0).
  const VarId Z{8, 0};
  auto PhaseA = [](TraceBuilder &B) {
    B.write(1, 7, 0).acq(1, 9).rel(1, 9);
    B.acq(2, 9).read(2, 7, 0).write(2, 8, 0).rel(2, 9);
    B.acq(3, 9).rel(3, 9);
  };
  auto PhaseB1 = [](TraceBuilder &B) { B.acq(2, 9).read(2, 7, 0); };
  auto PhaseB2 = [](TraceBuilder &B) {
    B.rel(2, 9).acq(3, 9).write(3, 7, 0).rel(3, 9);
  };
  auto PhaseC = [](TraceBuilder &B) { B.write(1, 8, 0); };
  auto PhaseD = [](TraceBuilder &B) { B.alloc(3, 7, 1).read(1, 7, 0); };

  EngineConfig C;
  C.GcThreshold = 0; // the ladder is the only collector
  GoldilocksDetector D(C);
  GoldilocksEngine &E = D.engine();
  std::vector<RaceReport> Races;
  auto Run = [&](auto Phase) {
    TraceBuilder B;
    Phase(B);
    auto R = D.runTrace(B.take());
    Races.insert(Races.end(), R.begin(), R.end());
  };

  Run(PhaseA);
  // X: T1's write, T2's read; Z: T2's write. All compact.
  ASSERT_EQ(E.infoRecordCount(), 3u);
  const size_t Compact = E.health().ApproxBytes;

  E.escalateLadder(2); // coarsen every record to the tail
  EXPECT_EQ(E.stats().EagerAdvances, 3u);
  EXPECT_EQ(E.infoRecordCount(), 3u);
  EXPECT_EQ(E.health().ApproxBytes, Compact + 3 * sizeof(Lockset));

  Run(PhaseB1); // T2's advanced read of X is replaced in place
  EXPECT_EQ(E.infoRecordCount(), 3u);
  EXPECT_EQ(E.health().ApproxBytes, Compact + 2 * sizeof(Lockset));
  Run(PhaseB2); // T3's write replaces T1's and drops T2's read
  EXPECT_EQ(E.infoRecordCount(), 2u);
  EXPECT_EQ(E.health().ApproxBytes, Compact + sizeof(Lockset));

  Run(PhaseC); // the race disables Z and drops its advanced record
  EXPECT_EQ(E.infoRecordCount(), 1u);
  EXPECT_EQ(E.health().ApproxBytes, Compact);

  Run(PhaseD); // rule 8 drops X's record; T1's read is then fresh
  EXPECT_EQ(E.infoRecordCount(), 1u);
  EXPECT_EQ(E.health().ApproxBytes, Compact);

  TraceBuilder All;
  for (auto Phase : {+PhaseA, +PhaseB1, +PhaseB2, +PhaseC, +PhaseD})
    Phase(All);
  RaceOracle O(All.take());
  std::set<VarId> Want(O.racyVars().begin(), O.racyVars().end());
  EXPECT_EQ(sortedRacyVars(Races),
            std::vector<VarId>(Want.begin(), Want.end()));
  EXPECT_EQ(sortedRacyVars(Races), std::vector<VarId>{Z});
}
