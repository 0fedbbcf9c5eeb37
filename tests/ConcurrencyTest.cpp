//===- tests/ConcurrencyTest.cpp - True multi-threaded engine tests -------===//
///
/// Differential testing of the lock-free engine under real concurrency,
/// built on the shared ticketed harness (tests/DifferentialHarness.h):
/// N OS threads hammer one GoldilocksEngine through the detector interface
/// with idiom mixes in the style of RandomTrace (private data, lock-shared
/// data, volatile publication, deliberate no-sync races, transactions).
/// The observed linearization is replayed post-hoc through the HB oracle
/// and the eager reference algorithm — the three verdict sets (racy
/// variables) must agree on every seeded run.
///
/// Named regressions: an ownership-transfer interleaving (lock handoff must
/// not race, real-time-only handoff must race), a commit-anchor
/// interleaving (GC runs between commitPoint and finishCommit while other
/// threads append — anchor clamping must keep transactional verdicts exact),
/// reallocation under load (rule 8 runs while other threads keep
/// inserting new variables into the same variable index) and a task queue
/// whose walks reuse their thread-pair ownership proofs.
///
//===----------------------------------------------------------------------===//

#include "DifferentialHarness.h"

#include <atomic>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

using namespace gold;
using namespace gold::difftest;

namespace {

//===----------------------------------------------------------------------===//
// Seeded mixed-idiom fuzz runs (workload lives in the harness)
//===----------------------------------------------------------------------===//

TEST(ConcurrencyTest, MixedIdiomsMatchOracleAcrossSeeds) {
  for (unsigned Threads : {2u, 4u, 8u})
    for (uint64_t Seed : {1u, 2u, 3u})
      runMixedWorkload(Threads, Seed);
}

//===----------------------------------------------------------------------===//
// Named regression: ownership transfer
//===----------------------------------------------------------------------===//

// Thread 1 initializes a payload without holding any lock, then hands it to
// thread 2 through a lock-protected slot (the classic ownership-transfer
// idiom Goldilocks handles and pure lockset detectors like Eraser flag).
// A second payload is handed over with *real-time ordering only* (a raw
// atomic flag the detector never sees) — that one must race: real-time
// order without a synchronization action is not happens-before.
TEST(ConcurrencyTest, OwnershipTransferHandoff) {
  constexpr ObjectId XObj = 10;   // correctly transferred payload
  constexpr ObjectId YObj = 11;   // real-time-only "transfer" (races)
  constexpr ObjectId Lock = 12;
  constexpr ObjectId SlotObj = 13;

  Harness H((EngineConfig()));
  std::vector<Recorder> Recs(3);
  Recorder &Main = Recs[0];

  std::mutex M;
  bool SlotSet = false; // guarded by M
  std::atomic<bool> BrokenFlag{false};

  H.alloc(Main, 0, XObj, 1);
  H.alloc(Main, 0, YObj, 1);
  H.alloc(Main, 0, Lock, 1);
  H.alloc(Main, 0, SlotObj, 1);

  auto Producer = [&] {
    Recorder &R = Recs[1];
    H.write(R, 1, VarId{XObj, 0}); // init outside any lock
    {
      std::lock_guard<std::mutex> G(M);
      H.acq(R, 1, Lock);
      H.write(R, 1, VarId{SlotObj, 0}); // publish the handle
      SlotSet = true;
      H.rel(R, 1, Lock);
    }
    H.write(R, 1, VarId{YObj, 0});
    BrokenFlag.store(true, std::memory_order_release);
    H.terminate(R, 1);
  };

  auto Consumer = [&] {
    Recorder &R = Recs[2];
    bool Got = false;
    while (!Got) {
      {
        std::lock_guard<std::mutex> G(M);
        H.acq(R, 2, Lock);
        H.read(R, 2, VarId{SlotObj, 0});
        Got = SlotSet;
        H.rel(R, 2, Lock);
      }
      if (!Got)
        std::this_thread::yield();
    }
    // Ordered after the producer's init through the lock handoff chain.
    H.read(R, 2, VarId{XObj, 0});
    // Really-after but with no synchronization action in between: a race.
    while (!BrokenFlag.load(std::memory_order_acquire))
      std::this_thread::yield();
    H.read(R, 2, VarId{YObj, 0});
    H.terminate(R, 2);
  };

  H.fork(Main, 0, 1);
  std::thread T1(Producer);
  H.fork(Main, 0, 2);
  std::thread T2(Consumer);
  T1.join();
  H.join(Main, 0, 1);
  T2.join();
  H.join(Main, 0, 2);
  H.terminate(Main, 0);

  Trace Observed = mergeTrace(Recs);
  std::set<VarId> Expected{VarId{YObj, 0}};
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, oracleVarSet(Observed));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, engineVerdicts(Recs));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, referenceVarSet(Observed));
  checkEngineConsistency(H.Det.engine());
}

//===----------------------------------------------------------------------===//
// Named regression: commit anchors under concurrent GC
//===----------------------------------------------------------------------===//

// Two committers run two-phase commits (commitPoint under a real mutex so
// conflicting commits enter the synchronization order in serialization
// order, finishCommit outside it), while a plain writer races one of the
// committed variables and a noise thread appends enough synchronization to
// keep threshold-GC running. The collector's advance boundary must clamp at
// pending commit anchors: if it ever advanced an Info past one, the
// finish-phase checks would replay the commit's own rule-9 reset and
// silently bless the race on TXN.f0.
TEST(ConcurrencyTest, CommitAnchorsSurviveConcurrentGc) {
  constexpr ObjectId TxnObj = 20; // f0 raced by the plain writer
  constexpr ObjectId NoiseLock = 21;
  constexpr ObjectId NoisePriv = 22;
  constexpr ObjectId CommitterPriv = 23; // +committer id

  EngineConfig C;
  C.GcThreshold = 64; // force frequent collection during commit windows
  Harness H(C);
  std::vector<Recorder> Recs(5);
  Recorder &Main = Recs[0];

  std::mutex CM; // real serialization of commit points

  H.alloc(Main, 0, TxnObj, 4);
  H.alloc(Main, 0, NoiseLock, 1);
  H.alloc(Main, 0, NoisePriv, 4);
  H.alloc(Main, 0, CommitterPriv + 1, 2);
  H.alloc(Main, 0, CommitterPriv + 2, 2);

  auto Committer = [&](ThreadId Tid) {
    Recorder &R = Recs[Tid];
    Random Rng(40 + Tid);
    for (unsigned I = 0; I != 50; ++I) {
      CommitSets CS;
      CS.Reads.push_back(VarId{TxnObj, 1});
      if (Rng.chance(1, 2))
        CS.Reads.push_back(VarId{TxnObj, 2});
      CS.Writes.push_back(VarId{TxnObj, 0});
      if (Rng.chance(1, 2))
        CS.Writes.push_back(VarId{TxnObj, 3});
      {
        std::lock_guard<std::mutex> G(CM);
        H.commitPoint(R, Tid, CS);
      }
      // Window between point and finish: other threads append events and
      // trigger GC here; the pending anchor must pin the walk window.
      H.write(R, Tid, VarId{CommitterPriv + Tid, 0});
      H.read(R, Tid, VarId{CommitterPriv + Tid, 1});
      H.commitFinish(R, Tid, CS);
    }
    H.terminate(R, Tid);
  };

  auto PlainWriter = [&] {
    Recorder &R = Recs[3];
    for (unsigned I = 0; I != 150; ++I) {
      H.write(R, 3, VarId{TxnObj, 0}); // rule 2: plain write vs commit
      H.read(R, 3, VarId{NoisePriv, 3});
    }
    H.terminate(R, 3);
  };

  auto Noise = [&] {
    Recorder &R = Recs[4];
    std::mutex Local;
    for (unsigned I = 0; I != 300; ++I) {
      std::lock_guard<std::mutex> G(Local);
      H.acq(R, 4, NoiseLock);
      H.write(R, 4, VarId{NoisePriv, 0});
      H.rel(R, 4, NoiseLock);
    }
    H.terminate(R, 4);
  };

  std::vector<std::thread> Threads;
  Threads.reserve(4);
  H.fork(Main, 0, 1);
  Threads.emplace_back(Committer, 1);
  H.fork(Main, 0, 2);
  Threads.emplace_back(Committer, 2);
  H.fork(Main, 0, 3);
  Threads.emplace_back(PlainWriter);
  H.fork(Main, 0, 4);
  Threads.emplace_back(Noise);
  for (unsigned I = 0; I != Threads.size(); ++I) {
    Threads[I].join();
    H.join(Main, 0, static_cast<ThreadId>(I + 1));
  }
  H.terminate(Main, 0);

  Trace Observed = mergeTrace(Recs);
  // Only f0 races (plain write vs transactional). f1..f3 are touched by
  // commits alone, and transactional pairs never race; the noise data is
  // lock-protected or private.
  std::set<VarId> Expected{VarId{TxnObj, 0}};
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, oracleVarSet(Observed));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, engineVerdicts(Recs));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, referenceVarSet(Observed));

  GoldilocksEngine &E = H.Det.engine();
  EngineStats St = E.stats();
  EXPECT_GT(St.GcRuns, 0u) << "workload never exercised GC";
  EXPECT_EQ(E.health().DegradationLevel, 0u) << "no caps were set";
  checkEngineConsistency(E);
}

//===----------------------------------------------------------------------===//
// Named regression: reallocation under load
//===----------------------------------------------------------------------===//

// Workers keep creating and accessing fresh fields of shared objects while
// main reallocates a quarter of the objects at a time, mid-run. There are
// more objects than the engine has index shards, so alloc runs
// concurrently with index inserts into its own shard, and into its own
// object's variable list. Besides the fresh fields, each object has:
//  - f0, written only by the object's owner for its current allocation
//    (the owner rotates on every alloc): it races exactly when an alloc
//    failed to make it fresh;
//  - f1, written under the object's own modeled lock: never racy;
//  - f2, accessed by anyone with no synchronization: racy between allocs
//    unless the schedule happens to order the accesses through f1's locks.
//
// A fresh field is touched by one worker only, so its verdict (no race) is
// the same whichever side of an alloc its accesses land on, and workers
// access it with no real lock at all. For f0..f2 the side does matter:
// there a per-object shared_mutex (not modeled) orders each access's ticket
// and engine call against the alloc's, so the logged linearization applies
// every alloc where the engine did.
TEST(ConcurrencyTest, ReallocationUnderLoadMatchesOracle) {
  constexpr unsigned NumWorkers = 4;
  constexpr ObjectId NumObjects = 96;
  constexpr ObjectId ObjBase = 300;
  constexpr ObjectId LockBase = 500;
  constexpr FieldId FirstFresh = 3;
  constexpr unsigned Steps = 600;
  constexpr unsigned Rounds = 8;

  for (uint64_t Seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << Seed);
    Harness H((EngineConfig()));
    std::vector<Recorder> Recs(NumWorkers + 1);
    Recorder &Main = Recs[0];
    std::vector<std::shared_mutex> ObjMu(NumObjects);
    std::vector<unsigned> Allocs(NumObjects, 0); // guarded by ObjMu[I]
    std::vector<std::mutex> LockMu(NumObjects);
    std::atomic<unsigned> Progress{0};

    for (ObjectId I = 0; I != NumObjects; ++I) {
      H.alloc(Main, 0, ObjBase + I, FirstFresh);
      H.alloc(Main, 0, LockBase + I, 1);
    }

    auto Worker = [&](ThreadId Tid) {
      Recorder &R = Recs[Tid];
      Random Rng(Seed * 104729 + Tid);
      for (unsigned Step = 0; Step != Steps; ++Step) {
        ObjectId I = static_cast<ObjectId>(Rng.nextBelow(NumObjects));
        ObjectId O = ObjBase + I;
        switch (Rng.nextBelow(8)) {
        default: { // a fresh field of a shared object, this worker's alone
          VarId V{O, FirstFresh + Tid * Steps + Step};
          H.write(R, Tid, V);
          H.read(R, Tid, V);
          break;
        }
        case 4:
        case 5: { // f0: the current allocation's owner only
          std::shared_lock<std::shared_mutex> G(ObjMu[I]);
          if ((I + Allocs[I]) % NumWorkers == Tid - 1)
            H.write(R, Tid, VarId{O, 0});
          break;
        }
        case 6: { // f1 under the object's modeled lock
          std::shared_lock<std::shared_mutex> G(ObjMu[I]);
          std::lock_guard<std::mutex> L(LockMu[I]);
          H.acq(R, Tid, LockBase + I);
          H.write(R, Tid, VarId{O, 1});
          H.rel(R, Tid, LockBase + I);
          break;
        }
        case 7: { // f2 under nothing
          std::shared_lock<std::shared_mutex> G(ObjMu[I]);
          if (Rng.chance(1, 2))
            H.write(R, Tid, VarId{O, 2});
          else
            H.read(R, Tid, VarId{O, 2});
          break;
        }
        }
        Progress.fetch_add(1, std::memory_order_relaxed);
      }
      H.terminate(R, Tid);
    };

    std::vector<std::thread> Threads;
    for (ThreadId T = 1; T <= NumWorkers; ++T) {
      H.fork(Main, 0, T);
      Threads.emplace_back(Worker, T);
    }
    // Round r (from 0) reallocates the objects with I % 4 == r % 4 once the
    // workers are (r+1)/(Rounds+1) of the way through: every object twice.
    for (unsigned Round = 0; Round != Rounds; ++Round) {
      unsigned Due = (Round + 1) * NumWorkers * Steps / (Rounds + 1);
      while (Progress.load(std::memory_order_relaxed) < Due)
        std::this_thread::yield();
      for (ObjectId I = Round % 4; I < NumObjects; I += 4) {
        std::unique_lock<std::shared_mutex> G(ObjMu[I]);
        H.alloc(Main, 0, ObjBase + I, FirstFresh);
        ++Allocs[I];
      }
    }
    for (ThreadId T = 1; T <= NumWorkers; ++T) {
      Threads[T - 1].join();
      H.join(Main, 0, T);
    }
    H.terminate(Main, 0);

    Trace Observed = mergeTrace(Recs);
    std::set<VarId> Oracle = oracleVarSet(Observed);
    for (VarId V : Oracle)
      EXPECT_EQ(V.Field, 2u) << V.str();
    EXPECT_PRED_FORMAT2(sameVerdicts, Oracle, engineVerdicts(Recs));
    EXPECT_PRED_FORMAT2(sameVerdicts, Oracle, referenceVarSet(Observed));
    checkEngineConsistency(H.Det.engine());
  }
}

//===----------------------------------------------------------------------===//
// Named regression: a task queue that reuses walk proofs
//===----------------------------------------------------------------------===//

// A hedc-shaped task queue on real threads. The producer writes each task's
// payload unlocked and enqueues it under lock Q. Once every task is queued,
// it writes the last payload again, which races with whichever consumer
// reads it. Two consumers then dequeue under Q, read the payload and write
// a result; main joins everyone and reads every result. Each consumer's
// payload walks after its first reuse the proof its first walk left in its
// thread-pair walk memo (DESIGN.md §6.3), and main's result walks reuse
// theirs, all while the other consumer appends to the same list.
TEST(ConcurrencyTest, TaskQueueReusesWalkProofsAndMatchesOracle) {
  constexpr unsigned NumTasks = 64;
  constexpr ObjectId Q = 10;
  constexpr ObjectId TaskBase = 100;
  constexpr ObjectId ResultBase = 1000;

  Harness H((EngineConfig()));
  std::vector<Recorder> Recs(4);
  Recorder &Main = Recs[0];
  std::mutex M;
  unsigned Queued = 0, Taken = 0; // guarded by M
  std::atomic<bool> AllQueued{false};

  auto Producer = [&] {
    Recorder &R = Recs[1];
    for (unsigned I = 0; I != NumTasks; ++I) {
      H.write(R, 1, VarId{TaskBase + I, 0});
      std::lock_guard<std::mutex> G(M);
      H.acq(R, 1, Q);
      H.write(R, 1, VarId{Q, 0});
      ++Queued;
      H.rel(R, 1, Q);
    }
    H.write(R, 1, VarId{TaskBase + NumTasks - 1, 0});
    AllQueued.store(true, std::memory_order_release);
    H.terminate(R, 1);
  };
  auto Consumer = [&](ThreadId Tid) {
    Recorder &R = Recs[Tid];
    while (!AllQueued.load(std::memory_order_acquire))
      std::this_thread::yield();
    while (true) {
      unsigned Task;
      {
        std::lock_guard<std::mutex> G(M);
        H.acq(R, Tid, Q);
        H.write(R, Tid, VarId{Q, 0});
        Task = Taken < Queued ? Taken++ : NumTasks;
        H.rel(R, Tid, Q);
      }
      if (Task == NumTasks)
        break;
      H.read(R, Tid, VarId{TaskBase + Task, 0});
      H.write(R, Tid, VarId{ResultBase + Task, 0});
    }
    H.terminate(R, Tid);
  };

  std::vector<std::thread> Threads;
  H.fork(Main, 0, 1);
  Threads.emplace_back(Producer);
  for (ThreadId T = 2; T <= 3; ++T) {
    H.fork(Main, 0, T);
    Threads.emplace_back(Consumer, T);
  }
  for (ThreadId T = 1; T <= 3; ++T) {
    Threads[T - 1].join();
    H.join(Main, 0, T);
  }
  for (unsigned I = 0; I != NumTasks; ++I)
    H.read(Main, 0, VarId{ResultBase + I, 0});
  H.terminate(Main, 0);

  Trace Observed = mergeTrace(Recs);
  std::set<VarId> Expected{VarId{TaskBase + NumTasks - 1, 0}};
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, oracleVarSet(Observed));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, engineVerdicts(Recs));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, referenceVarSet(Observed));
  EXPECT_GT(H.Det.engine().stats().WalkMemoHits, 0u);
  checkEngineConsistency(H.Det.engine());
}

} // namespace
