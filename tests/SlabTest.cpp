//===- tests/SlabTest.cpp - Slab allocator + recycling differential -------===//
///
/// The slab arena (src/support/Slab.h) and its integration with the engine
/// are load-bearing for memory safety: retired sync-event cells are
/// *recycled* through epoch/quarantine reclamation instead of returned to
/// the heap, so a lifetime bug shows up as a wrong verdict or a sanitizer
/// report rather than a crash. This suite attacks that from three sides:
///
///  * direct unit tests of SlabArena (alignment, recycling, page-granular
///    byte accounting, the pooled/passthrough split, cross-thread reuse
///    through the global free list, magazine survival across arena death);
///
///  * a single-process differential sweep: seeded random traces replayed
///    under both slab configurations (pooled, passthrough) with a
///    tiny GC threshold, so cells are freed and recycled hundreds of times
///    per run — every configuration must report exactly the reference
///    detector's verdicts and keep the cell accounting identity;
///
///  * a true multi-threaded stress with parked readers: EngineReaderPark /
///    EngineRetainStall failpoints hold epoch read sections open past a
///    short grace deadline, forcing retired chains through the quarantine
///    while other threads keep allocating from the same slab. A cell that
///    was recycled while a timed-out reader could still hold it is exactly
///    what ASan's poisoning of freed slots catches here; verdicts are
///    cross-checked against the reference algorithm on the observed
///    linearization.
///
//===----------------------------------------------------------------------===//

#include "detectors/GoldilocksDetectors.h"
#include "event/RandomTrace.h"
#include "support/Failpoints.h"
#include "support/Slab.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace gold;

namespace {

std::set<VarId> racyVarSet(const std::vector<RaceReport> &Races) {
  std::set<VarId> Out;
  for (const RaceReport &R : Races)
    Out.insert(R.Var);
  return Out;
}

//===----------------------------------------------------------------------===//
// SlabArena unit tests
//===----------------------------------------------------------------------===//

TEST(SlabArenaTest, SlotsAreCacheLineAlignedAndRounded) {
  SlabArena A(/*ObjectBytes=*/24);
  EXPECT_EQ(A.slotBytes() % 64, 0u);
  EXPECT_GE(A.slotBytes(), 24u);
  void *P = A.allocate();
  void *Q = A.allocate();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Q) % 64, 0u);
  A.deallocate(P);
  A.deallocate(Q);
}

TEST(SlabArenaTest, PooledRecyclesTheSameSlot) {
  SlabArena A(/*ObjectBytes=*/64);
  void *P = A.allocate();
  A.deallocate(P);
  // Same-thread magazine is LIFO: the very next allocation reuses the slot.
  void *Q = A.allocate();
  EXPECT_EQ(P, Q);
  A.deallocate(Q);
}

TEST(SlabArenaTest, PooledAccountsWholePagesAndNeverShrinks) {
  SlabArena A(/*ObjectBytes=*/64, /*Pooled=*/true, /*PageBytes=*/4096);
  EXPECT_EQ(A.bytesReserved(), 0u);
  std::vector<void *> Ps;
  for (int I = 0; I != 100; ++I) // > one page of 64-byte slots
    Ps.push_back(A.allocate());
  EXPECT_GT(A.pagesAllocated(), 1u);
  EXPECT_EQ(A.bytesReserved(), A.pagesAllocated() * 4096);
  size_t Peak = A.bytesReserved();
  for (void *P : Ps)
    A.deallocate(P);
  // Pages are retained for reuse (that is what makes recycling safe for
  // quarantined cells) — the reservation must not shrink before death.
  EXPECT_EQ(A.bytesReserved(), Peak);
}

TEST(SlabArenaTest, PassthroughAccountsLiveSlotsOnly) {
  SlabArena A(/*ObjectBytes=*/64, /*Pooled=*/false);
  void *P = A.allocate();
  void *Q = A.allocate();
  EXPECT_EQ(A.bytesReserved(), 2 * A.slotBytes());
  EXPECT_EQ(A.pagesAllocated(), 0u);
  A.deallocate(P);
  EXPECT_EQ(A.bytesReserved(), A.slotBytes());
  A.deallocate(Q);
  EXPECT_EQ(A.bytesReserved(), 0u);
}

TEST(SlabArenaTest, CrossThreadFreeFlowsBackThroughGlobalList) {
  SlabArena A(/*ObjectBytes=*/64, /*Pooled=*/true, /*PageBytes=*/4096);
  // One thread allocates and frees enough slots that its magazine must
  // flush batches to the global free list; the main thread then draws the
  // same page's slots back out without growing the reservation.
  std::vector<void *> Ps;
  std::thread Producer([&] {
    for (int I = 0; I != 64; ++I)
      Ps.push_back(A.allocate());
    for (void *P : Ps)
      A.deallocate(P);
  });
  Producer.join();
  // The dead thread's magazine strands up to Cap slots (lost to the pool,
  // reclaimed at arena death); its overflow flushes — half-capacity
  // batches — reached the global list and are reusable from here.
  size_t Reserved = A.bytesReserved();
  std::vector<void *> Qs;
  for (int I = 0; I != 24; ++I) // forces refills from the global list
    Qs.push_back(A.allocate());
  EXPECT_EQ(A.bytesReserved(), Reserved) << "reuse must not grow the arena";
  for (void *Q : Qs)
    A.deallocate(Q);
}

TEST(SlabArenaTest, MagazinesSurviveArenaDeathByGeneration) {
  // Thread-local magazines are keyed by a process-unique arena generation,
  // so entries for a destroyed arena are inert and a new arena (possibly
  // at the same address) starts clean. Churn several arenas through one
  // thread to force magazine claims, evictions and stale entries.
  for (int Round = 0; Round != 8; ++Round) {
    SlabArena A(/*ObjectBytes=*/128);
    void *P = A.allocate();
    void *Q = A.allocate();
    A.deallocate(P);
    A.deallocate(Q); // left in this arena's magazine as it dies
  }
  SlabArena Fresh(/*ObjectBytes=*/128);
  void *P = Fresh.allocate(); // must come from Fresh, not a dead magazine
  EXPECT_EQ(Fresh.bytesReserved(), Fresh.pagesAllocated() * 4096);
  Fresh.deallocate(P);
}

//===----------------------------------------------------------------------===//
// Differential sweep across allocator configurations
//===----------------------------------------------------------------------===//

RandomTraceParams slabParams(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = 0x51AB ^ Seed;
  P.NumThreads = 2 + Seed % 4;
  P.NumObjects = 2 + Seed % 5;
  P.DataFields = 1 + Seed % 3;
  P.VolatileFields = Seed % 2;
  if (P.VolatileFields == 0)
    P.WVolRead = P.WVolWrite = 0;
  P.StepsPerThread = 60 + static_cast<unsigned>(Seed % 60);
  P.WBeginTxn = Seed % 3 ? 1 : 0;
  return P;
}

/// Cell accounting identity, valid even with a non-empty quarantine:
/// sentinel + allocated - freed = live list + quarantined.
void checkCellAccounting(GoldilocksEngine &E) {
  EngineStats St = E.stats();
  EngineHealth H = E.health();
  EXPECT_EQ(E.eventListLength() + H.QuarantinedCells,
            1 + St.CellsAllocated - St.CellsFreed);
}

TEST(SlabDifferentialTest, AllConfigsMatchReferenceUnderHeavyRecycling) {
  struct Config {
    const char *Name;
    bool Pooling;
  };
  const Config Configs[] = {
      {"pooled", true},
      {"passthrough", false},
  };

  uint64_t TotalFreed = 0;
  for (uint64_t Seed = 0; Seed != 24; ++Seed) {
    Trace T = generateRandomTrace(slabParams(Seed));
    std::set<VarId> Reference =
        racyVarSet(GoldilocksReferenceDetector().runTrace(T));

    for (const Config &C : Configs) {
      SCOPED_TRACE(testing::Message() << "seed=" << Seed << " " << C.Name);
      EngineConfig EC;
      EC.GcThreshold = 32; // churn: free and recycle cells constantly
      EC.EnableSlabPooling = C.Pooling;
      GoldilocksDetector D(EC);
      std::set<VarId> Got = racyVarSet(D.runTrace(T));
      EXPECT_EQ(Got, Reference);
      checkCellAccounting(D.engine());

      TotalFreed += D.engine().stats().CellsFreed;
    }
  }
  // The sweep must actually exercise recycling, otherwise the equalities
  // above prove nothing about it.
  EXPECT_GT(TotalFreed, 0u) << "GC never freed a cell";
}

//===----------------------------------------------------------------------===//
// Recycling across quarantine flushes under parked readers
//===----------------------------------------------------------------------===//

/// Minimal ticketed logging harness (ConcurrencyTest's pattern): every
/// engine call is logged with a global ticket taken adjacent to the call,
/// so the sorted log is a legal linearization to replay through the
/// reference detector.
struct LoggedOp {
  uint64_t Tick = 0;
  Action A;
};

struct StressHarness {
  explicit StressHarness(const EngineConfig &C) : Det(C) {}

  GoldilocksDetector Det;
  std::atomic<uint64_t> Ticket{0};
  std::vector<std::vector<LoggedOp>> Logs;
  std::vector<std::vector<VarId>> Reported;

  void log(unsigned Slot, ActionKind K, ThreadId T, VarId V = VarId{},
           ThreadId Target = NoThread) {
    Action A;
    A.Kind = K;
    A.Thread = T;
    A.Var = V;
    A.Target = Target;
    Logs[Slot].push_back({Ticket.fetch_add(1, std::memory_order_relaxed), A});
  }

  Trace mergedTrace() {
    std::vector<const LoggedOp *> All;
    for (const auto &L : Logs)
      for (const LoggedOp &Op : L)
        All.push_back(&Op);
    std::sort(All.begin(), All.end(),
              [](const LoggedOp *A, const LoggedOp *B) {
                return A->Tick < B->Tick;
              });
    TraceBuilder B;
    for (const LoggedOp *Op : All)
      B.append(Op->A);
    return B.take();
  }
};

/// N worker threads churn lock-protected and private data (slab-heavy,
/// race-free by construction) while thread pairs (1,2) race on one field
/// with no synchronization at all. Short grace deadline + parked readers
/// force retired chains through the quarantine while the slab keeps
/// recycling — under ASan a premature reuse of a held cell is a poisoned
/// access, under TSan an unordered one.
void runQuarantineStress(bool Pooling) {
  SCOPED_TRACE(testing::Message() << "pooling=" << Pooling);
  constexpr unsigned NumThreads = 4;
  constexpr unsigned Iters = 300;
  constexpr ObjectId LockBase = 100; // + tid
  constexpr ObjectId PrivBase = 200; // + tid, 4 fields
  constexpr ObjectId RacyObj = 300;  // field 0: threads 1,2 deliberate race

  EngineConfig C;
  C.GcThreshold = 128;          // constant reclamation pressure
  C.GraceDeadlineMicros = 1000; // parked readers blow this deadline
  C.EnableSlabPooling = Pooling;
  // Full telemetry plus an attached trace sink: the accounting after an
  // append runs while a concurrent collection may already be reclaiming
  // the just-published cell, so the recording paths must run under this
  // stress (ASan/TSan guard the regression).
  C.Telemetry = TelemetryLevel::Full;
  TraceEventSink Sink;

  StressHarness H(C);
  H.Det.engine().attachTraceSink(&Sink);
  H.Logs.resize(NumThreads + 1);
  H.Reported.resize(NumThreads + 1);

  std::vector<std::mutex> Locks(NumThreads + 1);
  for (unsigned I = 1; I <= NumThreads; ++I) {
    H.log(0, ActionKind::Alloc, 0, VarId{LockBase + I, 1});
    H.Det.onAlloc(0, LockBase + I, 1);
    H.log(0, ActionKind::Alloc, 0, VarId{PrivBase + I, 4});
    H.Det.onAlloc(0, PrivBase + I, 4);
  }
  H.log(0, ActionKind::Alloc, 0, VarId{RacyObj, 1});
  H.Det.onAlloc(0, RacyObj, 1);

  FailpointConfig FC;
  FC.Seed = 0x9A7E;
  FC.StallMicros = 2000; // 2ms parks >> 1ms grace deadline
  FC.rate(Failpoint::EngineReaderPark, 3000)   // 0.3% of read sections
      .rate(Failpoint::EngineRetainStall, 3000) // TOCTOU window holds
      // Park publishers between epoch exit and the post-publish
      // accounting so concurrent reclamation can overtake the cell: the
      // recording paths must not touch the published cell. Every append
      // passes this site, so keep it rare: parked publishers sit outside
      // any epoch section, and too many of them starve the reader parks
      // that force the quarantine.
      .rate(Failpoint::EnginePublishStall, 20000);

  auto Worker = [&](ThreadId Tid) {
    VarId Racy{RacyObj, 0};
    for (unsigned I = 0; I != Iters; ++I) {
      ObjectId L = LockBase + Tid;
      {
        std::lock_guard<std::mutex> G(Locks[Tid]);
        H.log(Tid, ActionKind::Acquire, Tid, lockVar(L));
        H.Det.onAcquire(Tid, L);
        for (FieldId F = 0; F != 4; ++F) {
          VarId V{PrivBase + Tid, F};
          H.log(Tid, ActionKind::Write, Tid, V);
          if (auto R = H.Det.onWrite(Tid, V))
            H.Reported[Tid].push_back(R->Var);
          H.log(Tid, ActionKind::Read, Tid, V);
          if (auto R = H.Det.onRead(Tid, V))
            H.Reported[Tid].push_back(R->Var);
        }
        H.log(Tid, ActionKind::Release, Tid, lockVar(L));
        H.Det.onRelease(Tid, L);
      }
      if (Tid <= 2 && I % 50 == 25) { // the deliberate, schedule-free race
        H.log(Tid, Tid == 1 ? ActionKind::Write : ActionKind::Read, Tid,
              Racy);
        if (Tid == 1) {
          if (auto R = H.Det.onWrite(Tid, Racy))
            H.Reported[Tid].push_back(R->Var);
        } else if (auto R = H.Det.onRead(Tid, Racy)) {
          H.Reported[Tid].push_back(R->Var);
        }
      }
    }
    H.log(Tid, ActionKind::Terminate, Tid);
    H.Det.onTerminate(Tid);
  };

  std::vector<std::thread> Threads;
  {
    FailpointScope Scope(FC);
    for (unsigned I = 1; I <= NumThreads; ++I) {
      H.log(0, ActionKind::Fork, 0, VarId{}, I);
      H.Det.onFork(0, I);
      Threads.emplace_back(Worker, static_cast<ThreadId>(I));
    }
    for (unsigned I = 1; I <= NumThreads; ++I) {
      Threads[I - 1].join();
      H.log(0, ActionKind::Join, 0, VarId{}, I);
      H.Det.onJoin(0, I);
    }
  }
  H.log(0, ActionKind::Terminate, 0);
  H.Det.onTerminate(0);

  // Differential: the engine's verdicts equal the reference algorithm's on
  // the observed linearization — exactly {RacyObj.0}.
  std::set<VarId> Engine;
  for (const auto &R : H.Reported)
    Engine.insert(R.begin(), R.end());
  std::set<VarId> Reference =
      racyVarSet(GoldilocksReferenceDetector().runTrace(H.mergedTrace()));
  EXPECT_EQ(Engine, Reference);
  const std::set<VarId> Expected = {VarId{RacyObj, 0}};
  EXPECT_EQ(Reference, Expected)
      << "workload is racy-by-construction on exactly one variable";
  checkCellAccounting(H.Det.engine());

  // The run must have pushed chains through the quarantine (that is the
  // recycling path under test) — otherwise lower the deadline further.
  EngineStats St = H.Det.engine().stats();
  EXPECT_GT(St.CellsQuarantined, 0u) << "no chain was ever quarantined";
  EXPECT_GT(St.CellsFreed, 0u);

  // The sink must have seen the instrumented phases, or the telemetry
  // recording paths were never stressed at all.
  EXPECT_GT(Sink.size(), 0u) << "trace sink recorded nothing";
  EXPECT_GT(Failpoints::instance().fires(Failpoint::EnginePublishStall), 0u)
      << "no publisher ever parked after its append";
}

/// Deterministic replay of the post-publish reclaim race: the publisher
/// parks (engine-publish-stall failpoint) between closing its epoch section
/// and recording the publish accounting, while the main thread appends past
/// the just-published cell and collects until it is freed. The accounting
/// must read nothing from the published cell — under ASan a violation is a
/// heap-use-after-free, under TSan an unordered access.
TEST(SlabQuarantineStressTest, PublishInstrumentationSurvivesReclaim) {
  EngineConfig C;
  C.GcThreshold = 0;           // only the main thread below collects
  C.EnableSlabPooling = false; // freed cells return to the heap (ASan UAF)
  C.Telemetry = TelemetryLevel::Full; // flight recorder attached
  TraceEventSink Sink;

  GoldilocksDetector D(C);
  D.engine().attachTraceSink(&Sink);
  D.onFork(0, 1);

  std::atomic<bool> PublisherReturned{false};
  std::jthread Publisher; // joins on every exit, a failed ASSERT included
  {
    FailpointConfig FC;
    FC.StallMicros = 500000; // 500ms park: the collection below needs ~µs
    FC.rate(Failpoint::EnginePublishStall, 1000000);
    FailpointScope Scope(FC);
    Publisher = std::jthread([&] {
      D.onAcquire(1, /*Lock=*/500);
      PublisherReturned.store(true);
    });
    // The site counts its fire before sleeping: once it has fired, the
    // acquire cell is linked and the publisher is parked outside its epoch
    // section. Disarm then, so the main thread's own appends do not park.
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (Failpoints::instance().fires(Failpoint::EnginePublishStall) == 0 &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
    ASSERT_EQ(Failpoints::instance().fires(Failpoint::EnginePublishStall), 1u)
        << "publisher never parked after its append";
  }

  // Append past the parked publisher's cell, then collect: no cell carries
  // an Info reference, so the trim frees everything before the tail — the
  // acquire cell included.
  for (unsigned I = 0; I != 4; ++I)
    D.onVolatileWrite(0, VarId{900, 0});
  D.engine().collectGarbage();
  EXPECT_EQ(D.engine().eventListLength(), 1u)
      << "collection did not free the parked publisher's cell";
  EXPECT_GT(D.engine().stats().CellsFreed, 0u);
  EXPECT_FALSE(PublisherReturned.load())
      << "publisher resumed before its cell was freed";

  Publisher.join();
  D.onJoin(0, 1);
  D.onTerminate(1);
  D.onTerminate(0);
  checkCellAccounting(D.engine());
}

TEST(SlabQuarantineStressTest, Pooled) {
  runQuarantineStress(/*Pooling=*/true);
}

TEST(SlabQuarantineStressTest, Passthrough) {
  runQuarantineStress(/*Pooling=*/false);
}

} // namespace
