//===- tests/ServiceTest.cpp - always-on ingestion service tests ----------===//
///
/// Covers the sharded detection service end to end: the bounded MPSC ring
/// and its backoff schedule, per-session isolation (error budget, idle
/// reaping, namespace validation), per-session shard routing, the
/// backpressure contract (bounded queues, retry-the-same-line exactness),
/// the overload ladder (admission pause, priority shedding), crash-only
/// shard reincarnation with journal replay (zero lost, zero duplicated
/// verdicts — or counted loss when a journal cannot replay), namespace
/// recycling, and multi-client differential soaks — inline and threaded,
/// chaos-injected, with every killed session matched to its loss counter —
/// against the happens-before oracle.
///
//===----------------------------------------------------------------------===//

#include "DifferentialHarness.h"

#include "event/TraceIO.h"
#include "service/ClientStream.h"
#include "service/IngestRing.h"
#include "service/Service.h"
#include "service/Snapshots.h"
#include "support/Failpoints.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace gold;

namespace {

using difftest::oracleKeySet;
using difftest::racyKeySet;
using difftest::smallRandomTrace;
using difftest::traceLines;

/// One line through the settle path (service/ClientStream.h): a refusal is
/// retried while the service makes progress, pumping inline or waiting on
/// the consumer threads.
FeedResult settleLine(DetectionService &Svc, Session &S,
                      const std::string &Line) {
  return feedFrame(Svc, FeedMode::Settle, [&] { return S.feedLine(Line); });
}

void feedAllInline(DetectionService &Svc, Session &S,
                   const std::vector<std::string> &Lines) {
  for (const std::string &L : Lines) {
    FeedResult R = settleLine(Svc, S, L);
    ASSERT_EQ(R.St, FeedResult::Status::Accepted) << R.Error;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// IngestRing
//===----------------------------------------------------------------------===//

TEST(IngestRingTest, FifoAndFullRejection) {
  IngestRing<int> R(6); // rounds up to 8
  EXPECT_EQ(R.capacity(), 8u);
  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(R.tryPush(I), PushResult::Ok);
  EXPECT_EQ(R.tryPush(99), PushResult::Full);
  EXPECT_EQ(R.depth(), 8u);
  int V = -1;
  for (int I = 0; I != 8; ++I) {
    ASSERT_TRUE(R.tryPop(V));
    EXPECT_EQ(V, I);
  }
  EXPECT_FALSE(R.tryPop(V));
  EXPECT_EQ(R.depth(), 0u);
  // Freed slots are reusable (the ring wraps).
  EXPECT_EQ(R.tryPush(42), PushResult::Ok);
  ASSERT_TRUE(R.tryPop(V));
  EXPECT_EQ(V, 42);
}

TEST(IngestRingTest, CloseRejectsAndDiscardCounts) {
  IngestRing<int> R(4);
  EXPECT_EQ(R.tryPush(1), PushResult::Ok);
  EXPECT_EQ(R.tryPush(2), PushResult::Ok);
  R.close();
  EXPECT_TRUE(R.closed());
  EXPECT_EQ(R.tryPush(3), PushResult::Closed);
  // Queued items remain poppable after close; discardAll drains them.
  EXPECT_EQ(R.discardAll(), 2u);
  EXPECT_EQ(R.depth(), 0u);
  R.reopen();
  EXPECT_EQ(R.tryPush(4), PushResult::Ok);
}

TEST(IngestRingTest, MpscStressDeliversEveryItemExactlyOnce) {
  constexpr unsigned Producers = 4;
  constexpr uint64_t PerProducer = 20000;
  IngestRing<uint64_t> R(256);
  std::atomic<bool> Done{false};
  std::vector<uint64_t> NextSeq(Producers, 0);
  uint64_t Popped = 0;
  std::thread Consumer([&] {
    uint64_t V;
    while (Popped != Producers * PerProducer) {
      if (!R.tryPop(V)) {
        if (Done.load(std::memory_order_acquire) && !R.tryPop(V))
          continue; // producers done; drain whatever is left
        std::this_thread::yield();
        continue;
      }
      uint64_t P = V >> 32, Seq = V & 0xffffffffu;
      ASSERT_LT(P, Producers);
      // Per-producer FIFO: sequences arrive in order, none skipped.
      ASSERT_EQ(Seq, NextSeq[P]);
      ++NextSeq[P];
      ++Popped;
    }
  });
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P != Producers; ++P)
    Threads.emplace_back([&R, P] {
      for (uint64_t I = 0; I != PerProducer; ++I) {
        uint64_t V = (static_cast<uint64_t>(P) << 32) | I;
        while (R.tryPush(V) != PushResult::Ok)
          std::this_thread::yield();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Done.store(true, std::memory_order_release);
  Consumer.join();
  EXPECT_EQ(Popped, Producers * PerProducer);
  EXPECT_EQ(R.depth(), 0u);
}

TEST(IngestRingTest, CloseSettlesInFlightPushes) {
  // close() must fence out in-flight tryPush calls: once it returns, every
  // concurrent push has either published (and the discard below sees it) or
  // observed Closed. A push publishing *behind* the discard would survive a
  // reincarnation's engine swap and get applied on top of the journal
  // replay — the double-application this test guards against.
  for (int Round = 0; Round != 50; ++Round) {
    IngestRing<int> R(64);
    std::atomic<uint64_t> Pushed{0};
    std::atomic<bool> Go{false};
    std::vector<std::thread> Producers;
    for (int P = 0; P != 4; ++P)
      Producers.emplace_back([&] {
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        for (;;) {
          PushResult Res = R.tryPush(1);
          if (Res == PushResult::Closed)
            break;
          if (Res == PushResult::Ok)
            Pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    Go.store(true, std::memory_order_release);
    R.close();
    size_t Discarded = R.discardAll();
    for (std::thread &T : Producers)
      T.join();
    // Nothing trickled in after the discard, and the discard saw every
    // successful push.
    int V;
    EXPECT_FALSE(R.tryPop(V));
    EXPECT_EQ(R.depth(), 0u);
    EXPECT_EQ(Discarded, Pushed.load(std::memory_order_relaxed));
  }
}

TEST(IngestRingTest, BackoffScheduleIsDeterministicBoundedJitter) {
  const uint64_t Base = 1000, Max = 1u << 20;
  for (unsigned A = 0; A != 8; ++A) {
    uint64_t W = backoffNanos(Base, A, /*Seed=*/7, Max);
    EXPECT_EQ(W, backoffNanos(Base, A, 7, Max)) << "must be deterministic";
    uint64_t Ideal = Base << A;
    if (Ideal > Max)
      Ideal = Max;
    EXPECT_GE(W, Ideal - Ideal / 4) << "attempt " << A;
    EXPECT_LE(W, Ideal + Ideal / 4) << "attempt " << A;
  }
  // Deep attempts saturate at the cap (within jitter), never overflow to 0.
  uint64_t Deep = backoffNanos(Base, 63, 9, Max);
  EXPECT_GE(Deep, Max - Max / 4);
  EXPECT_LE(Deep, Max + Max / 4);
  EXPECT_GT(backoffNanos(Base, 0, 1, Max), 0u);
}

//===----------------------------------------------------------------------===//
// Sessions: isolation, budgets, teardown
//===----------------------------------------------------------------------===//

TEST(ServiceTest, SingleClientMatchesOracleAndSingleEngine) {
  for (uint64_t Seed : {3u, 17u, 99u}) {
    Trace T = smallRandomTrace(Seed, 40);
    ServiceConfig SC;
    SC.Shards = 4;
    DetectionService Svc(SC);
    auto R = Svc.open(/*ClientId=*/1);
    ASSERT_NE(R.S, nullptr) << R.Error;
    feedAllInline(Svc, *R.S, traceLines(T));
    R.S->close();
    Svc.drain();
    Svc.poll();
    std::set<uint64_t> Got = racyKeySet(R.S->takeVerdicts());
    EXPECT_EQ(Got, oracleKeySet(T, SC.Engine.Semantics)) << "seed " << Seed;
    // Cross-check against one unsharded engine over the same trace.
    EngineConfig EC;
    EC.DisableVarAfterRace = true;
    GoldilocksDetector D(EC);
    EXPECT_EQ(Got, racyKeySet(D.runTrace(T))) << "seed " << Seed;
    EXPECT_EQ(R.S->state(), SessionState::Dead);
    EXPECT_EQ(R.S->closeReason(), CloseReason::ClientClose);
    // The whole session runs on one shard: each line is routed once.
    ServiceHealth H = Svc.health();
    EXPECT_EQ(H.ActionsRouted, H.LinesAccepted) << "seed " << Seed;
  }
}

TEST(ServiceTest, VerdictsAreUnmappedIntoClientIdSpace) {
  DetectionService Svc;
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  feedAllInline(Svc, *R.S,
                {"fork 0 1", "write 0 5 0", "write 1 5 0"});
  Svc.drain();
  std::vector<RaceReport> V = R.S->takeVerdicts();
  ASSERT_EQ(V.size(), 1u);
  // The service namespaces ids internally; reports come back in the
  // client's own id space.
  EXPECT_EQ(V[0].Var.Object, 5u);
  EXPECT_LT(V[0].Thread, 2u);
  EXPECT_LT(V[0].PriorThread, 2u);
  EXPECT_EQ(R.S->racesDelivered(), 1u);
}

TEST(ServiceTest, ClientsAreIsolatedNoCrossSessionEdges) {
  // Two clients use the *same* raw ids. Client A publishes o1 under a lock;
  // client B races on its own o1. A's verdicts must be empty, B's must see
  // exactly its race — no lock edge or variable state may leak across.
  DetectionService Svc;
  auto A = Svc.open(1), B = Svc.open(2);
  ASSERT_NE(A.S, nullptr);
  ASSERT_NE(B.S, nullptr);
  feedAllInline(Svc, *A.S,
                {"fork 0 1", "acq 0 9", "write 0 1 0", "rel 0 9", "acq 1 9",
                 "read 1 1 0", "rel 1 9"});
  feedAllInline(Svc, *B.S, {"fork 0 1", "write 0 1 0", "read 1 1 0"});
  Svc.drain();
  EXPECT_TRUE(A.S->takeVerdicts().empty());
  std::vector<RaceReport> BV = B.S->takeVerdicts();
  ASSERT_EQ(BV.size(), 1u);
  EXPECT_EQ(BV[0].Var.Object, 1u);
}

TEST(ServiceTest, ErrorBudgetExhaustionClosesSessionCrashOnly) {
  ServiceConfig SC;
  SC.SessionErrorBudget = 2;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  for (int I = 0; I != 2; ++I) {
    FeedResult F = R.S->feedLine("frobnicate 1 2 3");
    EXPECT_EQ(F.St, FeedResult::Status::Rejected);
    EXPECT_EQ(R.S->state(), SessionState::Open);
  }
  FeedResult F = R.S->feedLine("still garbage");
  EXPECT_EQ(F.St, FeedResult::Status::Rejected);
  EXPECT_NE(F.Error.find("error budget exhausted"), std::string::npos);
  EXPECT_EQ(R.S->state(), SessionState::Dead);
  EXPECT_EQ(R.S->closeReason(), CloseReason::ErrorBudget);
  // The session answers Closed from now on instead of crashing or leaking.
  EXPECT_EQ(R.S->feedLine("write 0 1 0").St, FeedResult::Status::Closed);
  EXPECT_EQ(Svc.health().ParseErrors, 3u);
}

TEST(ServiceTest, NamespaceOverflowTearsTheSessionDown) {
  DetectionService Svc;
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  std::string Big = std::to_string(NamespaceStride); // first out-of-range id
  FeedResult F = R.S->feedLine("write 0 " + Big + " 0");
  EXPECT_EQ(F.St, FeedResult::Status::Rejected);
  EXPECT_NE(F.Error.find("namespace"), std::string::npos);
  EXPECT_EQ(R.S->state(), SessionState::Dead);
}

TEST(ServiceTest, IdleTimeoutReapsWithManualClock) {
  auto Clock = std::make_shared<std::atomic<uint64_t>>(1);
  ServiceConfig SC;
  SC.IdleTimeoutNanos = 1000;
  SC.NowNanos = [Clock] { return Clock->load(std::memory_order_relaxed); };
  DetectionService Svc(SC);
  auto A = Svc.open(1), B = Svc.open(2);
  ASSERT_NE(A.S, nullptr);
  ASSERT_NE(B.S, nullptr);
  EXPECT_EQ(A.S->feedLine("write 0 1 0").St, FeedResult::Status::Accepted);
  Clock->store(900);
  Svc.poll();
  EXPECT_EQ(A.S->state(), SessionState::Open) << "within the deadline";
  Clock->store(5000);
  EXPECT_EQ(B.S->feedLine("write 0 1 0").St, FeedResult::Status::Accepted);
  Svc.poll();
  EXPECT_EQ(A.S->state(), SessionState::Dead);
  EXPECT_EQ(A.S->closeReason(), CloseReason::IdleTimeout);
  EXPECT_EQ(B.S->state(), SessionState::Open) << "B fed recently";
}

//===----------------------------------------------------------------------===//
// Backpressure: bounded, explicit, exact
//===----------------------------------------------------------------------===//

TEST(ServiceTest, BackpressureBoundsQueuedBytesAndStaysExact) {
  Trace T = smallRandomTrace(5, 40);
  ServiceConfig SC;
  SC.Shards = 2;
  SC.RingCapacity = 8;
  SC.MaxQueuedBytes = 256; // tiny: force rejections constantly
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);

  bool SawBackpressure = false;
  for (const std::string &L : traceLines(T)) {
    for (;;) {
      FeedResult F = R.S->feedLine(L);
      if (F.St == FeedResult::Status::Accepted)
        break;
      ASSERT_EQ(F.St, FeedResult::Status::Backpressure) << F.Error;
      SawBackpressure = true;
      EXPECT_GT(F.RetryAfterNanos, 0u);
      // The hard bound: queued bytes never exceed the budget (one item of
      // check-then-add overshoot at most; items here are tiny lines).
      EXPECT_LE(Svc.health().QueuedBytes,
                SC.MaxQueuedBytes + TraceParser::MaxLineBytes);
      Svc.pumpAll(); // we are the consumer; make room and retry same line
    }
  }
  EXPECT_TRUE(SawBackpressure) << "budget was too generous to test anything";
  R.S->close();
  Svc.drain();
  Svc.poll();
  ServiceHealth H = Svc.health();
  EXPECT_GT(H.BackpressureRejects, 0u);
  EXPECT_EQ(H.QueuedBytes, 0u);
  EXPECT_LE(H.QueuedBytesHighWater, SC.MaxQueuedBytes);
  // Retrying the same line after Backpressure neither lost nor duplicated
  // anything: the verdicts still match the oracle exactly.
  EXPECT_EQ(racyKeySet(R.S->takeVerdicts()),
            oracleKeySet(T, SC.Engine.Semantics));
  EXPECT_EQ(H.VerdictLossEvents, 0u);
}

TEST(ServiceTest, StalledShardBackpressuresOnlyItsOwnSessions) {
  // A fills shard 0's ring, which nobody pumps. B runs on shard 1: none of
  // its actions, sync included, may need room in shard 0's ring.
  ServiceConfig SC;
  SC.Shards = 2;
  SC.RingCapacity = 8;
  DetectionService Svc(SC);
  auto A = Svc.open(1), B = Svc.open(2);
  ASSERT_NE(A.S, nullptr);
  ASSERT_NE(B.S, nullptr);
  ASSERT_EQ(A.S->index(), 0u); // slot i runs on shard i % Shards
  ASSERT_EQ(B.S->index(), 1u);

  for (unsigned Obj = 0;; ++Obj) {
    ASSERT_LT(Obj, 2 * SC.RingCapacity) << "shard 0's ring never filled";
    FeedResult F = A.S->feedLine("write 0 " + std::to_string(Obj) + " 0");
    if (F.St == FeedResult::Status::Backpressure)
      break;
    ASSERT_EQ(F.St, FeedResult::Status::Accepted) << F.Error;
  }

  RandomTraceParams P;
  P.Seed = 41;
  P.NumThreads = 4;
  P.StepsPerThread = 40;
  P.WRead = 3; // sync-heavy: acquire/release/volatile outweigh data 10:6
  P.WWrite = 3;
  Trace T = generateRandomTrace(P);
  std::vector<std::string> Lines = traceLines(T);
  ASSERT_GE(Lines.size(), 4 * SC.RingCapacity);
  for (const std::string &L : Lines) {
    FeedResult F = B.S->feedLine(L);
    ASSERT_EQ(F.St, FeedResult::Status::Accepted) << L << ": " << F.Error;
    Svc.pumpShard(1);
  }
  B.S->close();
  while (Svc.pumpShard(1))
    ;
  EXPECT_EQ(B.S->state(), SessionState::Dead);
  EXPECT_EQ(racyKeySet(B.S->takeVerdicts()),
            oracleKeySet(T, SC.Engine.Semantics));
  EXPECT_EQ(A.S->state(), SessionState::Open);
}

TEST(ServiceTest, LadderPausesAdmissionThenShedsLowestPriority) {
  ServiceConfig SC;
  SC.Shards = 1;
  SC.RingCapacity = 256;
  SC.MaxQueuedBytes = 400;
  DetectionService Svc(SC);
  auto Hi = Svc.open(1, /*Priority=*/5);
  auto Lo = Svc.open(2, /*Priority=*/1);
  ASSERT_NE(Hi.S, nullptr);
  ASSERT_NE(Lo.S, nullptr);

  // Fill past the shed fraction without consuming.
  size_t Queued = 0;
  unsigned Obj = 0;
  while (Queued <= SC.MaxQueuedBytes * 96 / 100) {
    std::string L = "write 0 " + std::to_string(Obj++ % 64) + " 0";
    FeedResult F = Hi.S->feedLine(L);
    if (F.St != FeedResult::Status::Accepted)
      break; // budget reached
    Queued = Svc.health().QueuedBytes;
  }
  Svc.poll();
  ServiceHealth H = Svc.health();
  EXPECT_EQ(H.LadderState, 2u) << "queued=" << H.QueuedBytes;
  // Rung 2 shed the lowest-priority session, not the loud high-priority one.
  EXPECT_EQ(Lo.S->state(), SessionState::Dead);
  EXPECT_EQ(Lo.S->closeReason(), CloseReason::Shed);
  EXPECT_EQ(Hi.S->state(), SessionState::Open);
  EXPECT_EQ(H.SessionsShed, 1u);
  // Rung 1: no new clients while overloaded — refused with a retry hint.
  auto Refused = Svc.open(3);
  EXPECT_EQ(Refused.S, nullptr);
  EXPECT_GT(Refused.RetryAfterNanos, 0u);
  EXPECT_GT(Svc.health().AdmissionRejects, 0u);
  // Draining restores normal operation and admission.
  Svc.drain();
  Svc.poll();
  EXPECT_EQ(Svc.health().LadderState, 0u);
  EXPECT_NE(Svc.open(4).S, nullptr);
}

//===----------------------------------------------------------------------===//
// Crash-only recovery
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ReincarnationReplaysJournalsZeroLossZeroDup) {
  Trace T = smallRandomTrace(21, 40);
  std::vector<std::string> Lines = traceLines(T);
  ServiceConfig SC;
  SC.Shards = 2;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);

  size_t Half = Lines.size() / 2;
  for (size_t I = 0; I != Half; ++I)
    ASSERT_EQ(settleLine(Svc, *R.S, Lines[I]).St,
              FeedResult::Status::Accepted);
  Svc.drain(); // some verdicts may already have been delivered

  // Crash-only swap of every shard mid-stream: engines restart fresh and
  // rebuild from the session journal.
  Svc.reincarnateShard(0);
  Svc.reincarnateShard(1);

  for (size_t I = Half; I != Lines.size(); ++I)
    ASSERT_EQ(settleLine(Svc, *R.S, Lines[I]).St,
              FeedResult::Status::Accepted);
  R.S->close();
  Svc.drain();
  Svc.poll();

  ServiceHealth H = Svc.health();
  EXPECT_EQ(H.Reincarnations, 2u);
  EXPECT_GT(H.ReplayedActions, 0u);
  EXPECT_EQ(H.VerdictLossEvents, 0u);
  // Zero lost (replay reconstructed everything) and zero duplicated (the
  // per-variable dedup swallowed the replay's regenerated verdicts).
  std::vector<RaceReport> V = R.S->takeVerdicts();
  EXPECT_EQ(racyKeySet(V), oracleKeySet(T, SC.Engine.Semantics));
  std::set<uint64_t> Seen;
  for (const RaceReport &Rep : V)
    EXPECT_TRUE(Seen.insert(Rep.Var.key()).second)
        << "duplicate verdict for one variable";
}

TEST(ServiceTest, ReincarnationMidBackpressureDoesNotReparseTheRetry) {
  // A line that bounced with Backpressure sits parsed in the journal as the
  // session's pending action. After a reincarnation, the producer's
  // mandatory retry of that same line must push the pending action, not
  // re-parse the line: that would journal the action twice (and a retried
  // fork line would be rejected as "already forked", poisoning an innocent
  // client).
  ServiceConfig SC;
  SC.Shards = 1;
  SC.RingCapacity = 4;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);

  ASSERT_EQ(R.S->feedLine("fork 0 1").St, FeedResult::Status::Accepted);
  // Fill the 4-slot ring without pumping, then bounce a fork line off it.
  for (int I = 0; I != 3; ++I)
    ASSERT_EQ(R.S->feedLine("write 1 5 0").St, FeedResult::Status::Accepted);
  FeedResult BP = R.S->feedLine("fork 0 2");
  ASSERT_EQ(BP.St, FeedResult::Status::Backpressure);

  // Crash-only swap discards the queue and replays the journal up to, not
  // including, the parsed "fork 0 2".
  Svc.reincarnateShard(0);

  // The contractual retry of the bounced line: must push, not re-parse.
  FeedResult Retry = R.S->feedLine("fork 0 2");
  EXPECT_EQ(Retry.St, FeedResult::Status::Accepted) << Retry.Error;
  ASSERT_EQ(settleLine(Svc, *R.S, "write 2 5 0").St,
            FeedResult::Status::Accepted);
  ASSERT_EQ(settleLine(Svc, *R.S, "write 0 5 0").St,
            FeedResult::Status::Accepted);
  R.S->close();
  Svc.drain();
  Svc.poll();

  ServiceHealth H = Svc.health();
  EXPECT_EQ(H.ParseErrors, 0u);
  EXPECT_EQ(H.VerdictLossEvents, 0u);
  // The journal holds each action exactly once, so the verdicts match the
  // oracle of the logical client trace.
  Trace T;
  std::string Err;
  ASSERT_TRUE(parseTrace("fork 0 1\nwrite 1 5 0\nwrite 1 5 0\n"
                         "write 1 5 0\nfork 0 2\nwrite 2 5 0\nwrite 0 5 0\n",
                         T, Err))
      << Err;
  EXPECT_EQ(racyKeySet(R.S->takeVerdicts()),
            oracleKeySet(T, SC.Engine.Semantics));
}

TEST(ServiceTest, BackpressuredLineSurvivesReincarnationExactlyOnce) {
  // The replay stops before the pending action; the retry routes it once.
  ServiceConfig SC;
  SC.Shards = 1;
  SC.RingCapacity = 4;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  const std::vector<std::string> Lines = {"fork 0 1", "write 1 5 0",
                                          "write 1 5 0", "write 1 5 0",
                                          "write 0 5 0"};
  for (size_t I = 0; I != 4; ++I)
    ASSERT_EQ(R.S->feedLine(Lines[I]).St, FeedResult::Status::Accepted);
  ASSERT_EQ(R.S->feedLine(Lines[4]).St, FeedResult::Status::Backpressure);

  Svc.reincarnateShard(0);
  EXPECT_EQ(Svc.health().ReplayedActions, 4u);
  EXPECT_EQ(R.S->feedLine(Lines[4]).St, FeedResult::Status::Accepted);
  R.S->close();
  Svc.drain();
  Svc.poll();

  ServiceHealth H = Svc.health();
  EXPECT_EQ(H.ActionsRouted, 5u);
  EXPECT_EQ(H.VerdictLossEvents, 0u);
  EXPECT_EQ(R.S->state(), SessionState::Dead);
  Trace T;
  std::string Err;
  std::string Text;
  for (const std::string &L : Lines)
    Text += L + "\n";
  ASSERT_TRUE(parseTrace(Text, T, Err)) << Err;
  EXPECT_EQ(racyKeySet(R.S->takeVerdicts()),
            oracleKeySet(T, SC.Engine.Semantics));
}

TEST(ServiceTest, WedgeFailpointRecoversThroughReincarnation) {
  FailpointConfig FC;
  FC.Seed = 1234;
  FC.rate(Failpoint::ServiceShardWedge, 200000); // 20% of pumped items
  FailpointScope Chaos(FC);

  Trace T = smallRandomTrace(33, 40);
  ServiceConfig SC;
  SC.Shards = 2;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  feedAllInline(Svc, *R.S, traceLines(T));
  R.S->close();
  // Wedges stop a shard cold; only poll() clears them (by reincarnating),
  // so interleave pumping and polling until everything is applied.
  for (int I = 0; I != 10000 && Svc.health().QueuedItems; ++I) {
    Svc.pumpAll();
    Svc.poll();
  }
  Svc.poll();

  ServiceHealth H = Svc.health();
  EXPECT_GT(H.Reincarnations, 0u) << "chaos never fired";
  EXPECT_GT(H.ItemsDiscarded, 0u) << "every wedge drops the in-flight item";
  EXPECT_EQ(H.VerdictLossEvents, 0u) << "replay must recover every drop";
  EXPECT_EQ(racyKeySet(R.S->takeVerdicts()),
            oracleKeySet(T, SC.Engine.Semantics));
}

TEST(ServiceTest, TruncatedJournalKillsSessionWithCountedLoss) {
  ServiceConfig SC;
  SC.Shards = 1;
  SC.JournalCapActions = 4;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  for (int I = 0; I != 10; ++I)
    ASSERT_EQ(
        settleLine(Svc, *R.S, "write 0 " + std::to_string(I) + " 0").St,
        FeedResult::Status::Accepted);
  Svc.drain();
  EXPECT_TRUE(R.S->journalTruncated());
  EXPECT_EQ(R.S->state(), SessionState::Open) << "streaming continues";

  // Now the shard dies. The journal cannot replay, so the session is killed
  // — and the loss is *counted*, never silent.
  Svc.reincarnateShard(0);
  EXPECT_EQ(R.S->state(), SessionState::Dead);
  EXPECT_EQ(R.S->closeReason(), CloseReason::ShardLost);
  ServiceHealth H = Svc.health();
  EXPECT_EQ(H.LostSessions, 1u);
  EXPECT_GE(H.VerdictLossEvents, 1u);
}

TEST(ServiceTest, RecycledSlotPublicationIsRaceFree) {
  // Reuses namespace slots while the service's own threads (consumers and
  // watchdog) read sessions lock-free via sessionAt. Under tsan this pins
  // the atomic per-slot publication: a plain unique_ptr reset of a recycled
  // slot would be a data race with those readers.
  ServiceConfig SC;
  SC.Shards = 2;
  SC.MaxSessions = 2;
  SC.ShardSupervisor.SamplePeriodMillis = 1;
  DetectionService Svc(SC);
  Svc.start();
  for (int I = 0; I != 100; ++I) {
    auto R = Svc.open(I + 1);
    ASSERT_NE(R.S, nullptr) << R.Error;
    ASSERT_EQ(settleLine(Svc, *R.S, "write 0 1 0").St,
              FeedResult::Status::Accepted);
    R.S->close();
    // The consumer that applies the item finalizes the Draining session.
    while (R.S->state() != SessionState::Dead)
      std::this_thread::yield();
    Svc.recycleNamespaces();
  }
  Svc.shutdown();
  // Every generation's handle stays valid and Dead after recycling.
  EXPECT_EQ(Svc.health().ActiveSessions, 0u);
}

TEST(ServiceTest, ClosedSessionIsDeadOnceItsLastItemApplies) {
  ServiceConfig SC;
  SC.Shards = 1;
  DetectionService Svc(SC);
  auto Idle = Svc.open(1);
  ASSERT_NE(Idle.S, nullptr);
  Idle.S->close();
  EXPECT_EQ(Idle.S->state(), SessionState::Dead) << "nothing was queued";

  auto R = Svc.open(2);
  ASSERT_NE(R.S, nullptr);
  for (const char *L : {"fork 0 1", "write 0 1 0", "write 1 1 0"})
    ASSERT_EQ(R.S->feedLine(L).St, FeedResult::Status::Accepted);
  R.S->close();
  EXPECT_EQ(R.S->state(), SessionState::Draining);
  // The pump that applies the last item finalizes the session: no poll().
  EXPECT_EQ(Svc.pumpAll(), 3u);
  EXPECT_EQ(R.S->state(), SessionState::Dead);
  EXPECT_EQ(R.S->closeReason(), CloseReason::ClientClose);
  EXPECT_EQ(R.S->takeVerdicts().size(), 1u);
}

TEST(ServiceTest, WedgeLostItemFinalizesOnlyAfterTheReplay) {
  ServiceConfig SC;
  SC.Shards = 1;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  ASSERT_EQ(R.S->feedLine("fork 0 1").St, FeedResult::Status::Accepted);
  ASSERT_EQ(R.S->feedLine("write 0 1 0").St, FeedResult::Status::Accepted);
  EXPECT_EQ(Svc.pumpAll(), 2u);
  ASSERT_EQ(R.S->feedLine("write 1 1 0").St, FeedResult::Status::Accepted);
  R.S->close();
  {
    FailpointConfig FC;
    FC.rate(Failpoint::ServiceShardWedge, 1000000);
    FailpointScope Wedge(FC);
    Svc.pumpAll(); // pops the racing write, the session's last item, and
                   // loses it
  }
  // The lost item is owed until the replay rebuilds it: not Dead yet.
  EXPECT_EQ(R.S->state(), SessionState::Draining);
  Svc.poll(); // reincarnates the shard, replays the journal
  EXPECT_EQ(R.S->state(), SessionState::Dead);
  EXPECT_EQ(R.S->takeVerdicts().size(), 1u);
  EXPECT_EQ(Svc.health().VerdictLossEvents, 0u);
}

TEST(ServiceTest, RecyclingSkipsSessionsThatDieDuringIt) {
  // A closes with an item still queued, so recycleNamespaces' reincarnation
  // replays A's journal into the fresh engine and only then retires the
  // item, which finalizes A. A's slot must wait for the next recycle: B
  // would otherwise reuse A's ids and race A's write on o1.
  ServiceConfig SC;
  SC.Shards = 1;
  SC.MaxSessions = 1;
  DetectionService Svc(SC);
  auto A = Svc.open(1);
  ASSERT_NE(A.S, nullptr);
  ASSERT_EQ(A.S->feedLine("fork 0 1").St, FeedResult::Status::Accepted);
  ASSERT_EQ(A.S->feedLine("write 1 1 0").St, FeedResult::Status::Accepted);
  A.S->close();
  ASSERT_EQ(A.S->state(), SessionState::Draining);
  EXPECT_EQ(Svc.recycleNamespaces(), 0u);
  EXPECT_EQ(A.S->state(), SessionState::Dead);
  EXPECT_EQ(Svc.open(2).S, nullptr) << "A's slot is not free yet";

  EXPECT_EQ(Svc.recycleNamespaces(), 1u);
  auto B = Svc.open(2);
  ASSERT_NE(B.S, nullptr) << B.Error;
  ASSERT_EQ(B.S->feedLine("write 0 1 0").St, FeedResult::Status::Accepted);
  Svc.drain();
  EXPECT_TRUE(B.S->takeVerdicts().empty());
}

TEST(ServiceTest, NamespaceRecyclingReclaimsDeadSlots) {
  ServiceConfig SC;
  SC.MaxSessions = 2;
  DetectionService Svc(SC);
  auto A = Svc.open(1), B = Svc.open(2);
  ASSERT_NE(A.S, nullptr);
  ASSERT_NE(B.S, nullptr);
  auto Refused = Svc.open(3);
  EXPECT_EQ(Refused.S, nullptr) << "namespace must be exhausted at 2";

  A.S->close(); // nothing queued: Dead at once
  B.S->close();
  EXPECT_EQ(Svc.recycleNamespaces(), 2u);
  auto C1 = Svc.open(4);
  ASSERT_NE(C1.S, nullptr) << C1.Error;
  EXPECT_EQ(settleLine(Svc, *C1.S, "write 0 1 0").St,
            FeedResult::Status::Accepted);
  // Stale handles to recycled sessions stay valid and answer Dead.
  EXPECT_EQ(A.S->state(), SessionState::Dead);
  EXPECT_EQ(A.S->feedLine("write 0 1 0").St, FeedResult::Status::Closed);
}

//===----------------------------------------------------------------------===//
// Multi-client differential soaks
//===----------------------------------------------------------------------===//

namespace {

/// Top-level integer member \p Key of a composed JSON document: the
/// service's own members precede every nested section.
uint64_t jsonMember(const std::string &Doc, const std::string &Key) {
  std::string Needle = "\"" + Key + "\":";
  size_t At = Doc.find(Needle);
  EXPECT_NE(At, std::string::npos) << Key;
  return At == std::string::npos
             ? 0
             : std::strtoull(Doc.c_str() + At + Needle.size(), nullptr, 10);
}

struct SoakResult {
  size_t Compared = 0; ///< clients checked against the oracle
  size_t Killed = 0;   ///< clients killed for a counted reason
};

/// Streams K seeded client traces (\p Steps per thread) into one service,
/// then checks every client against the happens-before oracle for its own
/// trace. \p Threaded starts the consumer threads and gives each client a
/// producer thread; otherwise one line per client per round goes through
/// the settle path with no threads at all, a deterministic interleaved
/// multi-client stream. A client that is not compared must have been killed
/// for a reason the service counts: loss is accounted, never silent.
SoakResult soak(ServiceConfig SC, uint64_t BaseSeed, size_t K, bool Threaded,
                unsigned Steps = 30) {
  SCOPED_TRACE(Threaded ? "threaded soak" : "inline soak");
  DetectionService Svc(SC);
  if (Threaded)
    Svc.start();
  struct Client {
    Trace T;
    std::vector<std::string> Lines;
    Session *S = nullptr;
    size_t Cursor = 0; ///< lines the session accepted
    bool Done = false;
  };
  std::vector<Client> Clients(K);
  for (size_t I = 0; I != K; ++I) {
    Client &C = Clients[I];
    C.T = smallRandomTrace(BaseSeed + I, Steps);
    C.Lines = traceLines(C.T);
    auto R = Svc.open(I + 1);
    EXPECT_NE(R.S, nullptr) << R.Error;
    if (!R.S)
      return {};
    C.S = R.S;
  }
  // Feeds C's next line; false once C is done: fully fed, killed, or
  // refused past the settle bound. Either way the client then closes.
  auto FeedOne = [&Svc](Client &C) {
    if (C.Done)
      return false;
    if (C.Cursor != C.Lines.size() &&
        settleLine(Svc, *C.S, C.Lines[C.Cursor]).St ==
            FeedResult::Status::Accepted) {
      ++C.Cursor;
      return true;
    }
    C.S->close();
    C.Done = true;
    return false;
  };
  if (Threaded) {
    std::vector<std::thread> Producers;
    for (Client &C : Clients)
      Producers.emplace_back([&FeedOne, &C] {
        while (FeedOne(C))
          ;
      });
    for (std::thread &T : Producers)
      T.join();
  } else {
    for (bool Progress = true; Progress;) {
      Progress = false;
      for (Client &C : Clients)
        Progress |= FeedOne(C);
      Svc.makeProgress();
    }
  }
  Svc.shutdown();

  SoakResult Out;
  uint64_t ShardLost = 0, Shed = 0, IdleReaped = 0;
  for (Client &C : Clients) {
    CloseReason R = C.S->closeReason();
    if (R == CloseReason::ClientClose && C.Cursor == C.Lines.size()) {
      ++Out.Compared;
      EXPECT_EQ(racyKeySet(C.S->takeVerdicts()),
                oracleKeySet(C.T, SC.Engine.Semantics))
          << "client " << C.S->clientId();
      continue;
    }
    switch (R) {
    case CloseReason::ShardLost:
      ++ShardLost;
      break;
    case CloseReason::Shed:
      ++Shed;
      break;
    case CloseReason::IdleTimeout:
      ++IdleReaped;
      break;
    default:
      ADD_FAILURE() << "client " << C.S->clientId() << " stopped at line "
                    << C.Cursor << " of " << C.Lines.size()
                    << " with no counted kill (close reason "
                    << closeReasonName(R) << ")";
    }
  }
  Out.Killed = ShardLost + Shed + IdleReaped;
  EXPECT_GT(Out.Compared, 0u) << "every client was torn down: no coverage";
  ServiceHealth H = Svc.health();
  EXPECT_EQ(ShardLost, H.LostSessions);
  EXPECT_EQ(Shed, H.SessionsShed);
  EXPECT_EQ(IdleReaped, H.IdleReaped);
  EXPECT_EQ(H.ActiveSessions, 0u);
  EXPECT_EQ(H.ParseErrors, 0u);
  EXPECT_EQ(H.ActionsRouted, H.LinesAccepted);
  // Byte accounting is exact: bytes are reserved before publication and
  // every pop/discard subtracts what was added, so the gauge returns to
  // zero and the high-water mark can never wrap past the budget.
  EXPECT_EQ(H.QueuedBytes, 0u);
  EXPECT_LE(H.QueuedBytesHighWater, SC.MaxQueuedBytes);
  EXPECT_EQ(H.VerdictLossEvents,
            H.LostSessions + H.VerdictsDroppedDead + H.DroppedPendingActions);
  if (Out.Killed == 0) {
    EXPECT_EQ(H.VerdictLossEvents, 0u);
  }
  // The composed health document carries the same sum.
  std::string Doc = composeHealthJson(Svc, "test_service", false, {});
  EXPECT_EQ(jsonMember(Doc, "verdict_loss_events"),
            jsonMember(Doc, "lost_sessions") +
                jsonMember(Doc, "verdicts_dropped_dead") +
                jsonMember(Doc, "dropped_pending_actions"));
  return Out;
}

} // namespace

TEST(ServiceSoakTest, EightConcurrentClientsMatchTheOracle) {
  ServiceConfig SC;
  SC.Shards = 4;
  for (bool Threaded : {false, true})
    soak(SC, /*BaseSeed=*/100, /*K=*/8, Threaded);
}

TEST(ServiceSoakTest, SurvivesTinyRingsUnderConcurrency) {
  // Constant backpressure: every producer hits the retry path repeatedly,
  // and the byte budget stays bounded throughout.
  ServiceConfig SC;
  SC.Shards = 2;
  SC.RingCapacity = 8;
  SC.MaxQueuedBytes = 512;
  for (bool Threaded : {false, true})
    soak(SC, /*BaseSeed=*/200, /*K=*/8, Threaded);
}

TEST(ServiceSoakTest, ChaosFailpointSweepStaysExactForSurvivors) {
  struct Input {
    const char *Name;
    std::vector<Failpoint> Sites;
    uint64_t Seed; ///< failpoint seed and base trace seed
    ServiceConfig SC;
    unsigned Steps = 30;
    bool MustKill = false;
  };
  const std::vector<Failpoint> All = {Failpoint::ServiceIngestStall,
                                      Failpoint::ServiceClientHang,
                                      Failpoint::ServiceShardWedge};
  ServiceConfig Base;
  Base.Shards = 4;
  // A wedge past a 16-action journal cap cannot replay: the shard's live
  // sessions die ShardLost, and each must be counted.
  ServiceConfig CappedJournal = Base;
  CappedJournal.JournalCapActions = 16;
  // Small rings and a small byte budget keep every producer on the retry
  // path while all three sites fire.
  ServiceConfig SmallRings = Base;
  SmallRings.RingCapacity = 64;
  SmallRings.MaxQueuedBytes = 65536;
  const Input Inputs[] = {
      {"ingest-stall", {Failpoint::ServiceIngestStall}, 300, Base},
      {"client-hang", {Failpoint::ServiceClientHang}, 317, Base},
      {"shard-wedge", {Failpoint::ServiceShardWedge}, 334, Base},
      {"all", All, 351, Base},
      {"capped-journal", {Failpoint::ServiceShardWedge}, 300, CappedJournal,
       30, /*MustKill=*/true},
      {"small-rings", All, 1307, SmallRings, /*Steps=*/60},
  };
  for (const Input &In : Inputs)
    for (bool Threaded : {false, true}) {
      SCOPED_TRACE(In.Name);
      FailpointConfig FC;
      FC.Seed = In.Seed;
      FC.StallMicros = 5;
      for (Failpoint F : In.Sites)
        FC.rate(F, F == Failpoint::ServiceShardWedge ? 3000 : 5000);
      FailpointScope Chaos(FC);
      SoakResult R = soak(In.SC, In.Seed, /*K=*/8, Threaded, In.Steps);
      for (Failpoint F : In.Sites)
        EXPECT_GT(Failpoints::instance().fires(F), 0u)
            << failpointName(F) << " never fired";
      if (In.MustKill) {
        EXPECT_GT(R.Killed, 0u) << "no session was killed";
      }
    }
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

TEST(ServiceTest, TelemetryExposesServiceCountersAndLatency) {
  ServiceConfig SC;
  SC.Telemetry = TelemetryLevel::Full;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  feedAllInline(Svc, *R.S,
                {"fork 0 1", "write 0 5 0", "write 1 5 0"});
  Svc.drain();
  TelemetrySnapshot Snap = Svc.telemetry();
  auto Counter = [&](const std::string &Name) -> int64_t {
    for (const auto &KV : Snap.Counters)
      if (KV.first == Name)
        return static_cast<int64_t>(KV.second);
    return -1;
  };
  EXPECT_EQ(Counter("service.lines_accepted"), 3);
  EXPECT_EQ(Counter("service.races_delivered"), 1);
  EXPECT_EQ(Counter("service.verdict_loss_events"), 0);
  bool SawLatency = false;
  for (const HistogramSnapshot &H : Snap.Histograms)
    SawLatency |= H.Name == "service.ingest_latency_nanos";
  EXPECT_TRUE(SawLatency) << "Full telemetry must record ingest latency";
  std::string Json = Snap.json("test");
  EXPECT_NE(Json.find("gold-metrics-v1"), std::string::npos);
  EXPECT_NE(Json.find("service.actions_routed"), std::string::npos);
}
