//===- tests/ShmTest.cpp - shared-memory ring transport tests -------------===//
///
/// Covers the same-host shared-memory front end (DESIGN.md §17) end to
/// end, with real process boundaries where the design claims matter:
///
///  - fork()-based cross-process differential: forked GoldClient producers
///    publish binary frames into the segment while the parent serves them;
///    every child's verdicts must match the happens-before oracle, and the
///    same traces fed through the stdio text path must match the same
///    oracle — the transport changes the bytes, never the verdicts.
///  - producer crash mid-frame: a forked producer dies after publishing a
///    continuation slot but not its header slot; the partial frame must be
///    invisible (header-last publication), the dead pid reaped, the ring
///    sanitized and recycled, and a successor claim must resume at the
///    exact frame the server consumed — replayed prefix dup-dropped.
///  - full-ring and service backpressure bounds: a producer facing a full
///    ring never blocks and sheds counted at its buffer cap; a refusing
///    service publishes a retry-after hint through the ring's Control word
///    inside the shared backoff envelope.
///  - liveness: a ring is never recycled under a live client just because
///    its heartbeat went quiet while the client was not owing beats (a
///    fresh claim on a long-idle ring, a Closed ring awaiting its read).
///  - the close rule (CloseRuleHarness.h): over stalled consumer threads
///    and a parked watchdog, every close still carries the complete set.
///  - the shm failpoints: shm-producer-stall wedges a live producer past
///    the wedge timeout (crash-only reap, then reclaim-with-resume, zero
///    verdict divergence); shm-slot-corrupt kills the session crash-only
///    with the decode error counted and reported to the client.
///
//===----------------------------------------------------------------------===//

#include "CloseRuleHarness.h"
#include "DifferentialHarness.h"
#include "client/GoldClient.h"
#include "service/Backoff.h"
#include "service/Service.h"
#include "service/shm/ShmRing.h"
#include "service/shm/ShmServer.h"
#include "support/Failpoints.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gold;
using namespace gold::shm;

using difftest::oracleVarStrings;
using difftest::smallRandomTrace;
using difftest::traceLines;

namespace {

/// Unique tmpfs-backed segment path, unlinked on scope exit so a red test
/// cannot poison the next run's claim scan with a stale segment.
struct SegPath {
  std::string Path;
  explicit SegPath(const char *Tag) {
    static std::atomic<unsigned> Serial{0};
    Path = "/tmp/gold-shmtest-" + std::to_string(::getpid()) + "-" + Tag +
           "-" + std::to_string(Serial.fetch_add(1)) + ".ring";
  }
  ~SegPath() { ::unlink(Path.c_str()); }
};

/// Stops and joins a test's server-loop or claim thread on scope exit. A
/// failed ASSERT_* returns early; without this the still-joinable
/// std::thread's destructor would call std::terminate() and take every
/// later test in the binary down with it.
struct JoinGuard {
  std::thread &T;
  std::atomic<bool> *Stop = nullptr;
  ~JoinGuard() {
    if (Stop)
      Stop->store(true);
    if (T.joinable())
      T.join();
  }
};

/// Publishes a whole trace through the library (commit sets attached the
/// way a real producer attaches them). Returns false if the stream died.
bool publishTrace(client::GoldClient &GC, const Trace &T) {
  for (const Action &A : T.Actions)
    if (!GC.publish(A, A.Kind == ActionKind::Commit ? &T.commitSets(A)
                                                    : nullptr))
      return false;
  return true;
}

/// The stdio leg of the differential: the same trace through the text
/// parser into a fresh service, verdicts projected to variable strings.
std::set<std::string> stdioVerdicts(const Trace &T) {
  DetectionService Svc;
  auto R = Svc.open(1);
  EXPECT_NE(R.S, nullptr);
  for (const std::string &L : traceLines(T)) {
    FeedResult F =
        feedFrame(Svc, FeedMode::Settle, [&] { return R.S->feedLine(L); });
    EXPECT_EQ(F.St, FeedResult::Status::Accepted) << F.Error;
  }
  Svc.drain();
  std::set<std::string> Got;
  for (const RaceReport &Rep : R.S->takeVerdicts())
    Got.insert(Rep.Var.str());
  Svc.shutdown();
  return Got;
}

/// Maps an existing segment the way a foreign producer process would.
struct MappedSeg {
  int Fd = -1;
  SegView Seg;

  bool map(const std::string &Path) {
    Fd = ::open(Path.c_str(), O_RDWR);
    if (Fd < 0)
      return false;
    struct stat Sb;
    if (::fstat(Fd, &Sb) != 0 || Sb.st_size <= 0)
      return false;
    void *M = ::mmap(nullptr, size_t(Sb.st_size), PROT_READ | PROT_WRITE,
                     MAP_SHARED, Fd, 0);
    if (M == MAP_FAILED)
      return false;
    Seg.Base = static_cast<unsigned char *>(M);
    Seg.Bytes = size_t(Sb.st_size);
    return Seg.valid();
  }
  ~MappedSeg() {
    if (Seg.Base)
      ::munmap(Seg.Base, Seg.Bytes);
    if (Fd >= 0)
      ::close(Fd);
  }
};

//===----------------------------------------------------------------------===//
// Cross-process differential
//===----------------------------------------------------------------------===//

/// Three forked producers diffed against the oracle and the stdio path,
/// over an inline-pumped service or one running its own consumer threads.
void forkedProducersDifferential(bool Threaded) {
  SegPath P("diff");
  constexpr unsigned Clients = 3;

  ServiceConfig SC;
  DetectionService Svc(SC);
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = Clients + 1;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;

  std::vector<Trace> Traces;
  for (unsigned I = 0; I != Clients; ++I)
    Traces.push_back(smallRandomTrace(900 + I, 40));

  // Children publish over the segment and diff their delivered verdicts
  // against the oracle themselves; the exit status is the verdict on the
  // verdicts. _exit keeps gtest's atexit machinery out of the children.
  std::vector<pid_t> Kids;
  for (unsigned I = 0; I != Clients; ++I) {
    pid_t Kid = ::fork();
    ASSERT_GE(Kid, 0);
    if (Kid == 0) {
      client::GoldClientConfig CC;
      CC.ClientId = I + 1;
      CC.ShmPath = P.Path;
      CC.ShmClaimTimeoutNanos = 10ull * 1000000000;
      CC.BufferCapActions = Traces[I].Actions.size() + 8;
      client::GoldClient GC(CC);
      std::string E;
      if (!GC.connect(E))
        ::_exit(2);
      if (!publishTrace(GC, Traces[I]))
        ::_exit(3);
      std::vector<std::string> Vars;
      if (!GC.closeAndCollect(Vars, E))
        ::_exit(4);
      std::set<std::string> Got(Vars.begin(), Vars.end());
      ::_exit(Got == oracleVarStrings(Traces[I]) ? 0 : 1);
    }
    Kids.push_back(Kid);
  }

  // Threads start only after the forks: a child of a multi-threaded
  // parent may inherit locks held by threads it does not have.
  if (Threaded)
    Svc.start();
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Shm.runLoop(Stop, 1); });
  JoinGuard LoopGuard{Loop, &Stop};
  for (pid_t Kid : Kids) {
    int Status = -1;
    ASSERT_EQ(::waitpid(Kid, &Status, 0), Kid);
    ASSERT_TRUE(WIFEXITED(Status));
    EXPECT_EQ(WEXITSTATUS(Status), 0)
        << "child verdicts diverged (2=connect 3=publish 4=close 1=diff)";
  }
  Stop.store(true);
  Loop.join();
  Shm.drainAndStop();
  Svc.shutdown();
  EXPECT_EQ(Svc.health().VerdictLossEvents, 0u);

  size_t TotalActions = 0;
  for (const Trace &T : Traces)
    TotalActions += T.Actions.size();
  ShmStats St = Shm.stats();
  EXPECT_EQ(St.Claims, Clients);
  EXPECT_EQ(St.ClosesServed, Clients);
  EXPECT_EQ(St.FramesIn, TotalActions);
  EXPECT_EQ(St.DecodeErrors, 0u);
  EXPECT_EQ(St.SeqViolations, 0u);
  EXPECT_EQ(St.DupFrames, 0u);
  EXPECT_GE(St.SlotsIn, St.FramesIn); // commits carry continuation slots
  EXPECT_EQ(St.DrainDroppedFrames, 0u);
  EXPECT_EQ(St.ProducersReaped, 0u); // every producer closed; none died
  EXPECT_EQ(St.ProducersWedged, 0u);

  // The stdio leg: same traces, text parse, same oracle. Equality of both
  // legs against one oracle is the byte-exact transport differential.
  for (const Trace &T : Traces)
    EXPECT_EQ(stdioVerdicts(T), oracleVarStrings(T));
}

} // namespace

TEST(ShmTest, ForkedProducersMatchOracleAndStdioPath) {
  forkedProducersDifferential(/*Threaded=*/false);
}

TEST(ShmTest, ForkedProducersMatchOracleOverThreadedService) {
  forkedProducersDifferential(/*Threaded=*/true);
}

//===----------------------------------------------------------------------===//
// Crash mid-frame, reap, recycle, resume
//===----------------------------------------------------------------------===//

TEST(ShmTest, ProducerCrashMidFrameIsInvisibleAndSuccessorResumes) {
  SegPath P("crash");
  ServiceConfig SC;
  DetectionService Svc(SC);
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 2;
  // Reaping in this test is pid-death-driven; keep the wedge timer out of
  // the way so a slow CI box cannot turn it into a different reap path.
  C.WedgeTimeoutNanos = 60ull * 1000000000;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;

  // The stream both incarnations replay: fork, two conflicting writes.
  const uint64_t Cid = 7;
  std::vector<Action> Stream;
  {
    Action A;
    A.Kind = ActionKind::Fork;
    A.Thread = 0;
    A.Target = 1;
    Stream.push_back(A);
    A = Action();
    A.Kind = ActionKind::Write;
    A.Thread = 0;
    A.Var = VarId{5, 0};
    Stream.push_back(A);
    A = Action();
    A.Kind = ActionKind::Write;
    A.Thread = 1;
    A.Var = VarId{5, 0};
    Stream.push_back(A);
  }

  // First incarnation: a bare-protocol producer (the library would not let
  // us die mid-frame on purpose). It claims a ring, publishes the first
  // two frames, publishes the CONTINUATION slot of a multi-slot commit
  // frame but never its header slot, and dies.
  pid_t Kid = ::fork();
  ASSERT_GE(Kid, 0);
  if (Kid == 0) {
    MappedSeg M;
    if (!M.map(P.Path))
      ::_exit(10);
    ShmRingHdr *R = nullptr;
    uint32_t Ring = 0;
    for (uint32_t I = 0; I != M.Seg.hdr()->RingCount && !R; ++I) {
      uint32_t Exp = static_cast<uint32_t>(RingState::Free);
      if (M.Seg.ring(I)->State.compare_exchange_strong(
              Exp, static_cast<uint32_t>(RingState::Claimed),
              std::memory_order_acq_rel)) {
        R = M.Seg.ring(I);
        Ring = I;
      }
    }
    if (!R)
      ::_exit(11);
    R->ClientId.store(Cid, std::memory_order_release);
    R->ClientPid.store(uint32_t(::getpid()), std::memory_order_release);
    R->Priority.store(1, std::memory_order_release);
    R->Heartbeat.store(1, std::memory_order_release);
    for (unsigned Spin = 0;; ++Spin) {
      uint32_t S = R->State.load(std::memory_order_acquire);
      if (S == static_cast<uint32_t>(RingState::Ready))
        break;
      if (S == static_cast<uint32_t>(RingState::Refused) || Spin > 500000)
        ::_exit(12);
      ::usleep(20);
    }
    ShmSlot *Slots = M.Seg.slots(Ring);
    const uint32_t Mask = M.Seg.mask();
    for (uint64_t Seq = 0; Seq != 2; ++Seq) {
      FrameHead H;
      encodeHead(H, Stream[Seq], nullptr, Seq);
      ShmSlot &Slot = Slots[Seq & Mask];
      if (Slot.Seq.load(std::memory_order_acquire) != Seq)
        ::_exit(13);
      std::memcpy(Slot.Payload, &H, sizeof(H));
      Slot.Seq.store(Seq + 1, std::memory_order_release);
    }
    // A 2-slot frame would sit at positions 2 (header) and 3
    // (continuation). Publish ONLY the continuation — the crash window the
    // header-last protocol exists for — then die without Closing.
    Slots[3 & Mask].Seq.store(4, std::memory_order_release);
    ::_exit(0);
  }

  // Serve the claim and the child's two complete frames while it runs —
  // the claim handshake needs this thread — then reap the child, then keep
  // serving until the ring is reaped and recycled.
  int Status = -1;
  auto WaitDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    pid_t Got = ::waitpid(Kid, &Status, WNOHANG);
    ASSERT_GE(Got, 0);
    if (Got == Kid)
      break;
    ASSERT_LT(std::chrono::steady_clock::now(), WaitDeadline)
        << "bare producer never exited";
    Shm.pollOnce(1);
  }
  ASSERT_TRUE(WIFEXITED(Status));
  ASSERT_EQ(WEXITSTATUS(Status), 0) << "bare producer failed";
  auto DeadlineAt = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (Shm.stats().RingsRecycled == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), DeadlineAt)
        << "ring never recycled after producer death";
    Shm.pollOnce(1);
  }
  {
    ShmStats St = Shm.stats();
    EXPECT_EQ(St.FramesIn, 2u);      // the partial frame stayed invisible
    EXPECT_EQ(St.DecodeErrors, 0u);  // ...and never decoded as garbage
    EXPECT_EQ(St.ProducersReaped, 1u);
  }

  // Second incarnation: the real library, same client id, replaying the
  // whole stream (what a reincarnated producer does). The server hands it
  // Resume=Acked=2, so the library prunes the replayed prefix before it
  // ever reaches the wire — only the crashed frame is actually resent.
  client::GoldClientConfig CC;
  CC.ClientId = Cid;
  CC.ShmPath = P.Path;
  CC.ShmClaimTimeoutNanos = 10ull * 1000000000;
  client::GoldClient GC(CC);
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Shm.runLoop(Stop, 1); });
  JoinGuard LoopGuard{Loop, &Stop};
  ASSERT_TRUE(GC.connect(Err)) << Err;
  for (const Action &A : Stream)
    ASSERT_TRUE(GC.publish(A));
  std::vector<std::string> Vars;
  ASSERT_TRUE(GC.closeAndCollect(Vars, Err)) << Err;
  Stop.store(true);
  Loop.join();
  Shm.drainAndStop();
  Svc.shutdown();

  // The session survived the crash: the two writes race exactly once.
  EXPECT_EQ(std::set<std::string>(Vars.begin(), Vars.end()),
            (std::set<std::string>{"o5.f0"}));
  ShmStats St = Shm.stats();
  EXPECT_EQ(St.Resumes, 1u);
  EXPECT_EQ(St.FramesIn, 3u); // 2 before the crash + 1 new from the resume
  EXPECT_EQ(St.DupFrames, 0u); // the prefix was pruned, not retransmitted
  EXPECT_EQ(St.SeqViolations, 0u);
}

//===----------------------------------------------------------------------===//
// Backpressure bounds
//===----------------------------------------------------------------------===//

TEST(ShmTest, FullRingNeverBlocksProducerAndShedsAtBufferCap) {
  SegPath P("full");
  DetectionService Svc;
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 1;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;
  MappedSeg M;
  ASSERT_TRUE(M.map(P.Path));
  const uint32_t Slots = M.Seg.hdr()->SlotsPerRing;

  // A replay buffer twice the ring: the ring fills first, then the buffer.
  client::GoldClientConfig CC;
  CC.ClientId = 1;
  CC.ShmPath = P.Path;
  CC.BufferCapActions = 2 * Slots;
  client::GoldClient GC(CC);

  // Serve exactly the claim, then stop consuming: the producer now faces a
  // ring that will never drain.
  std::thread Claim([&] {
    auto DeadlineAt =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Shm.stats().Claims == 0 &&
           std::chrono::steady_clock::now() < DeadlineAt)
      Shm.pollOnce(1);
  });
  JoinGuard ClaimGuard{Claim};
  ASSERT_TRUE(GC.connect(Err)) << Err;
  Claim.join();
  ASSERT_EQ(Shm.stats().Claims, 1u);

  Action W;
  W.Kind = ActionKind::Write;
  W.Thread = 0;
  W.Var = VarId{1, 0};
  const unsigned Publishes = 4 * Slots;
  unsigned Accepted = 0, Shed = 0;
  for (unsigned I = 0; I != Publishes; ++I)
    (GC.publish(W) ? Accepted : Shed)++;

  // publish() returned every time (no blocking poll loop to starve), the
  // ring bounded the frames in flight, and everything past the replay
  // buffer was shed and counted — never silently queued.
  const client::GoldClientStats &St = GC.stats();
  EXPECT_GT(Shed, 0u);
  EXPECT_EQ(St.Shed, Shed);
  EXPECT_EQ(St.Published, Accepted);
  EXPECT_LE(St.FramesOut, Slots);
  EXPECT_EQ(St.Published, Publishes - Shed);

  // Resume serving: everything admitted must drain and close cleanly.
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Shm.runLoop(Stop, 1); });
  JoinGuard LoopGuard{Loop, &Stop};
  std::vector<std::string> Vars;
  ASSERT_TRUE(GC.closeAndCollect(Vars, Err)) << Err;
  Stop.store(true);
  Loop.join();
  Shm.drainAndStop();
  Svc.shutdown();
  EXPECT_EQ(Shm.stats().FramesIn, Accepted);
}

TEST(ShmTest, ServiceRefusalPublishesControlWordInsideBackoffEnvelope) {
  SegPath P("bp");
  // Started consumer threads that stall on every item: the server leaves
  // pumping to them, so the service's refusals must escalate to the ring.
  // (Armed before start(): the consumers read the failpoint config.)
  FailpointConfig FC;
  FC.rate(Failpoint::ServiceIngestStall, 1000000);
  FC.StallMicros = 500000;
  std::optional<FailpointScope> Stall(std::in_place, FC);
  ServiceConfig SC;
  SC.RingCapacity = 8; // tiny ingest ring: refusals come fast
  DetectionService Svc(SC);
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 1;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;
  Svc.start();

  client::GoldClientConfig CC;
  CC.ClientId = 1;
  CC.ShmPath = P.Path;
  client::GoldClient GC(CC);
  std::thread Claim([&] {
    auto DeadlineAt =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (Shm.stats().Claims == 0 &&
           std::chrono::steady_clock::now() < DeadlineAt)
      Shm.pollOnce(1);
  });
  JoinGuard ClaimGuard{Claim};
  ASSERT_TRUE(GC.connect(Err)) << Err;
  Claim.join();

  Action W;
  W.Kind = ActionKind::Write;
  W.Thread = 0;
  W.Var = VarId{1, 0};
  for (unsigned I = 0; I != 32; ++I)
    ASSERT_TRUE(GC.publish(W));
  ASSERT_TRUE(GC.flush(Err)) << Err;

  // The stalled consumers let the service's ring fill, the feed refuses,
  // and the server writes the jittered retry-after into the Control word.
  auto DeadlineAt = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Shm.stats().BackpressureWrites == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), DeadlineAt)
        << "service never refused despite a stalled 8-entry ring";
    Shm.pollOnce(0);
  }
  ShmStats Mid = Shm.stats();
  EXPECT_LT(Mid.FramesIn, 32u); // the refused frame stayed in the ring

  MappedSeg M;
  ASSERT_TRUE(M.map(P.Path));
  uint64_t Hint = M.Seg.ring(0)->Control.load(std::memory_order_acquire);
  ASSERT_NE(Hint, 0u);
  // Every surface derives its hint from backoffNanos, so it must sit
  // inside the envelope of SOME attempt of the shared schedule (the same
  // assertion NetTest makes about `retry-after-ns=` replies).
  uint64_t Lo0, Hi0, LoMax, HiMax;
  backoffBoundsNanos(BackoffBaseNanos, 0, BackoffMaxNanos, Lo0, Hi0);
  backoffBoundsNanos(BackoffBaseNanos, 16, BackoffMaxNanos, LoMax, HiMax);
  EXPECT_GE(Hint, Lo0);
  EXPECT_LE(Hint, HiMax);

  // Recovery: lift the stall, the consumers drain and the stream settles;
  // the Control word is cleared with the first frame accepted afterwards.
  Stall.reset();
  while (Shm.stats().FramesIn != 32) {
    ASSERT_LT(std::chrono::steady_clock::now(), DeadlineAt)
        << "stream never settled after the stall lifted";
    Shm.pollOnce(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(M.Seg.ring(0)->Control.load(std::memory_order_acquire), 0u);
  Shm.drainAndStop();
  Svc.shutdown();
}

TEST(ShmTest, CloseAnswersWithTheCompleteVerdictSetOverThreadedService) {
  SegPath P("close");
  FailpointScope Stalls(closerule::ingestStalls());
  DetectionService Svc(closerule::serviceConfig());
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 2;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;
  Svc.start();
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Shm.runLoop(Stop, 1); });
  JoinGuard LoopGuard{Loop, &Stop};

  client::GoldClientConfig CC;
  CC.ShmPath = P.Path;
  closerule::closeReturnsCompleteVerdicts(CC);

  Stop.store(true);
  Loop.join();
  Shm.drainAndStop();
  Svc.shutdown();
  EXPECT_EQ(Shm.stats().ClosesServed, closerule::Sessions);
  EXPECT_EQ(Svc.health().VerdictLossEvents, 0u);
}

//===----------------------------------------------------------------------===//
// Failpoints
//===----------------------------------------------------------------------===//

TEST(ShmTest, StalledProducerIsWedgeReapedAndResumesWithoutDivergence) {
  // The shm-producer-stall failpoint makes the producer skip its heartbeat
  // and stall past the (shortened) wedge timeout: the server must reap the
  // live-pid producer, the library must reclaim a fresh ring, and the
  // delivered verdicts must still match the oracle exactly.
  FailpointConfig FC;
  FC.Seed = 41;
  FC.rate(Failpoint::ShmProducerStall, 20000);
  FC.StallMicros = 30000; // each stall outlives the wedge timeout
  FailpointScope Scope(FC);

  SegPath P("stall");
  DetectionService Svc;
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 4;
  C.WedgeTimeoutNanos = 5ull * 1000000; // 5ms: stalls become wedge reaps
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;

  Trace T = smallRandomTrace(4242, /*Steps=*/100);
  client::GoldClientConfig CC;
  CC.ClientId = 1;
  CC.ShmPath = P.Path;
  CC.ShmClaimTimeoutNanos = 10ull * 1000000000;
  CC.BufferCapActions = T.Actions.size() + 8; // shed would skew the diff
  CC.OpTimeoutNanos = 120ull * 1000000000;
  client::GoldClient GC(CC);

  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Shm.runLoop(Stop, 1); });
  JoinGuard LoopGuard{Loop, &Stop};
  ASSERT_TRUE(GC.connect(Err)) << Err;
  ASSERT_TRUE(publishTrace(GC, T));
  std::vector<std::string> Vars;
  ASSERT_TRUE(GC.closeAndCollect(Vars, Err)) << Err;
  Stop.store(true);
  Loop.join();
  Shm.drainAndStop();
  Svc.shutdown();

  EXPECT_EQ(std::set<std::string>(Vars.begin(), Vars.end()),
            oracleVarStrings(T));
  ShmStats St = Shm.stats();
  EXPECT_GE(St.ProducersWedged, 1u) << "stall failpoint never wedged";
  EXPECT_GE(St.Resumes, 1u);
  EXPECT_EQ(St.SeqViolations, 0u);
  EXPECT_EQ(St.DecodeErrors, 0u);
  const client::GoldClientStats &CSt = GC.stats();
  EXPECT_GE(CSt.ProducerStalls, 1u);
  EXPECT_GE(CSt.Reconnects, 1u);
}

TEST(ShmTest, LiveClientRingsAreNotRecycledOnStaleness) {
  // A stale heartbeat is evidence of a wedge only while the producer owes
  // beats. A fresh claim on a ring that sat Free past the wedge timeout,
  // and a Closed ring whose live client has not read its verdicts yet,
  // must both survive polls well past the timeout.
  SegPath P("stale");
  DetectionService Svc;
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 1;
  C.WedgeTimeoutNanos = 5ull * 1000000;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;
  MappedSeg M;
  ASSERT_TRUE(M.map(P.Path));
  ShmRingHdr *R = M.Seg.ring(0);
  auto State = [&] {
    return static_cast<RingState>(R->State.load(std::memory_order_acquire));
  };
  auto PollPastTimeout = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Shm.pollOnce(0);
  };

  // The ring idles Free past the timeout, then a client claims it and the
  // server polls before the claimant's identity lands.
  Shm.pollOnce(0);
  PollPastTimeout();
  uint32_t Exp = static_cast<uint32_t>(RingState::Free);
  ASSERT_TRUE(R->State.compare_exchange_strong(
      Exp, static_cast<uint32_t>(RingState::Claimed)));
  Shm.pollOnce(0);
  EXPECT_EQ(State(), RingState::Claimed) << "fresh claim recycled as stale";

  R->ClientId.store(1, std::memory_order_release);
  R->ClientPid.store(uint32_t(::getpid()), std::memory_order_release);
  R->Priority.store(1, std::memory_order_release);
  R->Heartbeat.store(1, std::memory_order_release);
  Shm.pollOnce(0);
  ASSERT_EQ(State(), RingState::Ready);

  // Ask for the verdicts, then read them slowly: the ring stays Closed.
  Exp = static_cast<uint32_t>(RingState::Ready);
  ASSERT_TRUE(R->State.compare_exchange_strong(
      Exp, static_cast<uint32_t>(RingState::Closing)));
  Shm.pollOnce(0);
  ASSERT_EQ(State(), RingState::Closed);
  PollPastTimeout();
  PollPastTimeout();
  EXPECT_EQ(State(), RingState::Closed)
      << "closed ring recycled under a live client";
  EXPECT_EQ(Shm.stats().RingsRecycled, 0u);

  // Released: now the server recycles it.
  R->State.store(static_cast<uint32_t>(RingState::Released),
                 std::memory_order_release);
  Shm.pollOnce(0);
  EXPECT_EQ(State(), RingState::Free);
  EXPECT_EQ(Shm.stats().RingsRecycled, 1u);
  Shm.drainAndStop();
  Svc.shutdown();
}

TEST(ShmTest, CorruptSlotKillsSessionCrashOnlyAndIsCounted) {
  // shm-slot-corrupt scribbles the op byte before publication; the server
  // must kill the session (silent frame-skipping would be an unaccounted
  // verdict divergence), count the decode error, and tell the client why.
  FailpointConfig FC;
  FC.Seed = 7;
  FC.rate(Failpoint::ShmSlotCorrupt, 1000000); // every frame
  FailpointScope Scope(FC);

  SegPath P("corrupt");
  DetectionService Svc;
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 1;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;

  client::GoldClientConfig CC;
  CC.ClientId = 1;
  CC.ShmPath = P.Path;
  CC.ShmClaimTimeoutNanos = 10ull * 1000000000;
  client::GoldClient GC(CC);

  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Shm.runLoop(Stop, 1); });
  JoinGuard LoopGuard{Loop, &Stop};
  ASSERT_TRUE(GC.connect(Err)) << Err;
  Action W;
  W.Kind = ActionKind::Write;
  W.Thread = 0;
  W.Var = VarId{1, 0};
  for (unsigned I = 0; I != 8; ++I)
    if (!GC.publish(W))
      break; // death may surface here or at close; either is correct
  std::vector<std::string> Vars;
  bool Ok = GC.closeAndCollect(Vars, Err);
  Stop.store(true);
  Loop.join();
  Shm.drainAndStop();
  Svc.shutdown();

  EXPECT_FALSE(Ok);
  EXPECT_NE(Err.find("killed"), std::string::npos) << Err;
  ShmStats St = Shm.stats();
  EXPECT_GE(St.DecodeErrors, 1u);
  EXPECT_GE(GC.stats().SlotCorrupts, 1u);
}

//===----------------------------------------------------------------------===//
// Drain refuses claims
//===----------------------------------------------------------------------===//

TEST(ShmTest, DrainingSegmentRefusesNewClaims) {
  SegPath P("drain");
  DetectionService Svc;
  ShmConfig C;
  C.Path = P.Path;
  C.Rings = 2;
  ShmServer Shm(Svc, C);
  std::string Err;
  ASSERT_TRUE(Shm.start(Err)) << Err;
  Shm.drainAndStop();
  Svc.shutdown();

  client::GoldClientConfig CC;
  CC.ClientId = 1;
  CC.ShmPath = P.Path;
  CC.ShmClaimTimeoutNanos = 500ull * 1000000;
  client::GoldClient GC(CC);
  EXPECT_FALSE(GC.connect(Err));
  EXPECT_NE(Err.find("draining"), std::string::npos) << Err;
}
