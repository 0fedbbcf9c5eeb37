//===- service/shm/ShmServer.cpp - Shared-memory ring front end -----------===//

#include "service/shm/ShmServer.h"

#include "service/Snapshots.h"
#include "support/Failpoints.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#endif

using namespace gold;
using namespace gold::shm;

ShmServer::ShmServer(DetectionService &Svc, ShmConfig C)
    : Svc(Svc), Cfg(std::move(C)) {}

ShmServer::~ShmServer() {
  if (Seg.Base)
    ::munmap(Seg.Base, Seg.Bytes);
  if (Fd >= 0)
    ::close(Fd);
}

/// Slots in every client ring. The segment header records it, so clients
/// read the geometry from the segment rather than assuming this value.
static constexpr uint32_t SlotsPerRing = 1024;
static_assert((SlotsPerRing & (SlotsPerRing - 1)) == 0 && SlotsPerRing >= 8,
              "a ring index is a mask: SlotsPerRing must be a power of two "
              "of at least 8 (SegView::valid)");

bool ShmServer::start(std::string &Err) {
  if (Cfg.Rings == 0) {
    Err = "shm: Rings must be > 0";
    return false;
  }
  Fd = ::open(Cfg.Path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (Fd < 0) {
    Err = "shm: open " + Cfg.Path + ": " + std::strerror(errno);
    return false;
  }
  size_t Bytes = SegView::bytesFor(Cfg.Rings, SlotsPerRing);
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) != 0) {
    Err = "shm: ftruncate: " + std::string(std::strerror(errno));
    return false;
  }
  void *M = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
  if (M == MAP_FAILED) {
    Err = "shm: mmap: " + std::string(std::strerror(errno));
    return false;
  }
  Seg.Base = static_cast<unsigned char *>(M);
  Seg.Bytes = Bytes;

  ShmSegHdr *H = Seg.hdr();
  H->Version = SegVersion;
  H->RingCount = Cfg.Rings;
  H->SlotsPerRing = SlotsPerRing;
  H->SlotSize = SlotBytes;
  H->RingStride = sizeof(ShmRingHdr) + size_t(SlotsPerRing) * SlotBytes;
  H->HdrBytes = 4096;
  H->ServerPid = static_cast<uint32_t>(::getpid());
  H->Doorbell.store(0, std::memory_order_relaxed);
  Sw.assign(Cfg.Rings, RingSw());
  for (uint32_t I = 0; I != Cfg.Rings; ++I) {
    ShmRingHdr *R = Seg.ring(I);
    std::memset(reinterpret_cast<char *>(R), 0, sizeof(ShmRingHdr));
    ShmSlot *S = Seg.slots(I);
    for (uint32_t K = 0; K != SlotsPerRing; ++K)
      S[K].Seq.store(K, std::memory_order_relaxed);
  }
  // Publish last: clients acquire-load State before trusting any field.
  H->Magic = SegMagic;
  H->State.store(static_cast<uint32_t>(SegState::Running),
                 std::memory_order_release);
  return true;
}

bool ShmServer::pidGone(uint32_t Pid) const {
  if (Pid == 0)
    return false; // identity not yet written; staleness handles it
  return ::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH;
}

void ShmServer::futexWait(int TimeoutMs) {
  std::atomic<uint32_t> &D = Seg.hdr()->Doorbell;
  uint32_t Cur = D.load(std::memory_order_acquire);
  if (Cur != LastDoorbell) {
    // A producer rang while we were working; skip the wait.
    LastDoorbell = Cur;
    St.Wakeups.fetch_add(1, std::memory_order_relaxed);
    return;
  }
#ifdef __linux__
  timespec Ts;
  Ts.tv_sec = TimeoutMs / 1000;
  Ts.tv_nsec = long(TimeoutMs % 1000) * 1000000;
  ::syscall(SYS_futex, reinterpret_cast<uint32_t *>(&D), FUTEX_WAIT, Cur,
            &Ts, nullptr, 0);
#else
  std::this_thread::sleep_for(std::chrono::milliseconds(TimeoutMs));
#endif
  uint32_t Now = D.load(std::memory_order_acquire);
  if (Now != LastDoorbell) {
    LastDoorbell = Now;
    St.Wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ShmServer::pollOnce(int TimeoutMs) {
  if (!Seg.Base || Drained)
    return 0;
  if (TimeoutMs > 0)
    futexWait(TimeoutMs);

  size_t Frames = 0;
  uint64_t Now = now();
  bool Draining =
      Seg.hdr()->State.load(std::memory_order_relaxed) ==
      static_cast<uint32_t>(SegState::Draining);

  for (uint32_t I = 0; I != Cfg.Rings; ++I) {
    ShmRingHdr *R = Seg.ring(I);
    RingSw &W = Sw[I];
    uint32_t RawState = R->State.load(std::memory_order_acquire);
    RingState S = static_cast<RingState>(RawState);

    // Track per-ring liveness: a heartbeat or any state change counts as
    // activity; everything stale beyond WedgeTimeoutNanos is reaped. The
    // state change matters for a fresh claim: a ring that sat Free past
    // the timeout must not look stale the moment a client claims it.
    uint64_t Beat = R->Heartbeat.load(std::memory_order_relaxed);
    if (Beat != W.LastBeat || RawState != W.LastState ||
        W.LastBeatNanos == 0) {
      W.LastBeat = Beat;
      W.LastState = RawState;
      W.LastBeatNanos = Now;
    }
    bool Stale = Cfg.WedgeTimeoutNanos != 0 &&
                 Now - W.LastBeatNanos > Cfg.WedgeTimeoutNanos;
    uint32_t Pid = R->ClientPid.load(std::memory_order_relaxed);

    switch (S) {
    case RingState::Free:
      break;
    case RingState::Claimed:
      // The claimant fills in its identity and beats once; a claim whose
      // identity never arrives (claimant died mid-claim) goes stale and is
      // recycled without ever touching a session.
      if (Beat != 0)
        handleClaim(I);
      else if (Stale || pidGone(Pid))
        sanitizeRing(I);
      break;
    case RingState::Ready:
      if (pidGone(Pid)) {
        St.ProducersReaped.fetch_add(1, std::memory_order_relaxed);
        reapRing(I, true);
        break;
      }
      Frames += consumeRing(I, Draining);
      // Re-read: consuming may have killed or closed the ring.
      if (static_cast<RingState>(R->State.load(
              std::memory_order_acquire)) == RingState::Ready &&
          Stale) {
        St.ProducersWedged.fetch_add(1, std::memory_order_relaxed);
        reapRing(I, false);
      }
      break;
    case RingState::Closing:
      serveClose(I);
      break;
    case RingState::Refused:
    case RingState::Closed:
      // Waiting for the client to read the outcome; if it died first, the
      // outcome is undeliverable — recycle. Staleness is no evidence here:
      // the client does not beat while it waits for the outcome, and a
      // live client recycled under its wait would spin to its deadline
      // (or release a ring that is no longer its own).
      if (pidGone(Pid))
        sanitizeRing(I);
      break;
    case RingState::Released:
      // Orderly handoff: the producer promises it is done with the
      // mapping before setting Released, so the ring is recyclable now.
      sanitizeRing(I);
      break;
    case RingState::Reaped:
      // Quarantined: a wedged-but-alive producer may still scribble here,
      // and that is exactly why the ring is not recycled until the pid is
      // gone (DESIGN.md §17 crash-reap soundness).
      if (pidGone(Pid))
        sanitizeRing(I);
      break;
    }
  }

  if (!Svc.consumersRunning())
    Svc.makeProgress();
  return Frames;
}

void ShmServer::runLoop(const std::atomic<bool> &Stop, int TimeoutMs) {
  // Only park on the doorbell after an idle pass. Producers ring solely on
  // empty->nonempty transitions, so a ring that stayed non-empty (the batch
  // cap left residue) never re-rings — waiting here would add TimeoutMs of
  // dead air between every batch.
  size_t Last = 1;
  while (!Stop.load(std::memory_order_relaxed) &&
         !StopFlag.load(std::memory_order_relaxed) && !Drained)
    Last = pollOnce(Last ? 0 : TimeoutMs);
}

void ShmServer::handleClaim(uint32_t I) {
  ShmRingHdr *R = Seg.ring(I);
  RingSw &W = Sw[I];
  uint64_t Cid = R->ClientId.load(std::memory_order_acquire);
  unsigned Priority = R->Priority.load(std::memory_order_relaxed);
  // Clock handshake: the producer stamped its monotonic now into
  // ClockOrigin just before flipping the ring to Claimed, so the offset is
  // measured under the claim's one-way latency. 0 = legacy producer that
  // never wrote the word; origins then pass through uncorrected.
  uint64_t ClientNow = R->ClockOrigin.load(std::memory_order_relaxed);
  std::optional<int64_t> Offset;
  if (ClientNow)
    Offset = (int64_t)now() - (int64_t)ClientNow;

  auto Refuse = [&](RingCode Code, uint64_t RetryNs) {
    R->OpenCode.store(static_cast<uint32_t>(Code), std::memory_order_relaxed);
    R->Control.store(RetryNs, std::memory_order_relaxed);
    St.OpensRefused.fetch_add(1, std::memory_order_relaxed);
    R->State.store(static_cast<uint32_t>(RingState::Refused),
                   std::memory_order_release);
  };

  if (Seg.hdr()->State.load(std::memory_order_relaxed) !=
      static_cast<uint32_t>(SegState::Running)) {
    Refuse(RingCode::Shutdown, 0);
    return;
  }

  StreamOpen O = Streams.open(Svc, Cid, Priority, I, Offset, [&](uint64_t Old) {
    uint32_t OldRing = static_cast<uint32_t>(Old);
    if (!pidGone(Seg.ring(OldRing)->ClientPid.load(std::memory_order_relaxed)))
      return false;
    // The previous incarnation is dead but not yet reaped: drain its
    // published frames NOW so the resume point is exact.
    St.ProducersReaped.fetch_add(1, std::memory_order_relaxed);
    reapRing(OldRing, true);
    return true;
  });
  if (!O.St) {
    Refuse(O.K == StreamOpen::Kind::Busy ? RingCode::Busy : RingCode::Admission,
           O.RetryAfterNanos);
    return;
  }
  // A resume is the mirror of `ok open <id> resumed expect=<n>`.
  if (O.K == StreamOpen::Kind::Resumed)
    St.Resumes.fetch_add(1, std::memory_order_relaxed);
  W.ClientId = Cid;
  St.Claims.fetch_add(1, std::memory_order_relaxed);
  R->Resume.store(O.St->Expect, std::memory_order_relaxed);
  R->Acked.store(O.St->Expect, std::memory_order_relaxed);
  R->Control.store(0, std::memory_order_relaxed);
  R->OpenCode.store(static_cast<uint32_t>(RingCode::Ok),
                    std::memory_order_relaxed);
  R->State.store(static_cast<uint32_t>(RingState::Ready),
                 std::memory_order_release);
}

/// Frames consumed from one ring before moving on (fairness bound).
static constexpr uint32_t ConsumeBatch = 256;

size_t ShmServer::consumeRing(uint32_t I, bool Draining) {
  ShmRingHdr *R = Seg.ring(I);
  ShmSlot *Slots = Seg.slots(I);
  RingSw &W = Sw[I];
  const uint32_t Mask = Seg.mask();
  const uint32_t Cap = Seg.hdr()->SlotsPerRing;

  ClientStream *B = Streams.find(W.ClientId);
  if (!B) {
    // A ring without a stream is a server bug turned defensive:
    // quarantine rather than feed an unowned stream.
    R->State.store(static_cast<uint32_t>(RingState::Reaped),
                   std::memory_order_release);
    return 0;
  }

  const FeedMode Mode = Draining ? FeedMode::Settle : FeedMode::Live;
  size_t Frames = 0;
  uint64_t SlotsLocal = 0;
  uint64_t FrameT0 = 0;
  while (Frames < ConsumeBatch) {
    if (!Draining && W.NotBefore != 0) {
      if (now() < W.NotBefore)
        break; // backpressure gate still closed
      W.NotBefore = 0;
    }
    uint64_t Hd = W.Pos;
    ShmSlot &Head = Slots[Hd & Mask];
    if (Head.Seq.load(std::memory_order_acquire) != Hd + 1)
      break; // empty (or the producer's header store has not landed)

    // The latency series is sampled 1-in-8: the histogram's four RMWs plus
    // two clock reads cost as much as the decode they measure, and a
    // stationary series quantizes to the same buckets either way.
    bool SampleLat = (Frames & 7) == 0;
    if (SampleLat)
      FrameT0 = now();
    FrameHead H;
    std::memcpy(&H, Head.Payload, sizeof(H));

    uint32_t Pairs = 0;
    uint32_t NSlots = 1;
    if (H.Op == opOf(ActionKind::Commit)) {
      Pairs = uint32_t(H.NumReads) + uint32_t(H.NumWrites);
      NSlots = frameSlots(Pairs);
    }
    if (NSlots > Cap / 2) {
      St.DecodeErrors.fetch_add(1, std::memory_order_relaxed);
      closeRing(I, RingCode::Decode);
      return Frames;
    }
    // Continuation slots were published (release) before the header, so
    // they must all be visible; a hole is a protocol violation.
    bool Corrupt = false;
    for (uint32_t K = 1; K != NSlots; ++K) {
      uint64_t P = Hd + K;
      if (Slots[P & Mask].Seq.load(std::memory_order_acquire) != P + 1) {
        Corrupt = true;
        break;
      }
    }
    Action A;
    CommitSets CS;
    bool HasCS = false;
    if (!Corrupt) {
      uint32_t NextSlot = 1, SlotPair = 0;
      auto NextPair = [&](uint32_t &Obj, uint32_t &Fld) {
        const unsigned char *P =
            Slots[(Hd + NextSlot) & Mask].Payload + SlotPair * 8;
        std::memcpy(&Obj, P, 4);
        std::memcpy(&Fld, P + 4, 4);
        if (++SlotPair == PairsPerContSlot) {
          SlotPair = 0;
          ++NextSlot;
        }
      };
      Corrupt = !decodeFrame(H, A, CS, HasCS, NextPair);
    }
    if (Corrupt) {
      // A same-host producer wrote garbage (the shm-slot-corrupt
      // failpoint, or a real bug): silently skipping the frame would be
      // an unaccounted verdict divergence, so the session dies instead.
      St.DecodeErrors.fetch_add(1, std::memory_order_relaxed);
      closeRing(I, RingCode::Decode);
      return Frames;
    }

    auto FreeSlots = [&] {
      for (uint32_t K = 0; K != NSlots; ++K) {
        uint64_t P = Hd + K;
        Slots[P & Mask].Seq.store(P + Cap, std::memory_order_release);
      }
      W.Pos += NSlots;
      SlotsLocal += NSlots;
    };

    SeqClass SC = B->classify(H.ClientSeq);
    if (SC == SeqClass::Dup) {
      // Idempotent retransmit after a resume: already applied.
      St.DupFrames.fetch_add(1, std::memory_order_relaxed);
      FreeSlots();
      continue;
    }
    if (SC == SeqClass::Ahead) {
      // Same-host streams cannot lose frames in transit; a gap means the
      // producer's replay logic is broken. Crash-only, like any other
      // protocol violation.
      St.SeqViolations.fetch_add(1, std::memory_order_relaxed);
      closeRing(I, RingCode::Decode);
      return Frames;
    }

    FrameTrace FT;
    const FrameTrace *FTp =
        B->trace(Svc, W.ClientId, H.ClientSeq, H.OriginNanos, FT);
    FeedResult FR = feedFrame(Svc, Mode, [&] {
      return B->S->feedAction(A, HasCS ? &CS : nullptr, NSlots * SlotBytes,
                              FTp);
    });
    if (FR.St == FeedResult::Status::Backpressure) {
      if (Mode == FeedMode::Live) {
        // Wire-level backpressure: leave the frame in the ring and hand the
        // producer the service's jittered schedule via the control word —
        // the same hint the TCP path puts in `retry-after-ns=`.
        R->Control.store(FR.RetryAfterNanos, std::memory_order_release);
        W.NotBefore = now() + FR.RetryAfterNanos;
        St.BackpressureWrites.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      // Consumed-as-dropped: counted, never silent.
      St.DrainDroppedFrames.fetch_add(1, std::memory_order_relaxed);
    } else if (FR.St == FeedResult::Status::Closed) {
      closeRing(I, RingCode::SessionDead);
      return Frames;
    }
    // Rejected frames are consumed too (the session charged its own error
    // budget; a budget-exhausted session surfaces as Closed next frame).
    B->advance();
    R->Acked.store(B->Expect, std::memory_order_release);
    if (R->Control.load(std::memory_order_relaxed) != 0)
      R->Control.store(0, std::memory_order_relaxed);
    FreeSlots();
    ++Frames;
    if (SampleLat)
      EnqueueLatency.record(now() - FrameT0);
  }
  if (Frames)
    St.FramesIn.fetch_add(Frames, std::memory_order_relaxed);
  if (SlotsLocal)
    St.SlotsIn.fetch_add(SlotsLocal, std::memory_order_relaxed);

  // Publish where the consumer stands when it has drained the ring, so
  // the producer knows its next publish is an empty->nonempty transition
  // (and only then rings the doorbell).
  if (Slots[W.Pos & Mask].Seq.load(std::memory_order_acquire) != W.Pos + 1)
    R->ConsumeHint.store(W.Pos, std::memory_order_release);
  return Frames;
}

void ShmServer::writeVerdictsLocked(uint32_t I, Session &S) {
  ShmRingHdr *R = Seg.ring(I);
  std::vector<RaceReport> Races = S.takeVerdicts();
  uint32_t N = 0;
  for (const RaceReport &Rep : Races) {
    if (N == VerdictCap) {
      St.VerdictsTruncated.fetch_add(Races.size() - N,
                                     std::memory_order_relaxed);
      R->VerdictsTruncated.store(
          static_cast<uint32_t>(Races.size() - N), std::memory_order_relaxed);
      break;
    }
    R->Verdicts[N].Object = Rep.Var.Object;
    R->Verdicts[N].Field = Rep.Var.Field;
    ++N;
  }
  St.VerdictsWritten.fetch_add(N, std::memory_order_relaxed);
  R->RaceCount.store(N, std::memory_order_relaxed);
}

void ShmServer::serveClose(uint32_t I) {
  ShmRingHdr *R = Seg.ring(I);
  RingSw &W = Sw[I];

  // Settle everything the producer published before it asked to close.
  while (consumeRing(I, /*Draining=*/true) != 0) {
  }
  if (static_cast<RingState>(R->State.load(std::memory_order_acquire)) !=
      RingState::Closing)
    return; // consuming killed the ring; its path wrote the outcome

  ClientStream *B = Streams.find(W.ClientId);
  if (!B || B->Owner != I) {
    // The stream moved on without us (a resume claimed another ring while
    // this one sat in Closing with a dead producer): never close a session
    // another ring now owns. Quarantine; pid-death recycles it.
    R->State.store(static_cast<uint32_t>(RingState::Reaped),
                   std::memory_order_release);
    return;
  }
  // Unsettled within the bound: the ring stays Closing; next round retries.
  if (closeRing(I, RingCode::Ok))
    St.ClosesServed.fetch_add(1, std::memory_order_relaxed);
}

bool ShmServer::closeRing(uint32_t I, RingCode Code) {
  ShmRingHdr *R = Seg.ring(I);
  RingSw &W = Sw[I];
  if (ClientStream *B = Streams.find(W.ClientId)) {
    Session &S = *B->S;
    // The close rule (DESIGN.md §14): an orderly close answers only with
    // the complete verdict set. A killed stream reports the verdicts it
    // has under its kill code: the stream died, not the accounting.
    if (!settleClose(Svc, S) && Code == RingCode::Ok)
      return false;
    writeVerdictsLocked(I, S);
    Streams.erase(W.ClientId);
  }
  R->OpenCode.store(static_cast<uint32_t>(Code), std::memory_order_relaxed);
  R->State.store(static_cast<uint32_t>(RingState::Closed),
                 std::memory_order_release);
  return true;
}

void ShmServer::reapRing(uint32_t I, bool PidDead) {
  ShmRingHdr *R = Seg.ring(I);
  RingSw &W = Sw[I];

  // Drain every fully-published frame first: that makes the Expect a
  // future resume hands out exact. A frame the producer died inside never
  // published its header slot, so it is invisible here by construction —
  // the reincarnated producer replays it from its own buffer.
  while (consumeRing(I, /*Draining=*/true) != 0) {
  }
  if (static_cast<RingState>(R->State.load(std::memory_order_acquire)) !=
      RingState::Ready)
    return; // draining killed it; that path already settled the outcome

  // The session is NOT closed: the client may reincarnate and resume
  // (service idle timeout reaps truly abandoned sessions).
  Streams.unbind(W.ClientId, I);
  R->State.store(static_cast<uint32_t>(RingState::Reaped),
                 std::memory_order_release);
  if (PidDead)
    sanitizeRing(I);
}

void ShmServer::sanitizeRing(uint32_t I) {
  ShmRingHdr *R = Seg.ring(I);
  ShmSlot *Slots = Seg.slots(I);
  // Rewrite EVERY slot sequence: a producer that died mid-frame left
  // continuation slots published with no header, which would wedge the
  // next producer's free-slot check forever. Only the server does this,
  // and only once the owning pid cannot write anymore.
  for (uint32_t K = 0; K != Seg.hdr()->SlotsPerRing; ++K)
    Slots[K].Seq.store(K, std::memory_order_relaxed);
  R->ClientId.store(0, std::memory_order_relaxed);
  R->ClientPid.store(0, std::memory_order_relaxed);
  R->Priority.store(0, std::memory_order_relaxed);
  R->Heartbeat.store(0, std::memory_order_relaxed);
  R->Acked.store(0, std::memory_order_relaxed);
  R->ConsumeHint.store(0, std::memory_order_relaxed);
  R->RaceCount.store(0, std::memory_order_relaxed);
  R->VerdictsTruncated.store(0, std::memory_order_relaxed);
  R->Control.store(0, std::memory_order_relaxed);
  R->Resume.store(0, std::memory_order_relaxed);
  R->OpenCode.store(0, std::memory_order_relaxed);
  R->Gen.fetch_add(1, std::memory_order_relaxed);
  Sw[I] = RingSw();
  St.RingsRecycled.fetch_add(1, std::memory_order_relaxed);
  R->State.store(static_cast<uint32_t>(RingState::Free),
                 std::memory_order_release);
}

void ShmServer::drainAndStop() {
  if (Drained || !Seg.Base)
    return;
  Seg.hdr()->State.store(static_cast<uint32_t>(SegState::Draining),
                         std::memory_order_release);
  for (uint32_t I = 0; I != Cfg.Rings; ++I) {
    ShmRingHdr *R = Seg.ring(I);
    switch (static_cast<RingState>(R->State.load(std::memory_order_acquire))) {
    case RingState::Claimed:
      R->OpenCode.store(static_cast<uint32_t>(RingCode::Shutdown),
                        std::memory_order_relaxed);
      R->State.store(static_cast<uint32_t>(RingState::Refused),
                     std::memory_order_release);
      break;
    case RingState::Ready: {
      // Settle what was published (counted when it cannot land), then
      // close out with the verdicts: SIGTERM must not strand a stream.
      while (consumeRing(I, /*Draining=*/true) != 0) {
      }
      if (static_cast<RingState>(R->State.load(
              std::memory_order_acquire)) == RingState::Ready)
        closeRing(I, RingCode::Shutdown);
      break;
    }
    case RingState::Closing:
      serveClose(I);
      break;
    default:
      break;
    }
  }
  Drained = true;
}

ShmStats ShmServer::stats() const {
  ShmStats S;
  St.loadInto(S);
  return S;
}

void ShmServer::addMetrics(TelemetrySnapshot &Snap) const {
  addCounters(Snap, "shm.", stats());
  Snap.Histograms.push_back(EnqueueLatency.snapshot("shm.enqueue_latency_ns"));
  // The transport always records its latency histogram, so the rendered
  // document is 'full' regardless of the service telemetry level.
  if (Snap.Level < TelemetryLevel::Full)
    Snap.Level = TelemetryLevel::Full;
}

void ShmServer::addHealth(JsonWriter &J) const {
  J.key("shm");
  J.beginObject();
  jsonCounters(J, stats());
  J.endObject();
}

std::string ShmServer::healthJson(bool Interrupted) const {
  return composeHealthJson(Svc, "goldilocks-shmserver", Interrupted, {this});
}

TelemetrySnapshot ShmServer::metricsSnapshot() const {
  return composeMetrics(Svc, {this});
}
