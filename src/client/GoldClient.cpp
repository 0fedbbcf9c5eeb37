//===- client/GoldClient.cpp - Detection-service client library -----------===//

#include "client/GoldClient.h"

#include "event/TraceIO.h"
#include "service/Tracing.h"
#include "service/net/Protocol.h"
#include "support/Failpoints.h"
#include "support/Telemetry.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <time.h>
#include <sched.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

using namespace gold;
using namespace gold::client;

namespace {

/// Claim-poll / state-poll cadence: short enough that connect latency is
/// dominated by the server's loop timeout, long enough not to spin.
constexpr uint64_t PollNanos = 100 * 1000;
/// Frames buffered before a shm pump; slots are published in bursts of
/// this many. Small enough that the ring never starves, large enough to
/// amortize the per-pump preamble.
constexpr uint64_t ShmBatch = 8;
/// TCP pipelining batch (frames written before reply processing).
constexpr size_t TcpBatch = 16;
/// `stat` poll cadence while unsent work exists (TCP), in frames.
constexpr size_t StatEveryFrames = 512;
/// Non-progressing `stat` polls before the cursor rewinds to expect.
constexpr unsigned StatStallPolls = 3;
/// Ceiling for any single backoff sleep.
constexpr uint64_t MaxWaitNanos = 5ull * 1000000;
/// Admission priority sent in the shm ring's Priority word and on the TCP
/// `open <id> <priority>` line: the servers' default.
constexpr unsigned SessionPriority = 1;

} // namespace

//===----------------------------------------------------------------------===//
// Transport state
//===----------------------------------------------------------------------===//

struct GoldClient::ShmState {
  int Fd = -1;
  shm::SegView Seg;
  uint32_t Ring = 0;  ///< index of the claimed ring
  uint64_t Pos = 0;   ///< producer slot position (monotonic)
  bool Attached = false;

  shm::ShmRingHdr *hdr() const { return Seg.ring(Ring); }
  shm::ShmSlot *slots() const { return Seg.slots(Ring); }

  ~ShmState() {
    if (Seg.Base)
      ::munmap(Seg.Base, Seg.Bytes);
    if (Fd >= 0)
      ::close(Fd);
  }
};

struct GoldClient::TcpState {
  int Fd = -1;
  std::string In;           ///< unconsumed reply bytes
  std::string CloseReply;   ///< latest reply to close
  uint64_t FramesSinceStat = 0;
  uint64_t LastStatNanos = 0;
  uint64_t LastStatAccepted = UINT64_MAX;
  unsigned StallPolls = 0;
  bool StatPending = false;
  bool NeedReconnect = false;

  ~TcpState() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

//===----------------------------------------------------------------------===//
// Construction / small helpers
//===----------------------------------------------------------------------===//

GoldClient::GoldClient(GoldClientConfig C) : Cfg(std::move(C)) {}

GoldClient::~GoldClient() {
  // Leaving without closeAndCollect: hand the ring back so the server can
  // recycle it without waiting for our pid to die.
  if (Shm && Shm->Attached) {
    uint32_t S = Shm->hdr()->State.load(std::memory_order_acquire);
    if (S == static_cast<uint32_t>(shm::RingState::Ready) ||
        S == static_cast<uint32_t>(shm::RingState::Closed) ||
        S == static_cast<uint32_t>(shm::RingState::Reaped))
      Shm->hdr()->State.store(static_cast<uint32_t>(shm::RingState::Released),
                              std::memory_order_release);
  }
}

uint64_t GoldClient::nowNanos() const {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

void GoldClient::sleepNanos(uint64_t Ns) const {
  if (Ns == 0)
    return;
  if (Ns > MaxWaitNanos)
    Ns = MaxWaitNanos;
  timespec Ts;
  Ts.tv_sec = static_cast<time_t>(Ns / 1000000000ull);
  Ts.tv_nsec = static_cast<long>(Ns % 1000000000ull);
  ::nanosleep(&Ts, nullptr);
}

const GoldClient::Rec &GoldClient::recAt(uint64_t Seq) const {
  return Buf[static_cast<size_t>(Seq - BaseSeq)];
}

void GoldClient::pruneAcked(uint64_t Upto) {
  if (Upto > NextSeq)
    Upto = NextSeq;
  uint64_t AckNanos = 0; // one clock read per prune batch, lazily
  while (BaseSeq < Upto && !Buf.empty()) {
    const Rec &R = Buf.front();
    if (R.OriginNanos) {
      if (!AckNanos)
        AckNanos = nowNanos();
      uint64_t Dur = AckNanos > R.OriginNanos ? AckNanos - R.OriginNanos : 0;
      if (Cfg.TraceSink)
        Cfg.TraceSink->spanTagged("client_e2e", "pipe",
                                  static_cast<uint32_t>(Cfg.ClientId),
                                  R.OriginNanos, Dur, Cfg.ClientId, BaseSeq);
    }
    Buf.pop_front();
    ++BaseSeq;
  }
  if (SendSeq < BaseSeq)
    SendSeq = BaseSeq;
  if (Upto > St.Acked)
    St.Acked = Upto;
}

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

bool GoldClient::connect(std::string &Err) {
  if (Cfg.ShmPath.empty() == (Cfg.Port == 0)) {
    Err = "gold-client: configure exactly one transport (ShmPath or Port)";
    return false;
  }
  if (!Cfg.ShmPath.empty())
    return connectShm(Err);
  return connectTcp(Err, /*Resuming=*/false);
}

bool GoldClient::publish(const Action &A, const CommitSets *CS) {
  if (Dead) {
    ++St.Shed;
    return false;
  }
  if (Buf.size() >= Cfg.BufferCapActions) {
    // One opportunistic pump may free acked records before we shed.
    std::string Err;
    pump(Err);
    if (Dead || Buf.size() >= Cfg.BufferCapActions) {
      ++St.Shed;
      return false;
    }
  }
  Rec R;
  R.A = A;
  if (A.Kind == ActionKind::Commit && CS)
    R.CS = std::make_shared<CommitSets>(*CS);
  // Sampling is decided HERE, with the same deterministic (seed, ordinal)
  // hash the server uses: unsampled frames are never stamped, carry zero
  // extra wire bytes, and cost the whole pipeline nothing but this hash —
  // the O(1)-samples discipline that keeps tracing within noise when on.
  if (Cfg.TraceFrames && traceSampled(Cfg.TraceSeed, Cfg.ClientId, NextSeq,
                                      Cfg.TraceSampleRatePpm))
    R.OriginNanos = nowNanos();
  Buf.push_back(std::move(R));
  ++NextSeq;
  ++St.Published;

  std::string Err;
  // Publication is batched on both transports (flush() ships any tail):
  // a pump costs a fixed preamble — heartbeat, ack pruning, state checks —
  // that amortizes over ShmBatch frames of a couple of stores each.
  if (Shm) {
    if (NextSeq - SendSeq >= ShmBatch)
      pump(Err);
  } else if (NextSeq - SendSeq >= TcpBatch) {
    pump(Err);
  }
  return !Dead;
}

bool GoldClient::publishLine(const std::string &Line) {
  if (!LineParser)
    LineParser = std::make_unique<TraceParser>();
  if (!LineParser->feedLine(Line))
    return false;
  // take() hands off the accepted actions (and resets the builder) while
  // preserving the fork registry, so the parser never accumulates a journal.
  Trace T = LineParser->take();
  bool Ok = true;
  for (const Action &A : T.Actions)
    Ok = publish(A, A.Kind == ActionKind::Commit ? &T.commitSets(A) : nullptr)
         && Ok;
  return Ok;
}

bool GoldClient::flush(std::string &Err) {
  uint64_t Deadline = nowNanos() + Cfg.OpTimeoutNanos;
  while (SendSeq < NextSeq) {
    uint64_t Before = SendSeq;
    if (!pump(Err))
      return false;
    if (SendSeq == NextSeq)
      break;
    if (SendSeq == Before)
      sleepNanos(PollNanos);
    if (nowNanos() > Deadline) {
      Err = "gold-client: flush timed out with " +
            std::to_string(NextSeq - SendSeq) + " actions unsent";
      return false;
    }
  }
  return true;
}

bool GoldClient::closeAndCollect(std::vector<std::string> &RaceVars,
                                 std::string &Err) {
  RaceVars.clear();
  uint64_t Deadline = nowNanos() + Cfg.OpTimeoutNanos;
  if (!flush(Err)) {
    RaceVars = PendingRaces;
    return false;
  }

  if (Shm) {
    shm::ShmRingHdr *H = Shm->hdr();
    // Flip Ready -> Closing; a wedge-reap racing us is handled by pump()
    // (re-claim + resume) and we retry until the deadline.
    for (;;) {
      uint32_t Exp = static_cast<uint32_t>(shm::RingState::Ready);
      if (H->State.compare_exchange_strong(
              Exp, static_cast<uint32_t>(shm::RingState::Closing),
              std::memory_order_acq_rel, std::memory_order_acquire))
        break;
      if (!pump(Err) || !flush(Err)) {
        RaceVars = PendingRaces;
        return false;
      }
      H = Shm->hdr(); // pump may have re-claimed a different ring
      sleepNanos(PollNanos);
      if (nowNanos() > Deadline) {
        Err = "gold-client: close timed out waiting for a Ready ring";
        return false;
      }
    }
    shmRingDoorbell();
    while (H->State.load(std::memory_order_acquire) !=
           static_cast<uint32_t>(shm::RingState::Closed)) {
      sleepNanos(PollNanos);
      if (nowNanos() > Deadline) {
        Err = "gold-client: close timed out waiting for verdicts";
        return false;
      }
    }
    // The close-drain just consumed the tail of the stream; prune against
    // the final ack count BEFORE releasing the ring, or every frame acked
    // by the drain (usually most of them — shm acks are batched) would be
    // dropped without recording its client-side e2e latency/span.
    pruneAcked(H->Acked.load(std::memory_order_acquire));
    shm::RingCode Code = static_cast<shm::RingCode>(
        H->OpenCode.load(std::memory_order_relaxed));
    uint32_t N = static_cast<uint32_t>(
        H->RaceCount.load(std::memory_order_relaxed));
    if (N > shm::VerdictCap)
      N = shm::VerdictCap;
    char VBuf[32];
    for (uint32_t K = 0; K != N; ++K) {
      std::snprintf(VBuf, sizeof(VBuf), "o%u.f%u", H->Verdicts[K].Object,
                    H->Verdicts[K].Field);
      RaceVars.push_back(VBuf);
    }
    bool Truncated = H->VerdictsTruncated.load(std::memory_order_relaxed) != 0;
    H->State.store(static_cast<uint32_t>(shm::RingState::Released),
                   std::memory_order_release);
    Shm->Attached = false;
    if (Code != shm::RingCode::Ok) {
      // The close-drain tripped over a protocol violation (e.g. a corrupt
      // frame still in the ring): the verdicts delivered are the ones
      // accepted before the kill, and the caller must know the stream died.
      Dead = true;
      DeadWhy = std::string("gold-client: ring killed: ") +
                shm::ringCodeName(Code);
      Err = DeadWhy;
      return false;
    }
    if (Truncated) {
      Err = "gold-client: verdict area truncated (more races than VerdictCap)";
      return false;
    }
    return true;
  }

  // TCP: every line must be *accepted* (not just written) before close, or
  // a backpressure-refused tail would be silently dropped by the drain.
  while (BaseSeq < NextSeq) {
    if (!pump(Err)) {
      RaceVars = PendingRaces;
      return false;
    }
    sleepNanos(PollNanos);
    if (nowNanos() > Deadline) {
      Err = "gold-client: close timed out with " +
            std::to_string(NextSeq - BaseSeq) + " actions unacknowledged";
      return false;
    }
  }
  char Req[64];
  int N = net::proto::fmtClose(Req, sizeof(Req), Cfg.ClientId);
  for (;;) {
    // Close must go down a live socket. A connection lost before the reply
    // (the server gave up on a half-open peer, or said bye) took the close
    // with it; the session is still open, so reconnect-resume and resend.
    if (!Tcp || Tcp->NeedReconnect) {
      if (nowNanos() > Deadline) {
        Err = "gold-client: connection closed before the close reply";
        RaceVars = PendingRaces;
        return false;
      }
      if (!pump(Err) || !Tcp) {
        RaceVars = PendingRaces;
        return false;
      }
      continue;
    }
    Tcp->CloseReply.clear();
    if (::send(Tcp->Fd, Req, size_t(N), MSG_NOSIGNAL) != N) {
      Tcp->NeedReconnect = true;
      continue;
    }
    while (Tcp->CloseReply.empty() && !Tcp->NeedReconnect) {
      pollfd P{Tcp->Fd, POLLIN, 0};
      ::poll(&P, 1, 5);
      std::string L;
      char Tmp[4096];
      ssize_t G = ::recv(Tcp->Fd, Tmp, sizeof(Tmp), MSG_DONTWAIT);
      if (G > 0)
        Tcp->In.append(Tmp, size_t(G));
      else if (G == 0)
        Tcp->NeedReconnect = true; // lines already read still count
      size_t Nl;
      while ((Nl = Tcp->In.find('\n')) != std::string::npos) {
        L.assign(Tcp->In, 0, Nl);
        Tcp->In.erase(0, Nl + 1);
        if (!tcpHandleReply(L, Err) && Dead) {
          RaceVars = PendingRaces;
          return false;
        }
      }
      if (nowNanos() > Deadline) {
        Err = "gold-client: close timed out waiting for the reply";
        RaceVars = PendingRaces;
        return false;
      }
    }
    if (Tcp->CloseReply.empty())
      continue; // the connection died first: heal it and resend
    const std::string &R = Tcp->CloseReply;
    if (net::proto::hasPrefix(R, net::proto::OkClose)) {
      RaceVars = PendingRaces;
      return true;
    }
    uint64_t Ns = 0;
    if (net::proto::isBackpressure(R) ||
        net::proto::parseRetryAfter(R, Ns)) {
      ++St.Backpressures;
      sleepNanos(Ns ? Ns : PollNanos);
      continue; // resend close
    }
    Err = "gold-client: close refused: " + R;
    RaceVars = PendingRaces;
    return false;
  }
}

bool GoldClient::pump(std::string &Err) {
  if (Dead) {
    Err = DeadWhy;
    return false;
  }
  bool Ok = Shm ? pumpShm(Err) : (Tcp ? pumpTcp(Err) : true);
  if (!Ok && Err.empty())
    Err = DeadWhy;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Shared-memory fast path
//===----------------------------------------------------------------------===//

void GoldClient::shmRingDoorbell() {
  std::atomic<uint32_t> &D = Shm->Seg.hdr()->Doorbell;
  D.fetch_add(1, std::memory_order_release);
#ifdef __linux__
  ::syscall(SYS_futex, reinterpret_cast<uint32_t *>(&D), FUTEX_WAKE, INT_MAX,
            nullptr, nullptr, 0);
#endif
  ++St.DoorbellRings;
}

bool GoldClient::connectShm(std::string &Err) {
  auto S = std::make_unique<ShmState>();
  uint64_t Deadline = nowNanos() + Cfg.ShmClaimTimeoutNanos;

  // The server creates the file, sizes it, and publishes Magic last; spin
  // (bounded) until the segment self-describes as live.
  for (;;) {
    if (S->Fd < 0)
      S->Fd = ::open(Cfg.ShmPath.c_str(), O_RDWR);
    if (S->Fd >= 0 && !S->Seg.Base) {
      struct stat Sb;
      if (::fstat(S->Fd, &Sb) == 0 && Sb.st_size > 0) {
        void *M = ::mmap(nullptr, size_t(Sb.st_size), PROT_READ | PROT_WRITE,
                         MAP_SHARED, S->Fd, 0);
        if (M != MAP_FAILED) {
          S->Seg.Base = static_cast<unsigned char *>(M);
          S->Seg.Bytes = size_t(Sb.st_size);
        }
      }
    }
    if (S->Seg.Base && S->Seg.valid())
      break;
    if (nowNanos() > Deadline) {
      Err = "gold-client: shm segment " + Cfg.ShmPath +
            " not available (server not started?)";
      return false;
    }
    sleepNanos(PollNanos);
  }

  Shm = std::move(S);
  std::string ClaimErr;
  if (shmReclaim(ClaimErr))
    return true;
  Err = ClaimErr;
  Shm.reset();
  return false;
}

/// Claims a Free ring and waits for the server's Ready/Refused answer.
/// Used both for the initial attach and to reincarnate after a reap.
bool GoldClient::shmReclaim(std::string &Err) {
  shm::ShmSegHdr *SH = Shm->Seg.hdr();
  uint64_t Deadline = nowNanos() + Cfg.ShmClaimTimeoutNanos;
  Shm->Attached = false;

  for (;;) {
    if (SH->State.load(std::memory_order_acquire) !=
        static_cast<uint32_t>(shm::SegState::Running)) {
      Err = "gold-client: shm segment is draining";
      return false;
    }
    // Scan for a Free ring and CAS it to Claimed.
    int Claimed = -1;
    for (uint32_t I = 0; I != SH->RingCount && Claimed < 0; ++I) {
      shm::ShmRingHdr *R = Shm->Seg.ring(I);
      uint32_t Exp = static_cast<uint32_t>(shm::RingState::Free);
      if (R->State.load(std::memory_order_acquire) == Exp &&
          R->State.compare_exchange_strong(
              Exp, static_cast<uint32_t>(shm::RingState::Claimed),
              std::memory_order_acq_rel, std::memory_order_acquire))
        Claimed = int(I);
    }
    if (Claimed < 0) {
      if (nowNanos() > Deadline) {
        Err = "gold-client: no free shm ring";
        return false;
      }
      sleepNanos(PollNanos);
      continue;
    }

    Shm->Ring = uint32_t(Claimed);
    Shm->Pos = 0;
    shm::ShmRingHdr *R = Shm->hdr();
    // The server bumps Gen at every recycle (before publishing Free, which
    // our claim CAS acquired), so a changed Gen below means this claim was
    // recycled under us and the ring may belong to someone else now.
    const uint32_t ClaimGen = R->Gen.load(std::memory_order_relaxed);
    R->ClientId.store(Cfg.ClientId, std::memory_order_release);
    R->ClientPid.store(static_cast<uint32_t>(::getpid()),
                       std::memory_order_release);
    R->Priority.store(SessionPriority, std::memory_order_release);
    // Clock handshake: our monotonic now, read by the server at claim to
    // measure the producer->server clock offset for origin correction.
    R->ClockOrigin.store(nowNanos(), std::memory_order_release);
    // Heartbeat != 0 is the "identity complete" signal the server waits
    // for before it reads the claim.
    R->Heartbeat.store(1, std::memory_order_release);
    shmRingDoorbell();

    bool Retry = false;
    for (;;) {
      uint32_t State = R->State.load(std::memory_order_acquire);
      if (R->Gen.load(std::memory_order_relaxed) != ClaimGen) {
        // Recycled as an abandoned claim (we were descheduled past the
        // wedge timeout before our identity landed): not ours to touch.
        Retry = true;
        break;
      }
      if (State == static_cast<uint32_t>(shm::RingState::Ready))
        break;
      if (State == static_cast<uint32_t>(shm::RingState::Reaped)) {
        // Opened and wedge-reaped before we saw Ready (we were descheduled
        // past the server's wedge timeout). Hand the ring back and claim a
        // fresh one; the session survives and the next open resumes it.
        R->State.store(static_cast<uint32_t>(shm::RingState::Released),
                       std::memory_order_release);
        ++St.Reconnects;
        Retry = true;
        break;
      }
      if (State == static_cast<uint32_t>(shm::RingState::Refused)) {
        shm::RingCode Code = static_cast<shm::RingCode>(
            R->OpenCode.load(std::memory_order_relaxed));
        uint64_t RetryNs = R->Control.load(std::memory_order_relaxed);
        R->State.store(static_cast<uint32_t>(shm::RingState::Released),
                       std::memory_order_release);
        if (Code == shm::RingCode::Admission && nowNanos() < Deadline) {
          // The admission gate may reopen; try a fresh claim after the
          // server's retry hint.
          ++St.Backpressures;
          sleepNanos(RetryNs ? RetryNs : PollNanos);
          Retry = true;
          break;
        }
        Err = std::string("gold-client: shm open refused: ") +
              shm::ringCodeName(Code);
        return false;
      }
      if (nowNanos() > Deadline) {
        Err = "gold-client: shm claim timed out";
        return false;
      }
      // Beat while waiting: once the server has posted Ready, only our
      // heartbeat keeps the ring from looking wedged.
      R->Heartbeat.fetch_add(1, std::memory_order_release);
      sleepNanos(PollNanos);
    }
    if (Retry)
      continue;

    // Ready: rewind to the server's resume point and replay from there.
    uint64_t Resume = R->Resume.load(std::memory_order_relaxed);
    if (Resume > 0)
      ++St.Resumes;
    pruneAcked(Resume);
    SendSeq = Resume < BaseSeq ? BaseSeq : (Resume > NextSeq ? NextSeq
                                                             : Resume);
    Shm->Attached = true;
    return true;
  }
}

bool GoldClient::shmPushFrame(const Rec &R, uint64_t Seq, bool &Full) {
  Full = false;
  shm::ShmRingHdr *H = Shm->hdr();
  shm::ShmSlot *Slots = Shm->slots();
  const uint32_t Mask = Shm->Seg.mask();

  shm::FrameHead FH;
  // The origin word is nonzero only on sampled frames (see publish()).
  uint32_t NSlots = shm::encodeHead(FH, R.A, R.CS.get(), Seq, R.OriginNanos);

  // Free-space check on the LAST slot only: slots recycle in order, so if
  // the last one is writable every earlier one is too.
  uint64_t LastPos = Shm->Pos + NSlots - 1;
  if (Slots[LastPos & Mask].Seq.load(std::memory_order_acquire) != LastPos) {
    Full = true;
    return false;
  }

  // Continuation slots first (published before the header so the whole
  // frame becomes visible atomically with the header's release store).
  if (R.CS) {
    uint32_t Pairs = shm::commitPairs(*R.CS);
    uint32_t P = shm::InlinePairs;
    for (uint32_t K = 1; K != NSlots; ++K) {
      uint64_t T = Shm->Pos + K;
      shm::ShmSlot &Slot = Slots[T & Mask];
      for (uint32_t J = 0; J != shm::PairsPerContSlot && P < Pairs; ++J, ++P) {
        const VarId &V = P < R.CS->Reads.size()
                             ? R.CS->Reads[P]
                             : R.CS->Writes[P - R.CS->Reads.size()];
        uint32_t Two[2] = {V.Object, V.Field};
        std::memcpy(Slot.Payload + J * 8, Two, 8);
      }
      Slot.Seq.store(T + 1, std::memory_order_release);
    }
  }

  // Chaos hooks. The stall sits between continuation and header publish:
  // a wedge-reap that fires during it sees a frame with no header — the
  // invisible-by-construction crash-mid-frame case the reap argument needs.
  if (Failpoints::armed() &&
      Failpoints::instance().maybeStall(Failpoint::ShmProducerStall))
    ++St.ProducerStalls;
  if (failpoint(Failpoint::ShmSlotCorrupt)) {
    FH.Op = 0xFF;
    ++St.SlotCorrupts;
  }

  shm::ShmSlot &Head = Slots[Shm->Pos & Mask];
  std::memcpy(Head.Payload, &FH, sizeof(FH));
  bool WasEmpty =
      H->ConsumeHint.load(std::memory_order_acquire) == Shm->Pos;
  Head.Seq.store(Shm->Pos + 1, std::memory_order_release);
  Shm->Pos += NSlots;
  ++St.FramesOut;
  St.SlotsOut += NSlots;
  if (WasEmpty)
    shmRingDoorbell();
  return true;
}

bool GoldClient::pumpShm(std::string &Err) {
  shm::ShmRingHdr *H = Shm->hdr();
  uint32_t State = H->State.load(std::memory_order_acquire);

  if (State == static_cast<uint32_t>(shm::RingState::Reaped)) {
    // Wedge-reaped while alive: release the quarantined ring (promising no
    // further writes) and reincarnate with a resume.
    pruneAcked(H->Acked.load(std::memory_order_acquire));
    H->State.store(static_cast<uint32_t>(shm::RingState::Released),
                   std::memory_order_release);
    Shm->Attached = false;
    ++St.Reconnects;
    if (!shmReclaim(Err)) {
      Dead = true;
      DeadWhy = Err;
      return false;
    }
    H = Shm->hdr();
    State = H->State.load(std::memory_order_acquire);
  }
  if (State == static_cast<uint32_t>(shm::RingState::Closed)) {
    // The server killed the stream (decode error / session death). Collect
    // whatever verdicts it wrote, acknowledge, and report the death.
    shm::RingCode Code = static_cast<shm::RingCode>(
        H->OpenCode.load(std::memory_order_relaxed));
    uint32_t N = static_cast<uint32_t>(
        H->RaceCount.load(std::memory_order_relaxed));
    if (N > shm::VerdictCap)
      N = shm::VerdictCap;
    char VBuf[32];
    for (uint32_t K = 0; K != N; ++K) {
      std::snprintf(VBuf, sizeof(VBuf), "o%u.f%u", H->Verdicts[K].Object,
                    H->Verdicts[K].Field);
      PendingRaces.push_back(VBuf);
    }
    H->State.store(static_cast<uint32_t>(shm::RingState::Released),
                   std::memory_order_release);
    Shm->Attached = false;
    Dead = true;
    DeadWhy = std::string("gold-client: ring killed: ") +
              shm::ringCodeName(Code);
    Err = DeadWhy;
    return false;
  }
  if (State != static_cast<uint32_t>(shm::RingState::Ready)) {
    Err = std::string("gold-client: ring in unexpected state ") +
          shm::ringStateName(static_cast<shm::RingState>(State));
    Dead = true;
    DeadWhy = Err;
    return false;
  }

  // Beat even when idle so a slow producer is not mistaken for a wedge.
  H->Heartbeat.fetch_add(1, std::memory_order_release);
  pruneAcked(H->Acked.load(std::memory_order_acquire));

  while (SendSeq < NextSeq) {
    bool Full = false;
    if (shmPushFrame(recAt(SendSeq), SendSeq, Full)) {
      ++SendSeq;
      continue;
    }
    if (!Full)
      break;
    // Ring full: obey the server's backpressure hint if one is posted,
    // then hand control back to the caller (flush paces the retry). With
    // no hint, yield the CPU — on a loaded single core the consumer is
    // what frees slots, and spinning here starves it for a whole quantum.
    uint64_t Ctl = H->Control.load(std::memory_order_acquire);
    if (Ctl != 0) {
      ++St.Backpressures;
      sleepNanos(Ctl);
    } else {
      ::sched_yield();
    }
    break;
  }
  pruneAcked(H->Acked.load(std::memory_order_acquire));
  return true;
}

//===----------------------------------------------------------------------===//
// TCP
//===----------------------------------------------------------------------===//

bool GoldClient::connectTcp(std::string &Err, bool Resuming) {
  uint64_t Deadline = nowNanos() + Cfg.OpTimeoutNanos;
  // A failed handshake attempt is not a failed connect: the listener can
  // drop us from a full backlog, an accept failpoint can fire, or a server
  // read deadline can kill the socket between accept and `open` on a
  // loaded host. Retry until the op deadline; only an explicit refusal
  // (or the deadline itself) is final.
  constexpr uint64_t RetryGapNanos = 2ull * 1000000;
  auto Transient = [&](std::string Why) {
    if (nowNanos() + RetryGapNanos >= Deadline) {
      Err = std::move(Why);
      return false;
    }
    sleepNanos(RetryGapNanos);
    return true;
  };

  for (;;) {
    auto S = std::make_unique<TcpState>();

    addrinfo Hints{};
    Hints.ai_family = AF_UNSPEC;
    Hints.ai_socktype = SOCK_STREAM;
    addrinfo *Res = nullptr;
    char PortBuf[16];
    std::snprintf(PortBuf, sizeof(PortBuf), "%u", unsigned(Cfg.Port));
    int Rc = ::getaddrinfo(Cfg.Host.c_str(), PortBuf, &Hints, &Res);
    if (Rc != 0) {
      // Config error, not weather — retrying a bad hostname helps nobody.
      Err = "gold-client: resolve " + Cfg.Host + ": " + ::gai_strerror(Rc);
      return false;
    }
    for (addrinfo *A = Res; A; A = A->ai_next) {
      S->Fd = ::socket(A->ai_family, A->ai_socktype, A->ai_protocol);
      if (S->Fd < 0)
        continue;
      if (::connect(S->Fd, A->ai_addr, A->ai_addrlen) == 0)
        break;
      ::close(S->Fd);
      S->Fd = -1;
    }
    ::freeaddrinfo(Res);
    if (S->Fd < 0) {
      if (Transient("gold-client: connect " + Cfg.Host + ":" + PortBuf +
                    ": " + std::strerror(errno)))
        continue;
      return false;
    }
    int One = 1;
    ::setsockopt(S->Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

    char Req[64];
    int N = net::proto::fmtOpenPrio(Req, sizeof(Req), Cfg.ClientId,
                                    SessionPriority);
    bool Retry = false;
    for (;;) {
      // The clock handshake stamp must be fresh per attempt: a backpressure
      // sleep between attempts would otherwise skew the measured offset by
      // the whole sleep.
      if (Cfg.TraceFrames)
        N = net::proto::fmtOpenPrioClock(Req, sizeof(Req), Cfg.ClientId,
                                         SessionPriority, nowNanos());
      if (::send(S->Fd, Req, size_t(N), MSG_NOSIGNAL) != N) {
        Retry = Transient("gold-client: open write failed: " +
                          std::string(std::strerror(errno)));
        break;
      }
      // Read the open reply synchronously, answering heartbeats as they
      // interleave: the server pings on its own schedule, and a ping in
      // front of the reply is not a refusal.
      std::string Reply;
      bool Gone = false;
      for (;;) {
        size_t Nl = S->In.find('\n');
        if (Nl != std::string::npos) {
          Reply.assign(S->In, 0, Nl);
          S->In.erase(0, Nl + 1);
          if (net::proto::hasPrefix(Reply, net::proto::Ping)) {
            std::string Pong = "pong" + Reply.substr(4) + "\n";
            if (::send(S->Fd, Pong.data(), Pong.size(), MSG_NOSIGNAL) !=
                ssize_t(Pong.size())) {
              Gone = true;
              break;
            }
            continue;
          }
          break;
        }
        pollfd P{S->Fd, POLLIN, 0};
        ::poll(&P, 1, 50);
        char Tmp[4096];
        ssize_t G = ::recv(S->Fd, Tmp, sizeof(Tmp), MSG_DONTWAIT);
        if (G > 0)
          S->In.append(Tmp, size_t(G));
        else if (G == 0) {
          Gone = true;
          break;
        }
        if (nowNanos() > Deadline) {
          Err = "gold-client: open timed out";
          return false;
        }
      }
      if (Gone) {
        Retry = Transient("gold-client: connection closed during open");
        break;
      }
      if (net::proto::hasPrefix(Reply, net::proto::OkOpen)) {
        uint64_t Expect = 0;
        if (net::proto::parseExpect(Reply, Expect)) {
          if (Resuming)
            ++St.Resumes;
          pruneAcked(Expect);
          SendSeq = Expect < BaseSeq ? BaseSeq
                                     : (Expect > NextSeq ? NextSeq : Expect);
        } else {
          SendSeq = BaseSeq;
        }
        Tcp = std::move(S);
        return true;
      }
      uint64_t RetryNs = 0;
      if (net::proto::parseRetryAfter(Reply, RetryNs) &&
          nowNanos() + RetryNs < Deadline) {
        ++St.Backpressures;
        sleepNanos(RetryNs ? RetryNs : PollNanos);
        continue;
      }
      if (net::proto::hasPrefix(Reply, net::proto::Bye) ||
          net::proto::isBusy(Reply)) {
        // `bye <reason>` is the server hanging up (its read deadline fired
        // while the event loop was busy, or it is shedding); `busy` means
        // our previous connection still owns the session because the
        // server has not reaped it yet. Both are the same weather as a
        // dropped socket, so they get the same retry on a fresh one.
        Retry = Transient("gold-client: open refused: " + Reply);
        break;
      }
      Err = "gold-client: open refused: " + Reply;
      return false;
    }
    if (!Retry)
      return false;
  }
}

bool GoldClient::tcpSendStat(std::string &Err) {
  (void)Err; // a failed stat write routes through the reconnect path
  char Req[64];
  int N = net::proto::fmtStat(Req, sizeof(Req), Cfg.ClientId);
  if (::send(Tcp->Fd, Req, size_t(N), MSG_NOSIGNAL) != N) {
    Tcp->NeedReconnect = true;
    return true; // the reconnect path owns the error
  }
  Tcp->StatPending = true;
  Tcp->FramesSinceStat = 0;
  Tcp->LastStatNanos = nowNanos();
  return true;
}

bool GoldClient::tcpHandleReply(const std::string &L, std::string &Err) {
  using namespace net::proto;

  if (hasPrefix(L, ErrLine)) {
    if (isBackpressure(L)) {
      uint64_t Seq = 0, Ns = 0;
      if (parseSeq(L, Seq) && Seq < SendSeq)
        SendSeq = Seq < BaseSeq ? BaseSeq : Seq;
      parseRetryAfter(L, Ns);
      ++St.Backpressures;
      sleepNanos(Ns ? Ns : PollNanos);
      return true;
    }
    if (isResync(L)) {
      uint64_t Expect = 0;
      if (parseExpect(L, Expect)) {
        pruneAcked(Expect);
        SendSeq = Expect < BaseSeq ? BaseSeq
                                   : (Expect > NextSeq ? NextSeq : Expect);
      }
      ++St.Resyncs;
      return true;
    }
    // "err line <id> closed: ..." / unknown client: the stream is dead.
    Dead = true;
    DeadWhy = "gold-client: " + L;
    Err = DeadWhy;
    return false;
  }
  if (hasPrefix(L, OkStat)) {
    uint64_t Accepted = 0, Expect = 0;
    findU64(L, KeyAccepted, Accepted);
    if (parseExpect(L, Expect))
      pruneAcked(Expect);
    if (L.find(StateDead) != std::string::npos) {
      Dead = true;
      DeadWhy = "gold-client: " + L;
      Err = DeadWhy;
      return false;
    }
    // Stall rewind: accepted lines are silent, so if the server stops
    // making progress while we still owe it data, a backpressure reply
    // was shed — rewind to its expect (dup-dropping makes this free).
    if (BaseSeq < NextSeq) {
      if (Accepted == Tcp->LastStatAccepted) {
        if (++Tcp->StallPolls >= StatStallPolls && Expect < SendSeq) {
          SendSeq = Expect < BaseSeq ? BaseSeq : Expect;
          ++St.StallRewinds;
          Tcp->StallPolls = 0;
        }
      } else {
        Tcp->StallPolls = 0;
      }
    }
    Tcp->LastStatAccepted = Accepted;
    Tcp->StatPending = false;
    return true;
  }
  if (hasPrefix(L, Race)) {
    std::string Var;
    if (raceVar(L, Var))
      PendingRaces.push_back(Var);
    return true;
  }
  if (hasPrefix(L, OkClose) || hasPrefix(L, "err close") ||
      hasPrefix(L, "err verdicts")) {
    Tcp->CloseReply = L;
    return true;
  }
  if (hasPrefix(L, Bye)) {
    Tcp->NeedReconnect = true;
    return true;
  }
  if (hasPrefix(L, Ping)) {
    std::string Pong = "pong" + L.substr(4) + "\n";
    ::send(Tcp->Fd, Pong.data(), Pong.size(), MSG_NOSIGNAL);
    return true;
  }
  if (hasPrefix(L, "err open")) {
    Dead = true;
    DeadWhy = "gold-client: " + L;
    Err = DeadWhy;
    return false;
  }
  return true; // unrecognized chatter is ignored, not fatal
}

bool GoldClient::pumpTcp(std::string &Err) {
  if (Tcp->NeedReconnect) {
    Tcp.reset();
    ++St.Reconnects;
    if (!connectTcp(Err, /*Resuming=*/true)) {
      Dead = true;
      DeadWhy = Err;
      return false;
    }
  }

  // Drain whatever the server said since the last pump.
  for (;;) {
    char Tmp[4096];
    ssize_t G = ::recv(Tcp->Fd, Tmp, sizeof(Tmp), MSG_DONTWAIT);
    if (G > 0) {
      Tcp->In.append(Tmp, size_t(G));
      continue;
    }
    if (G == 0) {
      Tcp->NeedReconnect = true;
      return true; // reconnect on the next pump
    }
    break; // EAGAIN
  }
  size_t Nl;
  while ((Nl = Tcp->In.find('\n')) != std::string::npos) {
    std::string L(Tcp->In, 0, Nl);
    Tcp->In.erase(0, Nl + 1);
    if (!tcpHandleReply(L, Err))
      return false;
    if (Tcp->NeedReconnect)
      return true;
  }

  // Ship the next batch. When net-client-drop fires, the batch shrinks to
  // one frame and the client dies mid-frame instead (the TCP twin of
  // shm-producer-stall): half the line goes out, the socket closes, and the
  // next pump's reconnect-resume heals the stream from the server's expect.
  bool Drop = SendSeq < NextSeq && failpoint(Failpoint::NetClientDrop);
  std::string Out;
  char Head[64];
  size_t Budget = Drop ? 1 : TcpBatch;
  while (SendSeq < NextSeq && Budget--) {
    const Rec &R = recAt(SendSeq);
    // `@origin` rides only on sampled frames — unsampled lines are byte
    // identical to an untraced stream (see publish()).
    int N = R.OriginNanos
                ? net::proto::fmtLineHeadTraced(Head, sizeof(Head),
                                                Cfg.ClientId, SendSeq,
                                                R.OriginNanos)
                : net::proto::fmtLineHead(Head, sizeof(Head), Cfg.ClientId,
                                          SendSeq);
    Out.append(Head, size_t(N));
    Out += serializeAction(R.A, R.CS.get());
    Out += '\n';
    ++SendSeq;
    ++St.FramesOut;
    ++Tcp->FramesSinceStat;
  }
  if (Drop) {
    ::send(Tcp->Fd, Out.data(), Out.size() / 2, MSG_NOSIGNAL);
    ::close(Tcp->Fd);
    Tcp->Fd = -1;
    Tcp->NeedReconnect = true;
    return true;
  }
  if (!Out.empty()) {
    size_t Off = 0;
    while (Off < Out.size()) {
      ssize_t W = ::send(Tcp->Fd, Out.data() + Off, Out.size() - Off,
                         MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        Tcp->NeedReconnect = true;
        return true;
      }
      Off += size_t(W);
    }
  }

  // Ack tracking: periodic stat while work is in flight, throttled so a
  // wait loop does not flood the server.
  bool WantStat =
      Tcp->FramesSinceStat >= StatEveryFrames ||
      (BaseSeq < NextSeq && SendSeq == NextSeq &&
       nowNanos() - Tcp->LastStatNanos > 1000000ull);
  if (WantStat && !Tcp->StatPending)
    return tcpSendStat(Err);
  if (Tcp->StatPending &&
      nowNanos() - Tcp->LastStatNanos > MaxWaitNanos * 4)
    Tcp->StatPending = false; // reply lost to a shed write; re-ask later
  return true;
}
