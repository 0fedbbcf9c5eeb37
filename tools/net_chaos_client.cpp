//===- tools/net_chaos_client.cpp - Socket chaos harness ------------------===//
///
/// \file
/// Adversarial remote-client harness for the NetServer: K concurrent TCP
/// clients each stream a seeded random trace through the sequence-numbered
/// wire protocol while deliberately misbehaving — writes fragmented into
/// 1..7-byte chunks, abrupt mid-frame disconnects every --reconnect-every
/// lines followed by reconnect-with-resume, optimistic pipelining that
/// relies on the server's backpressure/resync replies to stay in sync.
/// Every surviving client's delivered verdicts are checked against the
/// happens-before oracle over its own trace; clients killed by server-side
/// chaos (shed, error budget, shard loss) are skipped-but-counted, mirroring
/// the service soak's accounting.
///
/// With --shm <path> the same differential runs over the shared-memory ring
/// transport through GoldClient instead of raw sockets; --shm-stall-ppm /
/// --shm-corrupt-ppm arm the producer-side failpoints (wedge reaps and
/// decode-error kills) in this process, so the soak exercises crash-only
/// ring recovery the way the TCP soak exercises reconnect-with-resume.
///
/// Exit code: 0 when no surviving client diverged and at least one client
/// was compared; 1 on divergence, a harness failure, or nothing compared;
/// 126 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "client/GoldClient.h"
#include "event/RandomTrace.h"
#include "event/TraceIO.h"
#include "hb/HbOracle.h"
#include "service/net/Protocol.h"
#include "support/Failpoints.h"
#include "support/Random.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

using namespace gold;
namespace proto = gold::net::proto;

namespace {

struct Params {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  std::string ShmPath;        ///< non-empty: drive the shm ring transport
  size_t Clients = 8;
  unsigned Steps = 40;
  unsigned Threads = 4;
  uint64_t Seed = 1;
  size_t ReconnectEvery = 0;  ///< abrupt disconnect cadence; 0 disables
  bool ChaosWrites = true;    ///< fragment writes into tiny chunks
  uint64_t DeadlineMs = 120000;
  uint32_t ShmStallPpm = 0;   ///< shm-producer-stall firing rate
  uint32_t ShmCorruptPpm = 0; ///< shm-slot-corrupt firing rate
  unsigned StallMicros = 0;   ///< stall length; must exceed the server's
                              ///< wedge timeout to force reaps
  bool Trace = false;         ///< stamp origins + clock handshake on frames
  uint32_t TracePpm = 10000;  ///< client_e2e span sampling rate
  uint64_t TraceSeed = 1;     ///< must match the server's --trace-seed
  std::string TraceOut;       ///< gold-trace-v1 output path (client spans)
  TraceEventSink *TraceSink = nullptr; ///< shared across client threads
};

uint64_t chaosNowNanos() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

struct Result {
  bool Compared = false;
  bool Killed = false;   ///< session torn down by server-side chaos
  bool Failed = false;   ///< harness failure (timeout, protocol surprise)
  bool Diverged = false;
  std::string Why;
  size_t Races = 0;
  size_t Reconnects = 0;
  size_t Rewinds = 0; ///< backpressure/resync rewinds honored
};

/// One blocking-ish line-protocol connection with buffered line reads.
class Wire {
public:
  ~Wire() { closeFd(); }

  bool connectTo(const std::string &Host, uint16_t Port) {
    closeFd();
    RxBuf.clear();
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in A;
    std::memset(&A, 0, sizeof(A));
    A.sin_family = AF_INET;
    A.sin_port = htons(Port);
    if (::inet_pton(AF_INET, Host.c_str(), &A.sin_addr) != 1 ||
        ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
      closeFd();
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return true;
  }

  bool connected() const { return Fd >= 0; }

  /// Sends the whole buffer; when \p Rng is non-null the data goes out in
  /// 1..7-byte chunks so server reads always see fragments.
  bool sendAll(const std::string &Data, uint64_t *Rng) {
    if (Fd < 0)
      return false;
    size_t Off = 0;
    while (Off < Data.size()) {
      size_t N = Data.size() - Off;
      if (Rng)
        N = std::min<size_t>(N, 1 + splitmix64(*Rng) % 7);
      ssize_t W = ::send(Fd, Data.data() + Off, N, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          pollfd P{Fd, POLLOUT, 0};
          ::poll(&P, 1, 100);
          continue;
        }
        return false;
      }
      Off += static_cast<size_t>(W);
      if (Rng && splitmix64(*Rng) % 16 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// 1 = line out, 0 = timeout, -1 = connection gone.
  int readLine(std::string &Out, int TimeoutMs) {
    if (Fd < 0)
      return -1;
    for (;;) {
      size_t P = RxBuf.find('\n');
      if (P != std::string::npos) {
        Out.assign(RxBuf, 0, P);
        RxBuf.erase(0, P + 1);
        return 1;
      }
      pollfd PF{Fd, POLLIN, 0};
      int R = ::poll(&PF, 1, TimeoutMs);
      if (R == 0)
        return 0;
      if (R < 0) {
        if (errno == EINTR)
          continue;
        return -1;
      }
      char B[2048];
      ssize_t N = ::recv(Fd, B, sizeof(B), 0);
      if (N > 0) {
        RxBuf.append(B, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      return -1;
    }
  }

  /// Abrupt teardown — no quit, no flush: the server sees a mid-stream
  /// (possibly mid-frame) disconnect, exactly the case resume must heal.
  void abortConn() { closeFd(); }

private:
  void closeFd() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  int Fd = -1;
  std::string RxBuf;
};

Trace traceFor(const Params &P, uint64_t Id) {
  RandomTraceParams TP;
  TP.Seed = P.Seed + Id;
  TP.StepsPerThread = P.Steps;
  TP.NumThreads = static_cast<ThreadId>(P.Threads);
  return generateRandomTrace(TP);
}

/// Differential check of the delivered verdict set against the
/// happens-before oracle over the client's own trace.
void compareVerdicts(const Trace &T, const std::set<std::string> &GotVars,
                     uint64_t Id, Result &R) {
  R.Compared = true;
  std::set<std::string> WantVars;
  RaceOracle O(T, TxnSyncSemantics::SharedVariable);
  for (const VarId &V : O.racyVars())
    WantVars.insert(V.str());
  if (GotVars != WantVars) {
    R.Diverged = true;
    std::fprintf(stderr,
                 "net-chaos: client %llu DIVERGED: wire=%zu oracle=%zu racy "
                 "var(s)\n",
                 (unsigned long long)Id, GotVars.size(), WantVars.size());
  }
}

/// The shm-transport variant: the whole reliability loop (claim, resume
/// after wedge reaps, backpressure, close handshake) lives in GoldClient;
/// the harness just publishes pre-parsed actions and diffs the verdicts.
void runClientShm(const Params &P, uint64_t Id, Result &R) {
  Trace T = traceFor(P, Id);

  client::GoldClientConfig CC;
  CC.ClientId = Id;
  CC.ShmPath = P.ShmPath;
  CC.Port = 0; // no TCP fallback: this run measures the ring transport
  // The soak may not shed: a shed action would diverge from the oracle.
  CC.BufferCapActions = T.Actions.size() + 8;
  CC.OpTimeoutNanos = P.DeadlineMs * 1000000ull;
  if (P.Trace) {
    CC.TraceFrames = true;
    CC.TraceSeed = P.TraceSeed;
    CC.TraceSampleRatePpm = P.TracePpm;
    CC.TraceSink = P.TraceSink;
  }
  client::GoldClient GC(CC);

  std::string Err;
  if (!GC.connect(Err)) {
    R.Failed = true;
    R.Why = Err;
    return;
  }
  for (const Action &A : T.Actions)
    if (!GC.publish(A, A.Kind == ActionKind::Commit ? &T.commitSets(A)
                                                    : nullptr))
      break; // stream died; closeAndCollect reports why

  std::vector<std::string> Vars;
  bool Ok = GC.closeAndCollect(Vars, Err);
  const client::GoldClientStats &S = GC.stats();
  R.Reconnects = S.Reconnects;
  R.Rewinds = S.Resyncs + S.StallRewinds;
  R.Races = Vars.size();
  if (!Ok) {
    if (Err.find("ring killed") != std::string::npos ||
        Err.find("session") != std::string::npos) {
      R.Killed = true; // chaos (slot corrupt / session death): counted
      return;
    }
    R.Failed = true;
    R.Why = Err;
    return;
  }
  std::set<std::string> GotVars(Vars.begin(), Vars.end());
  compareVerdicts(T, GotVars, Id, R);
}

void runClient(const Params &P, uint64_t Id, Result &R) {
  Trace T = traceFor(P, Id);
  std::vector<std::string> Lines;
  {
    std::istringstream In(serializeTrace(T));
    std::string L;
    while (std::getline(In, L))
      if (!L.empty())
        Lines.push_back(L);
  }

  uint64_t Rng = P.Seed * 0x9e3779b97f4a7c15ULL + Id;
  uint64_t *WriteRng = P.ChaosWrites ? &Rng : nullptr;
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(P.DeadlineMs);
  auto Expired = [&] { return std::chrono::steady_clock::now() > Deadline; };
  auto Fail = [&](const std::string &Why) {
    R.Failed = true;
    R.Why = Why;
  };

  Wire W;
  char Buf[192];
  size_t Next = 0;          ///< seq of the next line to send
  size_t SettledTo = 0;     ///< server-confirmed expect (stat/open replies)
  size_t SentSinceConn = 0; ///< drives forced reconnects
  size_t LastSettled = SIZE_MAX; ///< stat-stall detection
  unsigned StallPolls = 0;
  std::set<std::string> GotVars;

  // (Re)connects and re-opens; applies the server's resume point.
  auto OpenSession = [&]() -> bool {
    while (!Expired()) {
      if (!W.connectTo(P.Host, P.Port)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      if (P.Trace)
        proto::fmtOpenPrioClock(Buf, sizeof(Buf), Id, 1, chaosNowNanos());
      else
        proto::fmtOpen(Buf, sizeof(Buf), Id);
      if (!W.sendAll(Buf, nullptr))
        continue;
      std::string L;
      int Rd = W.readLine(L, 2000);
      if (Rd <= 0) {
        // accept-shed / accept-fail chaos closes before any reply lands.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      if (proto::hasPrefix(L, proto::Bye))
        continue; // accept-shed with an explanation
      if (proto::hasPrefix(L, proto::OkOpen)) {
        uint64_t E = 0;
        if (proto::parseExpect(L, E))
          Next = SettledTo = E;
        // A fresh `ok open <id>` keeps our position: the session was
        // created just now, so Next/SettledTo are already 0.
        SentSinceConn = 0;
        StallPolls = 0;
        LastSettled = SIZE_MAX;
        return true;
      }
      // "err open ... retry-after-ns=..." (admission backpressure) or
      // "busy" (our previous connection not yet reaped) — honor and retry.
      uint64_t WaitNs = 0;
      if (!proto::parseRetryAfter(L, WaitNs))
        WaitNs = 20000000ull;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<uint64_t>(WaitNs, 50000000)));
    }
    Fail("open: deadline expired");
    return false;
  };

  // Handles one asynchronous server reply during streaming. Returns false
  // when this connection is done for (reconnect or session death decides).
  bool SessionDead = false;
  auto Handle = [&](const std::string &L) -> bool {
    if (proto::hasPrefix(L, proto::Ping)) {
      W.sendAll("pong" + L.substr(4) + "\n", nullptr);
      return true;
    }
    if (proto::hasPrefix(L, proto::Bye))
      return false; // server closed us; the reconnect path takes over
    uint64_t Seq = 0;
    if (proto::hasPrefix(L, proto::ErrLine) && proto::parseSeq(L, Seq)) {
      if (proto::isBackpressure(L)) {
        // The refused line and everything pipelined behind it must be
        // re-sent; honor the jittered hint (capped: this is a soak).
        uint64_t WaitNs = 0;
        if (!proto::parseRetryAfter(L, WaitNs))
          WaitNs = 1000000ull;
        Next = std::min<size_t>(Next, Seq);
        ++R.Rewinds;
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<uint64_t>(WaitNs, 20000000)));
        return true;
      }
      if (proto::isResync(L)) {
        uint64_t E = 0;
        if (proto::parseExpect(L, E)) {
          Next = E;
          ++R.Rewinds;
        }
        return true;
      }
    }
    if (proto::hasPrefix(L, proto::ErrLine) &&
        (L.find(proto::ClosedMark) != std::string::npos ||
         L.find(proto::UnknownClientMark) != std::string::npos)) {
      R.Killed = true; // chaos tore the session down; loss is counted
      SessionDead = true;
      return false;
    }
    if (proto::hasPrefix(L, proto::OkStat)) {
      uint64_t E = 0;
      if (proto::parseExpect(L, E))
        SettledTo = E;
      if (L.find(proto::StateDead) != std::string::npos) {
        R.Killed = true;
        SessionDead = true;
        return false;
      }
      return true;
    }
    return true; // unknown chatter (health lines etc.): ignore
  };

  if (!OpenSession())
    return;

  // Stream until the server confirms it consumed every line.
  while (!SessionDead && !R.Failed) {
    if (Expired()) {
      Fail("stream: deadline expired");
      break;
    }
    // Drain any pending replies without blocking.
    bool Alive = true;
    std::string L;
    int Rd = 0;
    while (Alive && (Rd = W.readLine(L, 0)) == 1)
      Alive = Handle(L);
    if (Alive && Rd == -1)
      Alive = false;
    if (!Alive) {
      if (SessionDead)
        break;
      ++R.Reconnects;
      if (!OpenSession())
        return;
      continue;
    }
    if (SettledTo >= Lines.size())
      break; // everything consumed server-side
    if (P.ReconnectEvery && SentSinceConn >= P.ReconnectEvery) {
      // Forced mid-stream reconnect — sometimes mid-frame, so the server
      // must drop a partial frame and resume us exactly at its expect.
      if (splitmix64(Rng) % 2) {
        std::snprintf(Buf, sizeof(Buf), "line %llu %llu half-a-",
                      (unsigned long long)Id, (unsigned long long)Next);
        W.sendAll(Buf, nullptr); // no newline: dangling partial frame
      }
      W.abortConn();
      ++R.Reconnects;
      if (!OpenSession())
        return;
      continue;
    }
    if (Next < Lines.size()) {
      // Optimistic pipelining: a burst of sequenced lines with no waiting
      // for acks. Backpressure/resync replies rewind Next when needed.
      size_t Batch =
          std::min<size_t>(Lines.size() - Next, 1 + splitmix64(Rng) % 12);
      std::string Out;
      for (size_t I = 0; I != Batch; ++I) {
        // Traced runs stamp the send time, not the (long past) generation
        // time: a rewound/retransmitted line gets a fresh origin, which is
        // what the e2e attribution should measure anyway.
        if (P.Trace)
          proto::fmtLineHeadTraced(Buf, sizeof(Buf), Id, Next + I,
                                   chaosNowNanos());
        else
          proto::fmtLineHead(Buf, sizeof(Buf), Id, Next + I);
        Out += Buf;
        Out += Lines[Next + I];
        Out += '\n';
      }
      if (!W.sendAll(Out, WriteRng)) {
        ++R.Reconnects;
        if (!OpenSession())
          return;
        continue;
      }
      Next += Batch;
      SentSinceConn += Batch;
    } else {
      // All sent; poll the server's confirmed position.
      proto::fmtStat(Buf, sizeof(Buf), Id);
      if (!W.sendAll(Buf, nullptr))
        continue; // send failed; the drain loop above reconnects
      if (W.readLine(L, 500) == 1 && !Handle(L))
        continue;
      if (SettledTo < Next) {
        // Stat-stall rewind: everything is sent but the server's confirmed
        // position has stopped moving. A backpressure reply that was shed
        // from the server's bounded write queue leaves both sides waiting
        // forever — after a few non-progressing polls, rewind our cursor to
        // the confirmed position and re-send the tail.
        if (SettledTo == LastSettled) {
          if (++StallPolls >= 3 && SettledTo < Next) {
            Next = SettledTo;
            StallPolls = 0;
            ++R.Rewinds;
          }
        } else {
          LastSettled = SettledTo;
          StallPolls = 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  if (R.Failed || R.Killed)
    return;

  // Close and collect verdicts. close is idempotent, so a shed reply or a
  // verdict-queue backpressure refusal is healed by re-sending it.
  bool ClosedOk = false;
  for (unsigned Try = 0; !ClosedOk && !R.Killed; ++Try) {
    if (Expired() || Try > 200) {
      Fail("close: no ok after retries");
      return;
    }
    if (!W.connected()) {
      ++R.Reconnects;
      if (!OpenSession())
        return;
    }
    proto::fmtClose(Buf, sizeof(Buf), Id);
    if (!W.sendAll(Buf, nullptr)) {
      W.abortConn();
      continue;
    }
    std::string L;
    for (;;) {
      int Rd = W.readLine(L, 2000);
      if (Rd == 0)
        break; // reply shed; re-send close
      if (Rd < 0) {
        W.abortConn();
        break;
      }
      if (proto::hasPrefix(L, proto::Ping)) {
        W.sendAll("pong" + L.substr(4) + "\n", nullptr);
        continue;
      }
      if (proto::hasPrefix(L, proto::Race)) {
        std::string Var;
        if (proto::raceVar(L, Var)) {
          GotVars.insert(Var);
          ++R.Races;
        }
        continue;
      }
      if (proto::hasPrefix(L, proto::OkClose)) {
        ClosedOk = true;
        break;
      }
      if (L.find("backpressure") != std::string::npos) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        break; // verdict queue needs room; re-send close
      }
      if (L.find(proto::UnknownClientMark) != std::string::npos) {
        R.Killed = true;
        break;
      }
    }
  }
  if (R.Killed)
    return;

  // Differential validation against the happens-before oracle.
  compareVerdicts(T, GotVars, Id, R);
}

int usage() {
  std::fprintf(
      stderr,
      "usage: net_chaos_client --port <p> [--host <addr>] [--clients <k>]\n"
      "         [--steps <n>] [--threads <n>] [--seed <n>]\n"
      "         [--reconnect-every <lines>] [--no-chaos-writes]\n"
      "         [--deadline-ms <n>]\n"
      "   or: net_chaos_client --shm <path> [--clients <k>] [--steps <n>]\n"
      "         [--threads <n>] [--seed <n>] [--deadline-ms <n>]\n"
      "         [--shm-stall-ppm <n>] [--shm-corrupt-ppm <n>]\n"
      "         [--stall-micros <n>]\n"
      "  tracing (either mode): [--trace] [--trace-ppm <n>]\n"
      "         [--trace-seed <n>] [--trace-out <client-spans.json>]\n");
  return 126;
}

} // namespace

int main(int Argc, char **Argv) {
  Params P;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> const char * {
      if (I + 1 >= Argc)
        std::exit(usage());
      return Argv[++I];
    };
    if (A == "--host")
      P.Host = Val();
    else if (A == "--port")
      P.Port = static_cast<uint16_t>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--clients")
      P.Clients = std::strtoull(Val(), nullptr, 10);
    else if (A == "--steps")
      P.Steps = static_cast<unsigned>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--threads")
      P.Threads = static_cast<unsigned>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--seed")
      P.Seed = std::strtoull(Val(), nullptr, 10);
    else if (A == "--reconnect-every")
      P.ReconnectEvery = std::strtoull(Val(), nullptr, 10);
    else if (A == "--no-chaos-writes")
      P.ChaosWrites = false;
    else if (A == "--deadline-ms")
      P.DeadlineMs = std::strtoull(Val(), nullptr, 10);
    else if (A == "--shm")
      P.ShmPath = Val();
    else if (A == "--shm-stall-ppm")
      P.ShmStallPpm =
          static_cast<uint32_t>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--shm-corrupt-ppm")
      P.ShmCorruptPpm =
          static_cast<uint32_t>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--stall-micros")
      P.StallMicros = static_cast<unsigned>(std::strtoul(Val(), nullptr, 10));
    else if (A == "--trace")
      P.Trace = true;
    else if (A == "--trace-ppm") {
      P.TracePpm = static_cast<uint32_t>(std::strtoul(Val(), nullptr, 10));
      P.Trace = true;
    } else if (A == "--trace-seed")
      P.TraceSeed = std::strtoull(Val(), nullptr, 10);
    else if (A == "--trace-out") {
      P.TraceOut = Val();
      P.Trace = true;
    } else
      return usage();
  }
  bool UseShm = !P.ShmPath.empty();
  if ((!UseShm && !P.Port) || !P.Clients)
    return usage();

  // The shm failpoints fire on the producer side, i.e. in THIS process:
  // the harness wedges/corrupts its own rings and the server must recover.
  std::unique_ptr<FailpointScope> FP;
  if (P.ShmStallPpm || P.ShmCorruptPpm) {
    FailpointConfig FC;
    FC.Seed = P.Seed;
    FC.RatePpm[static_cast<size_t>(Failpoint::ShmProducerStall)] =
        P.ShmStallPpm;
    FC.RatePpm[static_cast<size_t>(Failpoint::ShmSlotCorrupt)] =
        P.ShmCorruptPpm;
    if (P.StallMicros)
      FC.StallMicros = P.StallMicros;
    FP = std::make_unique<FailpointScope>(FC);
  }

  // One span sink shared by every client thread (TraceEventSink is
  // thread-safe); written as a gold-trace-v1 file after the join so it can
  // be merged with the server's --trace-out via tools/merge_traces.py.
  std::unique_ptr<TraceEventSink> Sink;
  if (P.Trace && !P.TraceOut.empty()) {
    Sink = std::make_unique<TraceEventSink>(1u << 20,
                                            static_cast<uint32_t>(::getpid()));
    P.TraceSink = Sink.get();
  }

  std::vector<Result> Results(P.Clients);
  std::vector<std::thread> Threads;
  Threads.reserve(P.Clients);
  for (size_t I = 0; I != P.Clients; ++I)
    Threads.emplace_back([&, I] {
      if (UseShm)
        runClientShm(P, static_cast<uint64_t>(I + 1), Results[I]);
      else
        runClient(P, static_cast<uint64_t>(I + 1), Results[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  size_t Compared = 0, Killed = 0, Failed = 0, Diverged = 0, Races = 0,
         Reconnects = 0, Rewinds = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    const Result &R = Results[I];
    Compared += R.Compared;
    Killed += R.Killed;
    Failed += R.Failed;
    Diverged += R.Diverged;
    Races += R.Races;
    Reconnects += R.Reconnects;
    Rewinds += R.Rewinds;
    if (R.Failed)
      std::fprintf(stderr, "net-chaos: client %zu failed: %s\n", I + 1,
                   R.Why.c_str());
  }
  std::printf("net-chaos clients=%zu compared=%zu killed=%zu failed=%zu "
              "diverged=%zu races=%zu reconnects=%zu rewinds=%zu\n",
              P.Clients, Compared, Killed, Failed, Diverged, Races,
              Reconnects, Rewinds);
  if (Sink && !Sink->writeFile(P.TraceOut)) {
    std::fprintf(stderr, "net-chaos: failed to write %s\n",
                 P.TraceOut.c_str());
    return 1;
  }
  if (Diverged || Failed || !Compared)
    return 1;
  return 0;
}
