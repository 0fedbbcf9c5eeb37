//===- tests/NetTest.cpp - socket transport tests -------------------------===//
///
/// Covers the fault-tolerant socket front end end to end: incremental LF
/// framing (fragmented reads, CRLF vs interior CR, oversize rejection in
/// stream order — through the framer alone and through a real socket under
/// the net-partial-read failpoint), the sequenced wire protocol (resync,
/// dup suppression, jittered backpressure replies inside the shared backoff
/// envelope), deadlines and heartbeats on a manual clock, bounded write
/// queues with counted shed, accept-shed at the connection cap, crash-only
/// drain that settles kernel-buffered frames with zero loss, live /healthz
/// and /metrics scraping while ingestion is backpressured, eight GoldClient
/// producers over TCP (steady: zero loss, resyncs and reconnects; chaos:
/// all four net failpoints plus client-side mid-frame drops, inline and
/// over a threaded service, every close oracle-exact and resumes counted,
/// with a live /metrics scrape), the close rule over stalled consumer
/// threads (CloseRuleHarness.h), and an adopted pipe pair standing in for
/// goldilocks-serve's stdin/stdout (settled lines, no liveness or budget
/// closes, write-through replies, EOF).
///
//===----------------------------------------------------------------------===//

#include "CloseRuleHarness.h"
#include "DifferentialHarness.h"
#include "service/Backoff.h"
#include "service/Service.h"
#include "service/Snapshots.h"
#include "service/Tracing.h"
#include "service/net/Framer.h"
#include "service/net/NetServer.h"
#include "service/net/Protocol.h"
#include "support/Failpoints.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

using namespace gold;
using namespace gold::net;

namespace {

using difftest::oracleVarStrings;
using difftest::smallRandomTrace;
using difftest::traceLines;

/// Minimal blocking test client. Deterministic single-threaded tests pass a
/// Pump callback that runs the server's poll loop between reads; threaded
/// tests pass an empty one.
struct TClient {
  int Fd = -1;
  std::string Rx;

  ~TClient() { closeFd(); }

  bool connectTo(uint16_t Port) {
    closeFd();
    Rx.clear();
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in A;
    std::memset(&A, 0, sizeof(A));
    A.sin_family = AF_INET;
    A.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &A.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
      closeFd();
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return true;
  }

  bool sendRaw(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t W =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(W);
    }
    return true;
  }

  /// Reads one reply line, pumping the server between short waits.
  /// Returns false when no line arrives within \p Rounds pump rounds.
  bool readLine(std::string &Out, const std::function<void()> &Pump,
                int Rounds = 3000) {
    for (int R = 0; R != Rounds; ++R) {
      size_t P = Rx.find('\n');
      if (P != std::string::npos) {
        Out.assign(Rx, 0, P);
        Rx.erase(0, P + 1);
        return true;
      }
      if (Pump)
        Pump();
      pollfd PF{Fd, POLLIN, 0};
      int N = ::poll(&PF, 1, Pump ? 0 : 5);
      if (N > 0) {
        char B[2048];
        ssize_t Got = ::recv(Fd, B, sizeof(B), 0);
        if (Got > 0)
          Rx.append(B, static_cast<size_t>(Got));
        else if (Got == 0)
          return false; // EOF with no complete line
      }
    }
    return false;
  }

  /// Reads until the server closes the connection (scrape responses).
  std::string readAll(const std::function<void()> &Pump, int Rounds = 3000) {
    for (int R = 0; R != Rounds; ++R) {
      if (Pump)
        Pump();
      pollfd PF{Fd, POLLIN, 0};
      int N = ::poll(&PF, 1, Pump ? 0 : 5);
      if (N > 0) {
        char B[4096];
        ssize_t Got = ::recv(Fd, B, sizeof(B), 0);
        if (Got > 0) {
          Rx.append(B, static_cast<size_t>(Got));
          continue;
        }
        if (Got == 0)
          break; // orderly close: response complete
      }
    }
    return Rx;
  }

  void closeFd() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
};

/// Deterministic single-threaded fixture: service pumped inline by the
/// server, optional manual clock, ephemeral ports.
struct NetFixture {
  std::shared_ptr<std::atomic<uint64_t>> Clock;
  std::unique_ptr<DetectionService> Svc;
  std::unique_ptr<NetServer> Net;

  void init(NetConfig NC, ServiceConfig SC = ServiceConfig(),
            bool ManualClock = false) {
    if (ManualClock) {
      Clock = std::make_shared<std::atomic<uint64_t>>(1000);
      auto C = Clock;
      SC.NowNanos = [C] { return C->load(std::memory_order_relaxed); };
    }
    Svc = std::make_unique<DetectionService>(SC);
    NC.Port = 0;
    if (NC.Scrape)
      NC.ScrapePort = 0;
    Net = std::make_unique<NetServer>(*Svc, NC);
    std::string Err;
    ASSERT_TRUE(Net->start(Err)) << Err;
  }

  std::function<void()> pump() {
    NetServer *N = Net.get();
    return [N] { N->pollOnce(0); };
  }
};

/// A NetServer with no listener serving one adopted pipe pair, the way
/// goldilocks-serve serves stdin/stdout. The test writes the server's
/// input pipe and reads its output pipe; the loop runs inline.
struct StreamFixture {
  std::shared_ptr<std::atomic<uint64_t>> Clock;
  std::unique_ptr<DetectionService> Svc;
  std::unique_ptr<NetServer> Net;
  int In[2] = {-1, -1};  ///< test writes In[1]; the server reads In[0]
  int Out[2] = {-1, -1}; ///< the server writes Out[1]; the test reads Out[0]
  std::string Rx;

  void init(NetConfig NC = NetConfig(), ServiceConfig SC = ServiceConfig(),
            bool ManualClock = false) {
    if (ManualClock) {
      Clock = std::make_shared<std::atomic<uint64_t>>(1000);
      auto C = Clock;
      SC.NowNanos = [C] { return C->load(std::memory_order_relaxed); };
    }
    ASSERT_EQ(::pipe(In), 0);
    ASSERT_EQ(::pipe(Out), 0);
    Svc = std::make_unique<DetectionService>(SC);
    Net = std::make_unique<NetServer>(*Svc, NC);
    Net->adoptStream(In[0], Out[1]);
  }

  ~StreamFixture() {
    Net.reset(); // drains first: the fds must outlive the server
    for (int Fd : {In[0], In[1], Out[0], Out[1]})
      if (Fd >= 0)
        ::close(Fd);
  }

  bool send(const std::string &Data) {
    return ::write(In[1], Data.data(), Data.size()) ==
           static_cast<ssize_t>(Data.size());
  }

  void closeInput() {
    ::close(In[1]);
    In[1] = -1;
  }

  /// Pending server output, without blocking.
  bool outputPending() {
    pollfd PF{Out[0], POLLIN, 0};
    return !Rx.empty() || ::poll(&PF, 1, 0) > 0;
  }

  /// Reads one reply line, running the server loop between reads.
  bool readLine(std::string &Line, int Rounds = 3000) {
    for (int R = 0; R != Rounds; ++R) {
      size_t P = Rx.find('\n');
      if (P != std::string::npos) {
        Line.assign(Rx, 0, P);
        Rx.erase(0, P + 1);
        return true;
      }
      Net->pollOnce(0);
      pollfd PF{Out[0], POLLIN, 0};
      if (::poll(&PF, 1, 1) > 0) {
        char B[2048];
        ssize_t Got = ::read(Out[0], B, sizeof(B));
        if (Got > 0)
          Rx.append(B, static_cast<size_t>(Got));
      }
    }
    return false;
  }

  /// Streams \p Lines unsequenced into client 1, closes it, and returns
  /// the race variables delivered with `ok close 1`; any other reply
  /// (a refused line) fails the test.
  std::set<std::string> runSession(const std::vector<std::string> &Lines) {
    std::set<std::string> Vars;
    std::string L;
    EXPECT_TRUE(send("open 1\n"));
    EXPECT_TRUE(readLine(L));
    EXPECT_EQ(L, "ok open 1");
    for (const std::string &TL : Lines) {
      EXPECT_TRUE(send("line 1 " + TL + "\n"));
      Net->pollOnce(0);
    }
    EXPECT_TRUE(send("close 1\n"));
    while (readLine(L) && L.rfind("ok close 1", 0) != 0) {
      std::string Var;
      if (L.rfind("race 1 ", 0) == 0 && proto::raceVar(L, Var))
        Vars.insert(Var);
      else
        ADD_FAILURE() << "unexpected reply: " << L;
    }
    EXPECT_EQ(L.rfind("ok close 1", 0), 0u) << L;
    return Vars;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// LineFramer
//===----------------------------------------------------------------------===//

TEST(FramerTest, ReassemblesByteAtATimeAndStripsOnlyTrailingCr) {
  LineFramer F(64);
  const std::string Stream = "alpha\r\nbeta\rgamma\ndelta\n";
  for (char Ch : Stream)
    F.feed(&Ch, 1); // worst-case fragmentation: one byte per read
  std::string L;
  ASSERT_EQ(F.next(L), LineFramer::Frame::Line);
  EXPECT_EQ(L, "alpha"); // CRLF ending: one trailing CR stripped
  ASSERT_EQ(F.next(L), LineFramer::Frame::Line);
  EXPECT_EQ(L, "beta\rgamma"); // interior CR preserved for the parser
  ASSERT_EQ(F.next(L), LineFramer::Frame::Line);
  EXPECT_EQ(L, "delta");
  EXPECT_EQ(F.next(L), LineFramer::Frame::None);
  EXPECT_FALSE(F.hasPartial());
}

TEST(FramerTest, OversizeReportedOnceInStreamOrderAndBounded) {
  LineFramer F(8);
  std::string Big(100, 'x');
  std::string Stream = "ok1\n" + Big + "\nok2\n";
  // Feed in ragged chunks so the oversize frame spans many reads.
  for (size_t I = 0; I < Stream.size(); I += 3)
    F.feed(Stream.data() + I, std::min<size_t>(3, Stream.size() - I));
  std::string L;
  ASSERT_EQ(F.next(L), LineFramer::Frame::Line);
  EXPECT_EQ(L, "ok1");
  ASSERT_EQ(F.next(L), LineFramer::Frame::Oversize); // exactly where it sat
  ASSERT_EQ(F.next(L), LineFramer::Frame::Line);
  EXPECT_EQ(L, "ok2");
  EXPECT_EQ(F.next(L), LineFramer::Frame::None);
  // The buffer never holds more than MaxFrameBytes of the abusive line.
  std::string Tail(1000, 'y'); // unterminated oversize tail
  F.feed(Tail.data(), Tail.size());
  EXPECT_LE(F.pendingBytes(), 8u);
  EXPECT_TRUE(F.hasPartial()); // discarding state counts as partial
}

//===----------------------------------------------------------------------===//
// An adopted byte stream (goldilocks-serve's stdin/stdout)
//===----------------------------------------------------------------------===//

TEST(NetStreamTest, PipedSessionMatchesOracleAndEofEndsIt) {
  // A write queue smaller than the verdict set: a stream writes through
  // instead of shedding replies or closing on overflow.
  NetConfig NC;
  NC.WriteQueueCapBytes = 64;
  StreamFixture FX;
  FX.init(NC);
  Trace T = smallRandomTrace(77, 30);
  std::vector<std::string> Lines = traceLines(T);
  std::set<std::string> Want = oracleVarStrings(T);
  ASSERT_GE(Want.size(), 2u) << "the verdict set must overflow the queue";
  EXPECT_EQ(FX.runSession(Lines), Want);

  // EOF on the input ends the connection, after answering an unterminated
  // last line; the output pipe stays open.
  ASSERT_TRUE(FX.send("health"));
  FX.closeInput();
  std::string L;
  ASSERT_TRUE(FX.readLine(L));
  EXPECT_EQ(L.rfind("health ", 0), 0u) << L;
  for (int R = 0; R != 100 && FX.Net->openConnections(); ++R)
    FX.Net->pollOnce(0);
  EXPECT_EQ(FX.Net->openConnections(), 0u);
  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.FramesIn, Lines.size() + 3);
  EXPECT_EQ(S.ClosedBy[static_cast<unsigned>(ConnClose::ClientEof)], 1u);
  EXPECT_EQ(S.ClosedBy[static_cast<unsigned>(ConnClose::WriteOverflow)], 0u);
  EXPECT_EQ(S.RepliesShed, 0u);
  EXPECT_EQ(S.PartialFramesDropped, 0u);
  EXPECT_EQ(::fcntl(FX.Out[1], F_GETFD), 0) << "the stream closed stdout";
}

TEST(NetStreamTest, MalformedCommandsNeverCloseTheStream) {
  StreamFixture FX;
  FX.init();
  constexpr unsigned Bad = 20; // past ConnErrorBudget
  static_assert(Bad > ConnErrorBudget, "must exceed the socket budget");
  std::string L;
  for (unsigned I = 0; I != Bad; ++I) {
    ASSERT_TRUE(FX.send("nonsense\n"));
    ASSERT_TRUE(FX.readLine(L));
    EXPECT_EQ(L, "err proto missing client id: nonsense");
  }
  ASSERT_TRUE(FX.send("health\n"));
  ASSERT_TRUE(FX.readLine(L));
  EXPECT_EQ(L.rfind("health ", 0), 0u) << L;
  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.ProtocolErrors, Bad);
  EXPECT_EQ(S.ClosedBy[static_cast<unsigned>(ConnClose::ErrorBudget)], 0u);
  EXPECT_EQ(FX.Net->openConnections(), 1u);
}

TEST(NetStreamTest, NoHeartbeatDeadlineOrNetFailpointOnTheStream) {
  NetConfig NC;
  NC.HeartbeatNanos = 100;
  NC.ReadDeadlineNanos = 1000;
  NC.WriteDeadlineNanos = 1000;
  StreamFixture FX;
  FX.init(NC, ServiceConfig(), /*ManualClock=*/true);
  // Every per-connection network fault fires on every evaluation, yet the
  // stream is not a network peer: none of them touches it.
  FailpointConfig FC;
  FC.rate(Failpoint::NetConnHang, 1000000)
      .rate(Failpoint::NetPartialRead, 1000000)
      .rate(Failpoint::NetWriteStall, 1000000);
  FailpointScope Scope(FC);

  std::string L;
  ASSERT_TRUE(FX.send("open 1\n"));
  ASSERT_TRUE(FX.readLine(L));
  ASSERT_EQ(L, "ok open 1");

  // Silence far past the heartbeat and both deadlines: no ping, no bye.
  FX.Clock->store(1000000);
  for (int R = 0; R != 10; ++R)
    FX.Net->pollOnce(0);
  EXPECT_FALSE(FX.outputPending());
  ASSERT_TRUE(FX.send("health\n"));
  ASSERT_TRUE(FX.readLine(L));
  EXPECT_EQ(L.rfind("health ", 0), 0u) << L;

  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.HeartbeatsSent, 0u);
  EXPECT_EQ(S.ConnHangs, 0u);
  EXPECT_EQ(S.WriteStalls, 0u);
  EXPECT_EQ(FX.Net->openConnections(), 1u);
}

TEST(NetStreamTest, EveryLineSettlesThroughStalledConsumers) {
  ServiceConfig SC;
  SC.RingCapacity = 4;
  FailpointConfig FC;
  FC.rate(Failpoint::ServiceIngestStall, 1000000);
  FailpointScope Stalls(FC);
  StreamFixture FX;
  FX.init(NetConfig(), SC);
  FX.Svc->start();

  Trace T = smallRandomTrace(5, 40);
  std::vector<std::string> Lines = traceLines(T);
  EXPECT_EQ(FX.runSession(Lines), oracleVarStrings(T));

  ServiceHealth H = FX.Svc->health();
  EXPECT_GT(H.BackpressureRejects, 0u) << "the rings never filled";
  EXPECT_EQ(H.LinesAccepted, Lines.size()) << "a refused line was dropped";
  EXPECT_EQ(FX.Net->stats().BackpressureReplies, 0u);
  EXPECT_EQ(H.VerdictLossEvents, 0u);
  FX.Net->drainAndStop();
  FX.Svc->shutdown();
}

//===----------------------------------------------------------------------===//
// Wire protocol over real sockets (deterministic, inline pump)
//===----------------------------------------------------------------------===//

TEST(NetServerTest, OpenStreamCloseMatchesOracleOverSocket) {
  NetFixture FX;
  FX.init(NetConfig());
  Trace T = smallRandomTrace(77, 30);
  std::vector<std::string> Lines = traceLines(T);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  EXPECT_EQ(L, "ok open 1");

  char Head[48];
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::snprintf(Head, sizeof(Head), "line 1 %zu ", I);
    ASSERT_TRUE(C.sendRaw(Head + Lines[I] + "\n"));
    FX.Net->pollOnce(0);
  }
  ASSERT_TRUE(C.sendRaw("close 1\n"));

  std::set<std::string> Got;
  for (;;) {
    ASSERT_TRUE(C.readLine(L, FX.pump()));
    if (L.rfind("ok close 1", 0) == 0)
      break;
    std::string Var;
    if (L.rfind("race 1 ", 0) == 0 && proto::raceVar(L, Var))
      Got.insert(Var);
  }
  EXPECT_EQ(Got, oracleVarStrings(T));
  EXPECT_EQ(FX.Net->stats().FramesIn, Lines.size() + 2);
  EXPECT_EQ(FX.Svc->health().ParseErrors, 0u);
}

TEST(NetServerTest, SeqGapResyncsAndDupsAreSuppressed) {
  NetFixture FX;
  FX.init(NetConfig());
  std::vector<std::string> Lines = traceLines(smallRandomTrace(5, 30));
  ASSERT_GE(Lines.size(), 3u);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_EQ(L, "ok open 1");

  // Jump ahead: seq 4 while the server expects 0 → resync reply, and the
  // frame is dropped BEFORE feedLine (nothing is silently consumed).
  ASSERT_TRUE(C.sendRaw("line 1 4 " + Lines[0] + "\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  EXPECT_EQ(L, "err line 1 seq=4 resync expect=0");

  // In order: consumed silently.
  ASSERT_TRUE(C.sendRaw("line 1 0 " + Lines[0] + "\n"));
  ASSERT_TRUE(C.sendRaw("line 1 1 " + Lines[1] + "\n"));
  // Retransmit of seq 0 (post-reconnect replay): ignored, not re-fed.
  ASSERT_TRUE(C.sendRaw("line 1 0 " + Lines[0] + "\n"));
  ASSERT_TRUE(C.sendRaw("stat 1\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  EXPECT_NE(L.find("expect=2"), std::string::npos) << L;
  EXPECT_NE(L.find("accepted=2"), std::string::npos) << L;

  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.ResyncReplies, 1u);
  EXPECT_EQ(S.DupFrames, 1u);
}

// Satellite: the full malformed-input matrix through a REAL socket with
// every read fragmented to one byte by the net-partial-read failpoint —
// oversize frames, interior CR (control-byte rejection, stdio-identical),
// CRLF endings, all interleaved with valid sequenced lines.
TEST(NetServerTest, FramerRejectionsThroughSocketWithFragmentedReads) {
  FailpointConfig FC;
  FC.Seed = 9;
  FC.rate(Failpoint::NetPartialRead, 1000000); // every read: one byte
  FailpointScope Scope(FC);

  NetConfig NC;
  NC.MaxFrameBytes = 64;
  NetFixture FX;
  FX.init(NC);
  std::vector<std::string> Lines = traceLines(smallRandomTrace(5, 30));
  ASSERT_LT(Lines[0].size() + 10, 64u);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump(), 20000));
  ASSERT_EQ(L, "ok open 1");

  // Oversize: the whole frame (seq included) is discarded byte by byte;
  // the server's memory stays bounded and expect does not move.
  ASSERT_TRUE(C.sendRaw("line 1 0 " + std::string(200, 'x') + "\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump(), 20000));
  EXPECT_EQ(L, "err proto oversize frame dropped");

  // Interior CR: framed intact, then rejected by the trace parser exactly
  // as the stdio path rejects it. Rejection consumes the seq.
  ASSERT_TRUE(C.sendRaw("line 1 0 bad\rline\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump(), 20000));
  EXPECT_EQ(L.rfind("err line 1 ", 0), 0u) << L;
  EXPECT_EQ(L.find("resync"), std::string::npos) << L;

  // CRLF ending: stripped, accepted silently.
  ASSERT_TRUE(C.sendRaw("line 1 1 " + Lines[0] + "\r\n"));
  ASSERT_TRUE(C.sendRaw("stat 1\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump(), 20000));
  EXPECT_NE(L.find("expect=2"), std::string::npos) << L;
  EXPECT_NE(L.find("accepted=1"), std::string::npos) << L;

  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.OversizeFrames, 1u);
  EXPECT_GE(S.ProtocolErrors, 2u); // oversize + rejected line
  EXPECT_GT(Failpoints::instance().fires(Failpoint::NetPartialRead), 0u);
}

TEST(NetServerTest, BackpressureReplyCarriesSharedJitteredSchedule) {
  // Tiny queued-byte budget behind started consumer threads that stall on
  // every item: the server leaves pumping to those threads, so once the
  // budget fills the next line cannot be admitted and the wire must refuse
  // it with the shared backoff schedule. (Armed before start(): the
  // consumers read the failpoint config.)
  FailpointConfig FC;
  FC.rate(Failpoint::ServiceIngestStall, 1000000);
  FC.StallMicros = 500000;
  std::optional<FailpointScope> Stall(std::in_place, FC);
  ServiceConfig SC;
  SC.Shards = 1;
  SC.RingCapacity = 8;
  SC.MaxQueuedBytes = 256;
  NetConfig NC;
  NC.Scrape = true;
  NetFixture FX;
  FX.init(NC, SC);
  FX.Svc->start();
  std::vector<std::string> Lines = traceLines(smallRandomTrace(5, 30));

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_EQ(L, "ok open 1");

  // Stream until the one-slot ring refuses a line. Early trace lines are
  // declarations that enqueue nothing, so the refusal point is discovered,
  // not assumed.
  uint64_t Ns = 0;
  size_t Refused = SIZE_MAX;
  char Head[48];
  for (size_t I = 0; I != Lines.size() && Refused == SIZE_MAX; ++I) {
    std::snprintf(Head, sizeof(Head), "line 1 %zu ", I);
    ASSERT_TRUE(C.sendRaw(Head + Lines[I] + "\n"));
    FX.Net->pollOnce(0);
    while (Refused == SIZE_MAX && C.readLine(L, FX.pump(), 5)) {
      size_t At = L.find(" backpressure retry-after-ns=");
      if (L.rfind("err line 1 seq=", 0) == 0 && At != std::string::npos) {
        Refused = std::strtoull(L.c_str() + 15, nullptr, 10);
        Ns = std::strtoull(L.c_str() + At + 29, nullptr, 10);
      }
    }
  }
  ASSERT_NE(Refused, SIZE_MAX) << "one-slot ring never backpressured";
  ASSERT_GT(Ns, 0u);
  // Every surface derives its hint from backoffNanos, so the reply must sit
  // inside the envelope of SOME attempt of the shared schedule.
  uint64_t Lo0, Hi0, LoMax, HiMax;
  backoffBoundsNanos(BackoffBaseNanos, 0, BackoffMaxNanos, Lo0, Hi0);
  backoffBoundsNanos(BackoffBaseNanos, 16, BackoffMaxNanos, LoMax, HiMax);
  EXPECT_GE(Ns, Lo0);
  EXPECT_LE(Ns, HiMax);
  EXPECT_GE(FX.Net->stats().BackpressureReplies, 1u);

  // Acceptance: /metrics is served live WHILE ingestion is backpressured.
  TClient Scrape;
  ASSERT_TRUE(Scrape.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(Scrape.sendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string Resp = Scrape.readAll(FX.pump());
  EXPECT_NE(Resp.find("200 OK"), std::string::npos);
  EXPECT_NE(Resp.find("gold-metrics-v1"), std::string::npos);
  EXPECT_NE(Resp.find("net.backpressure_replies"), std::string::npos);
  EXPECT_NE(Resp.find("service.backpressure_rejects"), std::string::npos);

  // The refused line was NOT buffered server-side: once the stall lifts
  // and the consumers drain the queue, honoring the hint and re-sending
  // the SAME line succeeds.
  Stall.reset();
  auto DeadlineAt = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (FX.Svc->health().QueuedItems != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), DeadlineAt)
        << "consumers never drained after the stall lifted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::snprintf(Head, sizeof(Head), "line 1 %zu ", Refused);
  ASSERT_TRUE(C.sendRaw(Head + Lines[Refused] + "\n"));
  ASSERT_TRUE(C.sendRaw("stat 1\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  char Want[32];
  std::snprintf(Want, sizeof(Want), "expect=%zu", Refused + 1);
  EXPECT_NE(L.find(Want), std::string::npos) << L;
}

TEST(NetServerTest, ScrapeServesHealthAndRejectsUnknownPaths) {
  NetConfig NC;
  NC.Scrape = true;
  NetFixture FX;
  FX.init(NC);

  TClient H;
  ASSERT_TRUE(H.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(H.sendRaw("GET /healthz HTTP/1.0\r\n\r\n"));
  std::string Resp = H.readAll(FX.pump());
  EXPECT_NE(Resp.find("200 OK"), std::string::npos);
  EXPECT_NE(Resp.find("gold-health-v1"), std::string::npos);
  EXPECT_NE(Resp.find("\"net\""), std::string::npos); // wire section present
  EXPECT_NE(Resp.find("closed_by"), std::string::npos);

  TClient Bad;
  ASSERT_TRUE(Bad.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(Bad.sendRaw("GET /nope HTTP/1.0\r\n\r\n"));
  EXPECT_NE(Bad.readAll(FX.pump()).find("404"), std::string::npos);

  TClient Put;
  ASSERT_TRUE(Put.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(Put.sendRaw("PUT /metrics HTTP/1.0\r\n\r\n"));
  EXPECT_NE(Put.readAll(FX.pump()).find("405"), std::string::npos);

  EXPECT_EQ(FX.Net->stats().ScrapeRequests, 3u);
}

TEST(NetServerTest, ScrapeStreamsBodiesLargerThanTheWriteQueue) {
  // Regression: a /metrics document bigger than the bounded write queue
  // must arrive complete. The response is streamed in WriteQueueCapBytes
  // chunks, and the NetWriteStall failpoint forces the partial-progress
  // path (flushes skipped mid-body) that used to truncate the reply.
  FailpointConfig FC;
  FC.Seed = 11;
  FC.rate(Failpoint::NetWriteStall, 200000); // skip 20% of flushes
  FailpointScope Scope(FC);

  ServiceConfig SC;
  SC.Telemetry = TelemetryLevel::Full;
  SC.Trace.Enabled = true; // registers the pipe.* histograms: bigger doc
  SC.Trace.SampleRatePpm = 1000000;
  NetConfig NC;
  NC.Scrape = true;
  NC.WriteQueueCapBytes = 512; // far smaller than the document
  NetFixture FX;
  FX.init(NC, SC);

  // Populate the histograms directly so the document carries real buckets.
  DetectionService::OpenResult O = FX.Svc->open(1);
  ASSERT_NE(O.S, nullptr) << O.Error;
  std::vector<std::string> Lines = traceLines(smallRandomTrace(40, 30));
  for (size_t I = 0; I != Lines.size(); ++I) {
    FrameTrace FT;
    FT.OriginNanos = 1;
    FT.FrameSeq = I;
    FT.Span = true;
    FeedResult R = feedFrame(*FX.Svc, FeedMode::Settle,
                             [&] { return O.S->feedLine(Lines[I], &FT); });
    ASSERT_EQ(R.St, FeedResult::Status::Accepted) << R.Error;
  }
  FX.Svc->pumpAll();
  FX.Svc->poll();

  TClient M;
  ASSERT_TRUE(M.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(M.sendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string Resp = M.readAll(FX.pump(), 20000);
  ASSERT_NE(Resp.find("200 OK"), std::string::npos);
  size_t ClAt = Resp.find("Content-Length: ");
  ASSERT_NE(ClAt, std::string::npos);
  size_t ContentLength = std::strtoull(Resp.c_str() + ClAt + 16, nullptr, 10);
  size_t HdrEnd = Resp.find("\r\n\r\n");
  ASSERT_NE(HdrEnd, std::string::npos);
  std::string Body = Resp.substr(HdrEnd + 4);
  // The whole point: the advertised length survives stalls and chunking.
  EXPECT_EQ(Body.size(), ContentLength);
  ASSERT_GT(Body.size(), NC.WriteQueueCapBytes)
      << "document no longer exercises the streaming path";
  EXPECT_EQ(Body.front(), '{');
  EXPECT_NE(Body.find("gold-metrics-v1"), std::string::npos);
  EXPECT_NE(Body.find("pipe.wire"), std::string::npos);
}

TEST(NetServerTest, HistoryEndpointServesTheRingAndUnboundIs404) {
  NetConfig NC;
  NC.Scrape = true;
  NetFixture FX;
  FX.init(NC);

  // No producer bound: the endpoint exists but reports itself disabled.
  TClient Off;
  ASSERT_TRUE(Off.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(Off.sendRaw("GET /metrics/history HTTP/1.0\r\n\r\n"));
  EXPECT_NE(Off.readAll(FX.pump()).find("404"), std::string::npos);

  // One producer feeds both --metrics-interval-ms snapshots and this ring;
  // binding it turns the endpoint on with whatever the ring holds.
  SnapshotProducer::Config PC;
  PC.HistoryCapacity = 8;
  SnapshotProducer P(
      PC, [&] { return FX.Net->metricsSnapshot(); },
      [&](bool Interrupted) { return FX.Net->healthJson(Interrupted); });
  P.sample(1000000000ull); // primes the baseline
  P.sample(3000000000ull); // first real delta sample
  FX.Net->bindSnapshots(&P);

  TClient On;
  ASSERT_TRUE(On.connectTo(FX.Net->scrapePort()));
  ASSERT_TRUE(On.sendRaw("GET /metrics/history HTTP/1.0\r\n\r\n"));
  std::string Resp = On.readAll(FX.pump());
  EXPECT_NE(Resp.find("200 OK"), std::string::npos);
  EXPECT_NE(Resp.find("gold-timeseries-v1"), std::string::npos);
  EXPECT_NE(Resp.find("\"dt_secs\":2"), std::string::npos) << Resp;
  EXPECT_NE(Resp.find("\"capacity\":8"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Deadlines, heartbeats, bounded write queues (manual clock)
//===----------------------------------------------------------------------===//

TEST(NetServerTest, OpenClockHandshakeCorrectsOriginStamps) {
  // The wire carries client-monotonic origins; the open handshake measures
  // the offset and every subsequent stamp is corrected into the server's
  // domain before the wire-stage histogram sees it. Manual clock makes the
  // arithmetic exact: server=1000 at open, client says 500 -> offset +500;
  // at admission (server=2000) a frame stamped @600 corrects to 1100, so
  // the wire stage records exactly 900ns.
  ServiceConfig SC;
  SC.Shards = 1;
  SC.Telemetry = TelemetryLevel::Full;
  SC.Trace.Enabled = true;
  SC.Trace.SampleRatePpm = 1000000;
  NetConfig NC;
  NetFixture FX;
  FX.init(NC, SC, /*ManualClock=*/true); // clock starts at 1000

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1 1 t=500\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_EQ(L.rfind("ok open 1", 0), 0u) << L;

  FX.Clock->store(2000, std::memory_order_relaxed);
  ASSERT_TRUE(C.sendRaw("line 1 0 @600 fork 0 1\n"));
  ASSERT_TRUE(C.sendRaw("stat 1\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_NE(L.find("expect=1"), std::string::npos) << L;
  FX.Svc->pumpAll();
  FX.Svc->poll();

  TelemetrySnapshot Snap = FX.Svc->telemetry();
  const HistogramSnapshot *Wire = nullptr;
  for (const auto &HS : Snap.Histograms)
    if (HS.Name == "pipe.wire")
      Wire = &HS;
  ASSERT_NE(Wire, nullptr);
  EXPECT_EQ(Wire->Count, 1u);
  EXPECT_EQ(Wire->Sum, 900u) << "origin not corrected by the open offset";
  EXPECT_GE(FX.Svc->spanSink()->size(), 1u);
}

TEST(NetServerTest, HeartbeatThenReadDeadlineClosesHalfOpenPeer) {
  NetConfig NC;
  NC.HeartbeatNanos = 100;
  NC.ReadDeadlineNanos = 1000;
  NetFixture FX;
  FX.init(NC, ServiceConfig(), /*ManualClock=*/true);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_EQ(L, "ok open 1");

  // Silence past the heartbeat threshold: the server probes with a ping.
  FX.Clock->store(2000);
  FX.Net->pollOnce(0);
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  EXPECT_EQ(L.rfind("ping ", 0), 0u) << L;
  EXPECT_EQ(FX.Net->stats().HeartbeatsSent, 1u);

  // Still silent past the read deadline: half-open, closed with the reason
  // on the wire. The session stays resumable.
  FX.Clock->store(5000);
  FX.Net->pollOnce(0);
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  EXPECT_EQ(L, "bye read-timeout");
  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.ClosedBy[static_cast<unsigned>(ConnClose::ReadTimeout)], 1u);
  EXPECT_EQ(FX.Net->openConnections(), 0u);

  // Reconnect: the stream resumes exactly where the server left it.
  TClient C2;
  ASSERT_TRUE(C2.connectTo(FX.Net->port()));
  ASSERT_TRUE(C2.sendRaw("open 1\n"));
  ASSERT_TRUE(C2.readLine(L, FX.pump()));
  EXPECT_EQ(L, "ok open 1 resumed expect=0");
  EXPECT_EQ(FX.Net->stats().Resumes, 1u);
}

TEST(NetServerTest, PongAnswersDeferTheReadDeadline) {
  NetConfig NC;
  NC.HeartbeatNanos = 100;
  NC.ReadDeadlineNanos = 1000;
  NetFixture FX;
  FX.init(NC, ServiceConfig(), /*ManualClock=*/true);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));

  for (uint64_t Now = 2000; Now <= 20000; Now += 900) {
    FX.Clock->store(Now);
    FX.Net->pollOnce(0);
    if (C.readLine(L, FX.pump(), 50) && L.rfind("ping", 0) == 0) {
      ASSERT_TRUE(C.sendRaw("pong" + L.substr(4) + "\n"));
      FX.Net->pollOnce(0); // the pong's bytes reset the liveness clock
    }
  }
  // A peer that answers probes is never read-timed-out.
  EXPECT_EQ(FX.Net->stats().ClosedBy[static_cast<unsigned>(
                ConnClose::ReadTimeout)],
            0u);
  EXPECT_GE(FX.Net->stats().HeartbeatsSent, 2u);
  EXPECT_EQ(FX.Net->openConnections(), 1u);
}

TEST(NetServerTest, WriteQueueBoundsShedOnlyNonCriticalReplies) {
  NetConfig NC;
  NC.WriteQueueCapBytes = 96; // short protocol acks fit; health lines do not
  NetFixture FX;
  FX.init(NC);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_EQ(L, "ok open 1");

  // The one-line health render is far larger than the queue: shed, counted,
  // and the connection SURVIVES — bounded memory, not collateral close.
  ASSERT_TRUE(C.sendRaw("health\n"));
  FX.Net->pollOnce(0);
  EXPECT_GE(FX.Net->stats().RepliesShed, 1u);
  ASSERT_TRUE(C.sendRaw("stat 1\n"));
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  EXPECT_EQ(L.rfind("ok stat 1 ", 0), 0u) << L;
  EXPECT_EQ(FX.Net->openConnections(), 1u);
  EXPECT_EQ(FX.Net->stats().ClosedBy[static_cast<unsigned>(
                ConnClose::WriteOverflow)],
            0u);
}

TEST(NetServerTest, AcceptShedAtMaxConnectionsTellsTheClientWhy) {
  NetConfig NC;
  NC.MaxConnections = 1;
  NetFixture FX;
  FX.init(NC);

  TClient First;
  ASSERT_TRUE(First.connectTo(FX.Net->port()));
  ASSERT_TRUE(First.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(First.readLine(L, FX.pump()));
  ASSERT_EQ(L, "ok open 1");

  TClient Second;
  ASSERT_TRUE(Second.connectTo(FX.Net->port()));
  ASSERT_TRUE(Second.readLine(L, FX.pump()));
  EXPECT_EQ(L, "bye accept-shed"); // told to back off, not silently reset
  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.ConnsRejected, 1u);
  EXPECT_EQ(S.ClosedBy[static_cast<unsigned>(ConnClose::AcceptShed)], 1u);
  EXPECT_EQ(FX.Net->openConnections(), 1u);
}

//===----------------------------------------------------------------------===//
// Crash-only drain
//===----------------------------------------------------------------------===//

TEST(NetServerTest, DrainSettlesKernelBufferedFramesWithCountedPartials) {
  NetFixture FX;
  FX.init(NetConfig());
  Trace T = smallRandomTrace(21, 30);
  std::vector<std::string> Lines = traceLines(T);

  TClient C;
  ASSERT_TRUE(C.connectTo(FX.Net->port()));
  ASSERT_TRUE(C.sendRaw("open 1\n"));
  std::string L;
  ASSERT_TRUE(C.readLine(L, FX.pump()));
  ASSERT_EQ(L, "ok open 1");

  // Everything below sits in the kernel receive buffer: the server never
  // polls again before the drain, exactly the SIGTERM-arrives-mid-burst
  // shape. The final fragment has no LF — a partial frame drain must count.
  std::string Burst;
  char Head[48];
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::snprintf(Head, sizeof(Head), "line 1 %zu ", I);
    Burst += Head + Lines[I] + "\n";
  }
  Burst += "line 1 999 half-a-fra"; // dangling partial
  ASSERT_TRUE(C.sendRaw(Burst));

  FX.Net->drainAndStop();
  ASSERT_TRUE(C.readLine(L, nullptr));
  EXPECT_EQ(L, "bye server-drain");

  // Zero loss: every complete frame settled into the service; the one
  // partial is counted, never silent.
  ServiceHealth H = FX.Svc->health();
  EXPECT_EQ(H.LinesAccepted, Lines.size());
  EXPECT_EQ(H.ParseErrors, 0u);
  NetStats S = FX.Net->stats();
  EXPECT_EQ(S.DrainDroppedFrames, 0u);
  EXPECT_EQ(S.PartialFramesDropped, 1u);
  EXPECT_EQ(S.FramesIn, Lines.size() + 1); // + the open frame
  EXPECT_EQ(FX.Net->openConnections(), 0u);
  EXPECT_EQ(FX.Net->pollOnce(0), 0u); // idempotent: drained servers no-op
  FX.Net->drainAndStop();
}

//===----------------------------------------------------------------------===//
// The acceptance soak: eight GoldClient producers over TCP
//===----------------------------------------------------------------------===//

namespace {

/// Eight concurrent GoldClient threads, one seeded random trace each,
/// against a service pumped inline by the server or (\p Threaded) running
/// its own consumer threads; /metrics is scraped while they stream. With
/// \p Chaos the four server-side net failpoints and the client-side
/// net-client-drop are armed. That chaos only hurts the transport, so
/// reconnect-resume must heal all of it: every client closes with
/// oracle-exact verdicts and the server counts resumes. Without it,
/// nothing may be lost, resynced, dropped or reconnected.
void runGoldClientFleet(bool Chaos, bool Threaded) {
  // The armed sites; each must fire at least once per chaos run.
  constexpr Failpoint ChaosSites[] = {
      Failpoint::NetAcceptFail, Failpoint::NetPartialRead,
      Failpoint::NetWriteStall, Failpoint::NetConnHang,
      Failpoint::NetClientDrop};
  FailpointConfig FC;
  FC.Seed = 1;
  if (Chaos) {
    // Each site fires at an evaluation index its seed-1 stream fixes, so a
    // site fires in every run whose evaluation count passes its first
    // firing index. Runs evaluate accept-fail 17-100 times and conn-hang
    // and write-stall 50-300 times; these rates first fire at evaluations
    // 0, 3 and 16.
    FC.rate(Failpoint::NetAcceptFail, 90000);
    FC.rate(Failpoint::NetPartialRead, 100000);
    FC.rate(Failpoint::NetWriteStall, 100000);
    FC.rate(Failpoint::NetConnHang, 20000);
    FC.rate(Failpoint::NetClientDrop, 50000);
  }
  FailpointScope Scope(FC);

  ServiceConfig SC;
  SC.RingCapacity = 64; // small rings: real wire backpressure under load
  DetectionService Svc(SC);
  NetConfig NC;
  NC.Scrape = true;
  // Deadlines sized for an oversubscribed host: a client thread descheduled
  // for a few quanta must not lose a healthy connection, while a hung one
  // (the conn-hang failpoint) still resolves within one read deadline.
  NC.ReadDeadlineNanos = 500ull * 1000000;
  NC.HeartbeatNanos = 150ull * 1000000;
  NC.WriteDeadlineNanos = 2000ull * 1000000;
  NetServer Net(Svc, NC);
  std::string Err;
  ASSERT_TRUE(Net.start(Err)) << Err;
  if (Threaded)
    Svc.start();

  constexpr unsigned K = 8;
  std::vector<Trace> Traces;
  for (unsigned I = 0; I != K; ++I)
    Traces.push_back(smallRandomTrace(1000 + I, 40));

  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Net.runLoop(Stop, 2); });
  std::vector<std::optional<std::set<std::string>>> Got(K);
  std::vector<std::string> Why(K);
  std::atomic<uint64_t> Reconnects{0}, Resumes{0};
  std::string Scraped;
  {
    std::vector<std::thread> Clients;
    for (unsigned I = 0; I != K; ++I)
      Clients.emplace_back([&, I] {
        client::GoldClientConfig CC;
        CC.ClientId = I + 1;
        CC.Port = Net.port();
        CC.BufferCapActions = Traces[I].Actions.size() + 8; // no shedding
        CC.OpTimeoutNanos = 120ull * 1000000000;
        client::GoldClient GC(CC);
        if (!GC.connect(Why[I]))
          return;
        for (const Action &A : Traces[I].Actions)
          if (!GC.publish(A, A.Kind == ActionKind::Commit
                                 ? &Traces[I].commitSets(A)
                                 : nullptr))
            break; // the stream died; closeAndCollect says why
        std::vector<std::string> Vars;
        if (GC.closeAndCollect(Vars, Why[I]))
          Got[I].emplace(Vars.begin(), Vars.end());
        Reconnects += GC.stats().Reconnects;
        Resumes += GC.stats().Resumes;
      });
    // Mid-soak scrape: the health surface must answer while chaos runs.
    TClient Scrape;
    if (Scrape.connectTo(Net.scrapePort()) &&
        Scrape.sendRaw("GET /metrics HTTP/1.0\r\n\r\n"))
      Scraped = Scrape.readAll(nullptr, 600);
    for (std::thread &T : Clients)
      T.join();
  }
  Stop.store(true);
  Loop.join();
  Net.drainAndStop();
  Svc.shutdown();

  EXPECT_NE(Scraped.find("gold-metrics-v1"), std::string::npos);
  for (unsigned I = 0; I != K; ++I) {
    ASSERT_TRUE(Got[I]) << "client " << I + 1 << ": " << Why[I];
    EXPECT_EQ(*Got[I], oracleVarStrings(Traces[I])) << "client " << I + 1;
  }
  NetStats S = Net.stats();
  EXPECT_EQ(S.DrainDroppedFrames, 0u);
  EXPECT_EQ(Svc.health().VerdictLossEvents, 0u);
  EXPECT_EQ(Svc.health().ParseErrors, 0u);
  if (Chaos) {
    for (Failpoint F : ChaosSites) {
      EXPECT_GT(Failpoints::instance().fires(F), 0u)
          << failpointName(F) << " never fired in "
          << Failpoints::instance().evaluations(F) << " evaluations";
    }
    EXPECT_GT(Resumes.load(), 0u);
    EXPECT_GT(S.Resumes, 0u); // reconnect-with-resume actually exercised
    return;
  }
  EXPECT_EQ(S.ResyncReplies, 0u); // the steady-state resync storm stays fixed
  EXPECT_EQ(Reconnects.load(), 0u);
}

} // namespace

TEST(NetGoldClientTest, EightProducersSteadyLoseNothing) {
  runGoldClientFleet(/*Chaos=*/false, /*Threaded=*/false);
}

TEST(NetGoldClientTest, EightProducersUnderNetFailpointsMatchOracle) {
  runGoldClientFleet(/*Chaos=*/true, /*Threaded=*/false);
}

TEST(NetGoldClientTest, EightProducersUnderNetFailpointsOverThreadedService) {
  runGoldClientFleet(/*Chaos=*/true, /*Threaded=*/true);
}

TEST(NetServerTest, CloseAnswersWithTheCompleteVerdictSetOverThreadedService) {
  FailpointScope Stalls(closerule::ingestStalls());
  DetectionService Svc(closerule::serviceConfig());
  NetServer Net(Svc, NetConfig());
  std::string Err;
  ASSERT_TRUE(Net.start(Err)) << Err;
  Svc.start();
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Net.runLoop(Stop, 2); });

  client::GoldClientConfig CC;
  CC.Port = Net.port();
  closerule::closeReturnsCompleteVerdicts(CC);

  Stop.store(true);
  Loop.join();
  Net.drainAndStop();
  Svc.shutdown();
  EXPECT_EQ(Svc.health().VerdictLossEvents, 0u);
}
