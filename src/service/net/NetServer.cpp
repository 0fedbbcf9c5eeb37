//===- service/net/NetServer.cpp - poll()-based socket front end ----------===//

#include "service/net/NetServer.h"

#include "service/Backoff.h"
#include "service/Snapshots.h"
#include "service/net/Protocol.h"
#include "support/Failpoints.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0 // best effort on platforms without it
#endif

using namespace gold;
using namespace gold::net;

const char *gold::net::connCloseReasonName(ConnClose R) {
  switch (R) {
  case ConnClose::ClientQuit:
    return "client-quit";
  case ConnClose::ClientEof:
    return "client-eof";
  case ConnClose::ReadTimeout:
    return "read-timeout";
  case ConnClose::WriteTimeout:
    return "write-timeout";
  case ConnClose::WriteOverflow:
    return "write-overflow";
  case ConnClose::ErrorBudget:
    return "error-budget";
  case ConnClose::AcceptShed:
    return "accept-shed";
  case ConnClose::ServerDrain:
    return "server-drain";
  case ConnClose::SocketError:
    return "socket-error";
  case ConnClose::ScrapeDone:
    return "scrape-done";
  case ConnClose::Count_:
    break;
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Connection state
//===----------------------------------------------------------------------===//

struct NetServer::Conn {
  Conn(int F, bool Scrape, size_t MaxFrame)
      : Fd(F), OutFd(F), IsScrape(Scrape), Framer(MaxFrame) {}

  int Fd = -1;    ///< read side; also the stream owner token
  int OutFd = -1; ///< write side: Fd for a socket
  bool IsScrape = false;
  bool IsStream = false; ///< adoptStream(): a local byte stream, not a peer
  bool Closed = false;
  bool Hung = false;            ///< net-conn-hang latched: reads stop
  bool PingOutstanding = false; ///< server ping sent, pong (or any bytes)
                                ///< not yet seen
  /// Deferred graceful close: applied once the write queue flushes dry.
  ConnClose CloseAfter = ConnClose::Count_;

  LineFramer Framer;
  std::string ScrapeBuf; ///< scrape conns: accumulated request head
  /// Scrape conns: the full response, streamed into Out in bounded chunks
  /// (large bodies — /metrics with histograms, /metrics/history — must not
  /// assume one write() nor one write-queue's worth of room suffices).
  std::string ScrapeResp;
  size_t ScrapeRespPos = 0;

  std::string Out; ///< bounded write queue (flat buffer + cursor)
  size_t OutPos = 0;

  uint64_t LastReadNanos = 0;
  uint64_t LastWriteProgressNanos = 0;
  size_t Errors = 0;          ///< protocol errors charged so far
  unsigned VerdictAttempt = 0; ///< verdict-delivery backoff schedule
  std::vector<uint64_t> Bound; ///< client ids this connection owns
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

NetServer::NetServer(DetectionService &S, NetConfig C)
    : Svc(S), Cfg(std::move(C)) {}

NetServer::~NetServer() {
  drainAndStop();
}

static bool setNonblock(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

bool NetServer::listenOn(uint16_t Want, int &FdOut, uint16_t &BoundOut,
                         std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = "socket: ";
    Err += std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in A;
  std::memset(&A, 0, sizeof(A));
  A.sin_family = AF_INET;
  A.sin_port = htons(Want);
  if (::inet_pton(AF_INET, Cfg.BindAddr.c_str(), &A.sin_addr) != 1) {
    Err = "bad bind address: " + Cfg.BindAddr;
    ::close(Fd);
    return false;
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0 ||
      ::listen(Fd, 64) != 0 || !setNonblock(Fd)) {
    Err = "bind/listen: ";
    Err += std::strerror(errno);
    ::close(Fd);
    return false;
  }
  socklen_t AL = sizeof(A);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&A), &AL) != 0) {
    Err = "getsockname: ";
    Err += std::strerror(errno);
    ::close(Fd);
    return false;
  }
  FdOut = Fd;
  BoundOut = ntohs(A.sin_port);
  return true;
}

bool NetServer::start(std::string &Err) {
  if (!listenOn(Cfg.Port, ListenFd, BoundPort, Err))
    return false;
  if (Cfg.Scrape && !listenOn(Cfg.ScrapePort, ScrapeFd, BoundScrapePort, Err)) {
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  return true;
}

void NetServer::adoptStream(int InFd, int OutFd) {
  auto C = std::make_unique<Conn>(InFd, false, Cfg.MaxFrameBytes);
  C->OutFd = OutFd;
  C->IsStream = true;
  Conns.push_back(std::move(C));
  OpenConns.fetch_add(1, std::memory_order_relaxed);
}

/// Sockets use recv/send (MSG_NOSIGNAL); an adopted stream read/write.
static ssize_t connRead(int Fd, bool Stream, char *Buf, size_t N) {
  return Stream ? ::read(Fd, Buf, N) : ::recv(Fd, Buf, N, 0);
}

static ssize_t connWrite(int Fd, bool Stream, const char *Buf, size_t N) {
  return Stream ? ::write(Fd, Buf, N) : ::send(Fd, Buf, N, MSG_NOSIGNAL);
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

size_t NetServer::pollOnce(int TimeoutMs) {
  if (Drained)
    return 0;
  std::vector<pollfd> P;
  std::vector<Conn *> Owner; // parallel to P; nullptr for listeners
  P.reserve(Conns.size() + 2);
  if (ListenFd >= 0) {
    P.push_back({ListenFd, POLLIN, 0});
    Owner.push_back(nullptr);
  }
  if (ScrapeFd >= 0) {
    P.push_back({ScrapeFd, POLLIN, 0});
    Owner.push_back(nullptr);
  }
  for (auto &Cp : Conns) {
    Conn &C = *Cp;
    if (C.Closed)
      continue;
    short Ev = 0;
    if (!C.Hung)
      Ev |= POLLIN;
    if (C.Out.size() != C.OutPos)
      Ev |= POLLOUT;
    P.push_back({C.Fd, Ev, 0});
    Owner.push_back(&C);
  }

  int N = ::poll(P.data(), P.size(), TimeoutMs);
  if (N < 0 && errno != EINTR)
    return 0;

  size_t Frames = St.FramesIn.load(std::memory_order_relaxed);
  if (N > 0) {
    for (size_t I = 0; I != P.size(); ++I) {
      if (!(P[I].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)))
        continue;
      if (!Owner[I]) {
        acceptPending(P[I].fd, P[I].fd == ScrapeFd);
        continue;
      }
      Conn &C = *Owner[I];
      readConn(C);
      if (C.Closed)
        continue;
      if (C.IsScrape)
        dispatchScrape(C);
      else
        dispatchFrames(C);
    }
  }

  uint64_t Now = now();
  for (auto &Cp : Conns) {
    if (Cp->Closed)
      continue;
    flushConn(*Cp);
    if (!Cp->Closed)
      checkDeadlines(*Cp, Now);
  }
  reapClosed();

  if (!Svc.consumersRunning())
    Svc.makeProgress();
  return St.FramesIn.load(std::memory_order_relaxed) - Frames;
}

void NetServer::runLoop(const std::atomic<bool> &Stop, int TimeoutMs) {
  while (!Stop.load(std::memory_order_relaxed) &&
         !StopFlag.load(std::memory_order_relaxed) && !Drained)
    pollOnce(TimeoutMs);
}

void NetServer::acceptPending(int LFd, bool IsScrape) {
  for (;;) {
    sockaddr_in A;
    socklen_t AL = sizeof(A);
    int Fd = ::accept(LFd, reinterpret_cast<sockaddr *>(&A), &AL);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // EAGAIN (or transient): nothing more to accept now
    }
    if (!IsScrape && failpoint(Failpoint::NetAcceptFail)) {
      ::close(Fd);
      St.ConnsRejected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (OpenConns.load(std::memory_order_relaxed) >= Cfg.MaxConnections) {
      // Shed at the door, with the reason on the wire — a refused client
      // must be told to back off, not left staring at a silent RST.
      static const char Busy[] = "bye accept-shed\n";
      ::send(Fd, Busy, sizeof(Busy) - 1, MSG_NOSIGNAL);
      ::close(Fd);
      St.ConnsRejected.fetch_add(1, std::memory_order_relaxed);
      St.ClosedBy[static_cast<unsigned>(ConnClose::AcceptShed)].fetch_add(
          1, std::memory_order_relaxed);
      continue;
    }
    if (!setNonblock(Fd)) {
      ::close(Fd);
      St.ConnsRejected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!IsScrape) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    auto C = std::make_unique<Conn>(Fd, IsScrape, Cfg.MaxFrameBytes);
    C->LastReadNanos = C->LastWriteProgressNanos = now();
    Conns.push_back(std::move(C));
    OpenConns.fetch_add(1, std::memory_order_relaxed);
    if (!IsScrape)
      St.ConnsAccepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::readConn(Conn &C) {
  if (C.Closed)
    return;
  if (!C.IsScrape && !C.IsStream && !C.Hung &&
      failpoint(Failpoint::NetConnHang)) {
    // Half-open simulation: stop reading this peer entirely. The read
    // deadline will eventually close it, and a reconnecting client resumes
    // from the server's expected seq — the full half-open recovery path.
    C.Hung = true;
    St.ConnHangs.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (C.Hung)
    return;
  char Buf[4096];
  for (;;) {
    size_t Want = sizeof(Buf);
    if (!C.IsStream && failpoint(Failpoint::NetPartialRead))
      Want = 1; // deliver one byte: frames fragment across reads
    ssize_t N = connRead(C.Fd, C.IsStream, Buf, Want);
    if (N > 0) {
      St.BytesIn.fetch_add(static_cast<uint64_t>(N),
                           std::memory_order_relaxed);
      C.LastReadNanos = now();
      C.PingOutstanding = false; // any inbound bytes prove liveness
      if (C.IsScrape) {
        C.ScrapeBuf.append(Buf, static_cast<size_t>(N));
        if (C.ScrapeBuf.size() > 8192) {
          closeConn(C, ConnClose::ErrorBudget);
          return;
        }
      } else {
        C.Framer.feed(Buf, static_cast<size_t>(N));
      }
      // A blocking stream is read once per POLLIN: a second read could
      // wait on a writer that is still open.
      if (C.IsStream || Want == 1 || static_cast<size_t>(N) < Want)
        break;
      continue;
    }
    if (N == 0) {
      if (C.IsStream) {
        // A script's unterminated last line is still a command, and
        // stdout outlives stdin: answer everything before closing.
        if (C.Framer.hasPartial()) {
          C.Framer.feed("\n", 1);
          dispatchFrames(C);
        }
        flushConn(C);
      }
      closeConn(C, ConnClose::ClientEof);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    closeConn(C, ConnClose::SocketError);
    return;
  }
}

void NetServer::dispatchFrames(Conn &C) {
  std::string L;
  while (!C.Closed && C.CloseAfter == ConnClose::Count_) {
    LineFramer::Frame K = C.Framer.next(L);
    if (K == LineFramer::Frame::None)
      break;
    if (K == LineFramer::Frame::Oversize) {
      St.OversizeFrames.fetch_add(1, std::memory_order_relaxed);
      enqueue(C, "err proto oversize frame dropped", false);
      chargeError(C);
      continue;
    }
    uint64_t T0 = now();
    St.FramesIn.fetch_add(1, std::memory_order_relaxed);
    dispatchIngest(C, L, /*Draining=*/false);
    FrameLatency.record(now() - T0);
  }
}

//===----------------------------------------------------------------------===//
// Ingest protocol
//===----------------------------------------------------------------------===//

static const char *sessionStateName(SessionState S) {
  switch (S) {
  case SessionState::Open:
    return "open";
  case SessionState::Draining:
    return "draining";
  case SessionState::Dead:
    return "dead";
  }
  return "?";
}

/// Splits an optional leading all-digits token off \p Rest. Trace lines
/// always start with an alphabetic keyword, so a digit run can only be a
/// client sequence number — the grammar stays unambiguous.
static bool splitSeq(std::string &Rest, uint64_t &Seq) {
  size_t I = 0;
  while (I < Rest.size() && Rest[I] >= '0' && Rest[I] <= '9')
    ++I;
  if (I == 0 || I == Rest.size() || Rest[I] != ' ')
    return false;
  Seq = std::strtoull(Rest.substr(0, I).c_str(), nullptr, 10);
  Rest.erase(0, I + 1);
  return true;
}

void NetServer::dispatchIngest(Conn &C, const std::string &Line,
                               bool Draining) {
  std::istringstream In(Line);
  std::string Cmd;
  In >> Cmd;
  if (Cmd.empty())
    return;
  char Reply[192];

  if (Cmd == "ping") {
    std::string Token;
    In >> Token;
    enqueue(C, Token.empty() ? "pong" : "pong " + Token, false);
    return;
  }
  if (Cmd == "pong") {
    C.PingOutstanding = false; // already cleared by the read, but explicit
    return;
  }
  if (Cmd == "quit") {
    enqueue(C, "bye client-quit", true);
    if (C.CloseAfter == ConnClose::Count_)
      C.CloseAfter = ConnClose::ClientQuit;
    return;
  }
  if (Cmd == "health") {
    enqueue(C, "health " + Svc.health().str(), false);
    return;
  }

  uint64_t Id = 0;
  if (!(In >> Id)) {
    enqueue(C, "err proto missing client id: " + Cmd, false);
    chargeError(C);
    return;
  }

  if (Cmd == "open") {
    unsigned Priority = 1;
    In >> Priority;
    // Clock handshake: `t=<client-now-ns>` measures the client->server
    // monotonic offset under the open's one-way latency (same host: ~µs).
    // Re-measured by every open carrying the token, so a reconnect heals a
    // stale offset.
    uint64_t ClientNow = 0;
    std::optional<int64_t> Offset;
    if (proto::parseClock(Line, ClientNow))
      Offset = (int64_t)now() - (int64_t)ClientNow;
    StreamOpen O = Streams.open(Svc, Id, Priority, uint64_t(C.Fd), Offset,
                                [](uint64_t) { return false; });
    if (O.K == StreamOpen::Kind::Busy) {
      proto::fmtErrOpenBusy(Reply, sizeof(Reply), Id);
      enqueue(C, Reply, false);
      chargeError(C);
      return;
    }
    if (O.K == StreamOpen::Kind::Refused) {
      St.BackpressureReplies.fetch_add(1, std::memory_order_relaxed);
      proto::fmtErrOpenRetry(Reply, sizeof(Reply), Id, O.RetryAfterNanos,
                             O.Error.c_str());
      enqueue(C, Reply, false);
      return;
    }
    bool Resumed = O.K == StreamOpen::Kind::Resumed;
    if (O.Rebound) {
      if (Resumed)
        St.Resumes.fetch_add(1, std::memory_order_relaxed);
      C.Bound.push_back(Id);
    }
    if (Resumed)
      proto::fmtOkOpenResumed(Reply, sizeof(Reply), Id, O.St->Expect);
    else
      proto::fmtOkOpen(Reply, sizeof(Reply), Id);
    enqueue(C, Reply, true);
    return;
  }

  ClientStream *B = Streams.find(Id);
  if (!B) {
    std::snprintf(Reply, sizeof(Reply), "err %s %llu unknown client",
                  Cmd.c_str(), (unsigned long long)Id);
    enqueue(C, Reply, false);
    chargeError(C);
    return;
  }
  Session &S = *B->S;

  if (Cmd == "stat") {
    proto::fmtOkStat(Reply, sizeof(Reply), Id, sessionStateName(S.state()),
                     closeReasonName(S.closeReason()), S.linesAccepted(),
                     B->Expect);
    enqueue(C, Reply, false);
    return;
  }

  if (B->Owner != uint64_t(C.Fd)) {
    std::snprintf(Reply, sizeof(Reply), "err %s %llu not owner", Cmd.c_str(),
                  (unsigned long long)Id);
    enqueue(C, Reply, false);
    chargeError(C);
    return;
  }

  if (Cmd == "line") {
    std::string Rest;
    std::getline(In, Rest);
    if (!Rest.empty() && Rest[0] == ' ')
      Rest.erase(0, 1);
    uint64_t Seq = 0;
    bool HasSeq = splitSeq(Rest, Seq);
    SeqClass SC = HasSeq ? B->classify(Seq) : SeqClass::InOrder;
    if (SC == SeqClass::Dup) {
      // Idempotent retransmit after a reconnect: already applied.
      St.DupFrames.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (SC == SeqClass::Ahead) {
      // The client ran ahead of an un-acked refusal (or lost a reply).
      // One resync reply per stall: echoing one per pipelined frame is a
      // storm that can outrun the write queue (see ClientStream::ResyncAt).
      if (B->ResyncAt == B->Expect) {
        St.FalloutFrames.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      St.ResyncReplies.fetch_add(1, std::memory_order_relaxed);
      B->ResyncAt = B->Expect;
      proto::fmtErrLineResync(Reply, sizeof(Reply), Id, Seq, B->Expect);
      enqueue(C, Reply, false);
      return;
    }
    // Optional origin stamp: `@<client-monotonic-ns>` between the seq and
    // the trace line. Always stripped (the parser must never see it);
    // threaded into the service as a span context only when sampled.
    FrameTrace FT;
    const FrameTrace *FTp = nullptr;
    const char *RestC = Rest.c_str();
    uint64_t RawOrigin = 0;
    if (proto::splitOrigin(RestC, RawOrigin)) {
      Rest.erase(0, static_cast<size_t>(RestC - Rest.c_str()));
      FTp = B->trace(Svc, Id, HasSeq ? Seq : 0, RawOrigin, FT);
    }
    if (Rest.empty()) {
      enqueue(C, "err proto missing trace line", false);
      chargeError(C);
      return;
    }
    // A stream's line already arrived and its script cannot retry.
    FeedResult R = feedFrame(
        Svc, Draining || C.IsStream ? FeedMode::Settle : FeedMode::Live,
        [&] { return S.feedLine(Rest, FTp); });
    if (R.St == FeedResult::Status::Backpressure) {
      if (Draining) {
        St.DrainDroppedFrames.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Wire-level backpressure: the line was NOT consumed and is NOT
      // buffered here. The client owns the retry, with the service's
      // jittered hint.
      St.BackpressureReplies.fetch_add(1, std::memory_order_relaxed);
      if (HasSeq) {
        // Open the fallout gate: the reply tells the client to rewind to
        // this seq, so everything it already pipelined past it will
        // arrive ahead-of-expect and is dropped without further replies.
        B->ResyncAt = B->Expect;
        proto::fmtErrLineBackpressure(Reply, sizeof(Reply), Id, Seq,
                                      R.RetryAfterNanos);
      } else {
        proto::fmtErrLineBackpressureNoSeq(Reply, sizeof(Reply), Id,
                                           R.RetryAfterNanos);
      }
      enqueue(C, Reply, false);
      return;
    }
    if (HasSeq)
      B->advance(); // Accepted/Rejected/Closed all consume the line
    switch (R.St) {
    case FeedResult::Status::Accepted:
      break; // silent: streams are long
    case FeedResult::Status::Rejected:
      // Feeds both budgets: the session already charged its own.
      std::snprintf(Reply, sizeof(Reply), "err line %llu %s",
                    (unsigned long long)Id, R.Error.c_str());
      enqueue(C, Reply, false);
      chargeError(C);
      break;
    case FeedResult::Status::Backpressure:
      break; // answered above
    case FeedResult::Status::Closed:
      std::snprintf(Reply, sizeof(Reply), "err line %llu closed: %s",
                    (unsigned long long)Id, R.Error.c_str());
      enqueue(C, Reply, false);
      break;
    }
    return;
  }

  if (Cmd == "close") {
    // The close rule (DESIGN.md §14): the complete verdict set or a retry.
    size_t N = deliverVerdicts(C, Id, S, settleClose(Svc, S));
    if (N == SIZE_MAX)
      return; // backpressured; client retries `close` (idempotent)
    proto::fmtOkClose(Reply, sizeof(Reply), Id, N);
    enqueue(C, Reply, true);
    return;
  }

  if (Cmd == "verdicts") {
    if (!Draining && !Svc.consumersRunning())
      Svc.drain();
    size_t N = deliverVerdicts(C, Id, S, /*Complete=*/true);
    if (N == SIZE_MAX)
      return;
    proto::fmtOkVerdicts(Reply, sizeof(Reply), Id, N,
                         sessionStateName(S.state()));
    enqueue(C, Reply, true);
    return;
  }

  std::snprintf(Reply, sizeof(Reply), "err proto unknown command: %s",
                Cmd.c_str());
  enqueue(C, Reply, false);
  chargeError(C);
}

size_t NetServer::deliverVerdicts(Conn &C, uint64_t Id, Session &S,
                                  bool Complete) {
  // Room check BEFORE draining the session: refused delivery leaves the
  // verdicts queued server-side, so a slow reader loses nothing — it is
  // told to come back, with the same backoff schedule as everything else.
  // An incomplete set (a close that did not settle) is refused the same way.
  // A stream makes room by writing through instead.
  if (C.IsStream)
    flushConn(C);
  size_t Pending = C.Out.size() - C.OutPos;
  if (!Complete || Pending > Cfg.WriteQueueCapBytes / 2) {
    uint64_t Wait = backoffNanos(BackoffBaseNanos, C.VerdictAttempt++,
                                 Id ^ uint64_t(C.Fd), BackoffMaxNanos);
    St.BackpressureReplies.fetch_add(1, std::memory_order_relaxed);
    char Reply[96];
    proto::fmtErrVerdictsBackpressure(Reply, sizeof(Reply), Id, Wait);
    enqueue(C, Reply, false);
    return SIZE_MAX;
  }
  C.VerdictAttempt = 0;
  std::vector<RaceReport> Races = S.takeVerdicts();
  char Head[32];
  proto::fmtRaceHead(Head, sizeof(Head), Id);
  for (const RaceReport &R : Races) {
    if (!enqueue(C, Head + R.str(), true)) {
      // Critical overflow: the connection is being closed; the verdicts we
      // took but could not carry are counted, never silent.
      St.VerdictRepliesDropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Races.size();
}

void NetServer::chargeError(Conn &C) {
  St.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
  if (++C.Errors > ConnErrorBudget && !C.IsStream) {
    sendBye(C, ConnClose::ErrorBudget);
    closeConn(C, ConnClose::ErrorBudget);
  }
}

//===----------------------------------------------------------------------===//
// Scrape protocol (HTTP/1.0, two endpoints, one response per connection)
//===----------------------------------------------------------------------===//

void NetServer::dispatchScrape(Conn &C) {
  if (C.CloseAfter != ConnClose::Count_)
    return; // response already queued
  size_t HeadEnd = C.ScrapeBuf.find("\r\n\r\n");
  size_t Skip = 4;
  if (HeadEnd == std::string::npos) {
    HeadEnd = C.ScrapeBuf.find("\n\n");
    Skip = 2;
  }
  if (HeadEnd == std::string::npos)
    return; // headers incomplete; keep reading
  (void)Skip;
  St.ScrapeRequests.fetch_add(1, std::memory_order_relaxed);

  std::istringstream In(C.ScrapeBuf.substr(0, C.ScrapeBuf.find('\n')));
  std::string Method, Path;
  In >> Method >> Path;

  std::string Body;
  const char *Status = "200 OK";
  if (Method != "GET") {
    Status = "405 Method Not Allowed";
    Body = "{\"error\":\"method not allowed\"}";
  } else if (Path == "/healthz") {
    Body = Snapshots ? Snapshots->healthJson(false) : healthJson(false);
  } else if (Path == "/metrics") {
    Body = Snapshots ? Snapshots->metricsJson() : metricsJson();
  } else if (Path == "/metrics/history") {
    if (Snapshots) {
      Body = Snapshots->historyJson();
    } else {
      Status = "404 Not Found";
      Body = "{\"error\":\"history not enabled (run with a metrics "
             "interval)\"}";
    }
  } else {
    Status = "404 Not Found";
    Body = "{\"error\":\"unknown path (try /healthz, /metrics or "
           "/metrics/history)\"}";
  }

  char Head[160];
  std::snprintf(Head, sizeof(Head),
                "HTTP/1.0 %s\r\nContent-Type: application/json\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                Status, Body.size());
  // One response per connection, streamed through the bounded write queue
  // in WriteQueueCapBytes chunks: a body larger than the queue (a /metrics
  // document full of histograms, a deep /metrics/history ring) must not
  // force a WriteOverflow close, and a slow reader still can't pin more
  // than one response of memory (the response was rendered once, above).
  C.ScrapeResp = Head + Body;
  C.ScrapeRespPos = 0;
  C.CloseAfter = ConnClose::ScrapeDone;
  refillScrape(C);
}

/// Moves the next chunk of a pending scrape response into the bounded
/// write queue. Called at dispatch and again whenever flushConn drains the
/// queue; the connection closes (ScrapeDone) only once the whole response
/// has been copied AND flushed.
void NetServer::refillScrape(Conn &C) {
  if (C.ScrapeRespPos >= C.ScrapeResp.size())
    return;
  size_t Pending = C.Out.size() - C.OutPos;
  if (Pending >= Cfg.WriteQueueCapBytes)
    return; // queue full; flushConn will call back after progress
  if (Pending == 0)
    C.LastWriteProgressNanos = now(); // deadline clock starts now
  if (C.OutPos > 4096 && C.OutPos * 2 > C.Out.size()) {
    C.Out.erase(0, C.OutPos);
    C.OutPos = 0;
  }
  size_t Room = Cfg.WriteQueueCapBytes - Pending;
  size_t N = std::min(Room, C.ScrapeResp.size() - C.ScrapeRespPos);
  C.Out.append(C.ScrapeResp, C.ScrapeRespPos, N);
  C.ScrapeRespPos += N;
}

//===----------------------------------------------------------------------===//
// Write path, deadlines, close
//===----------------------------------------------------------------------===//

bool NetServer::enqueue(Conn &C, const std::string &Line, bool Critical) {
  if (C.Closed)
    return false;
  size_t Pending = C.Out.size() - C.OutPos;
  if (Pending + Line.size() + 1 > Cfg.WriteQueueCapBytes) {
    if (C.IsStream) {
      // A stream's replies are never shed: write the queue through
      // (blocking) and take the line whatever its size.
      flushConn(C);
      if (C.Closed)
        return false;
    } else if (!Critical) {
      St.RepliesShed.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      closeConn(C, ConnClose::WriteOverflow);
      return false;
    }
  }
  if (Pending == 0)
    C.LastWriteProgressNanos = now(); // deadline clock starts now
  if (C.OutPos > 4096 && C.OutPos * 2 > C.Out.size()) {
    C.Out.erase(0, C.OutPos);
    C.OutPos = 0;
  }
  C.Out += Line;
  C.Out += '\n';
  return true;
}

void NetServer::flushConn(Conn &C) {
  if (C.Closed)
    return;
  size_t Pending = C.Out.size() - C.OutPos;
  if (Pending && !C.IsStream && failpoint(Failpoint::NetWriteStall)) {
    St.WriteStalls.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  for (;;) {
    while (C.OutPos != C.Out.size()) {
      ssize_t N = connWrite(C.OutFd, C.IsStream, C.Out.data() + C.OutPos,
                            C.Out.size() - C.OutPos);
      if (N > 0) {
        C.OutPos += static_cast<size_t>(N);
        St.BytesOut.fetch_add(static_cast<uint64_t>(N),
                              std::memory_order_relaxed);
        C.LastWriteProgressNanos = now();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return; // kernel buffer full; poll will call back
      if (errno == EINTR)
        continue;
      closeConn(C, ConnClose::SocketError);
      return;
    }
    C.Out.clear();
    C.OutPos = 0;
    if (C.ScrapeRespPos < C.ScrapeResp.size()) {
      // More scrape response behind the queue: refill and keep sending
      // within this flush round (the socket buffer may still have room).
      refillScrape(C);
      continue;
    }
    if (C.CloseAfter != ConnClose::Count_)
      closeConn(C, C.CloseAfter);
    return;
  }
}

void NetServer::checkDeadlines(Conn &C, uint64_t Now) {
  if (C.Closed || C.IsStream)
    return; // a local stream has no liveness to lose
  if (Cfg.WriteDeadlineNanos && C.Out.size() != C.OutPos &&
      Now - C.LastWriteProgressNanos > Cfg.WriteDeadlineNanos) {
    closeConn(C, ConnClose::WriteTimeout);
    return;
  }
  if (Cfg.ReadDeadlineNanos && Now - C.LastReadNanos > Cfg.ReadDeadlineNanos) {
    sendBye(C, ConnClose::ReadTimeout);
    closeConn(C, ConnClose::ReadTimeout);
    return;
  }
  if (!C.IsScrape && Cfg.HeartbeatNanos && !C.PingOutstanding &&
      Now - C.LastReadNanos > Cfg.HeartbeatNanos) {
    // Half-open probe: a live peer answers (pong resets LastReadNanos via
    // the read itself); a dead one lets the read deadline fire.
    char Ping[48];
    std::snprintf(Ping, sizeof(Ping), "ping %llu",
                  (unsigned long long)(Now ^ uint64_t(C.Fd)));
    if (enqueue(C, Ping, false)) {
      C.PingOutstanding = true;
      St.HeartbeatsSent.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void NetServer::sendBye(Conn &C, ConnClose Reason) {
  if (C.Closed)
    return;
  flushConn(C); // best effort: drain queued replies first
  if (C.Closed)
    return;
  char Bye[48];
  int N = std::snprintf(Bye, sizeof(Bye), "bye %s\n",
                        connCloseReasonName(Reason));
  ssize_t W = connWrite(C.OutFd, C.IsStream, Bye, static_cast<size_t>(N));
  if (W > 0)
    St.BytesOut.fetch_add(static_cast<uint64_t>(W), std::memory_order_relaxed);
}

void NetServer::closeConn(Conn &C, ConnClose Reason) {
  if (C.Closed)
    return;
  C.Closed = true;
  St.ClosedBy[static_cast<unsigned>(Reason)].fetch_add(
      1, std::memory_order_relaxed);
  if (!C.IsScrape && C.Framer.hasPartial())
    St.PartialFramesDropped.fetch_add(1, std::memory_order_relaxed);
  // Unbind, do not close, the sessions: a reconnecting client resumes them
  // (`ok open <id> resumed expect=<n>`); an abandoned one is reaped by the
  // service's idle timeout with the loss accounted there.
  for (uint64_t Id : C.Bound)
    Streams.unbind(Id, uint64_t(C.Fd));
  C.Bound.clear();
  if (!C.IsStream)
    ::close(C.Fd);
  C.Fd = C.OutFd = -1;
  OpenConns.fetch_sub(1, std::memory_order_relaxed);
}

void NetServer::reapClosed() {
  for (size_t I = 0; I != Conns.size();) {
    if (Conns[I]->Closed) {
      Conns[I] = std::move(Conns.back());
      Conns.pop_back();
    } else {
      ++I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Crash-only drain
//===----------------------------------------------------------------------===//

void NetServer::drainAndStop() {
  if (Drained)
    return;
  Drained = true;
  StopFlag.store(true, std::memory_order_relaxed);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (ScrapeFd >= 0) {
    ::close(ScrapeFd);
    ScrapeFd = -1;
  }
  for (auto &Cp : Conns) {
    Conn &C = *Cp;
    if (C.Closed)
      continue;
    if (!C.IsScrape) {
      // Final sweep: pull whatever the kernel already holds for this
      // connection, then settle every COMPLETE frame into the service.
      // (Failpoints are bypassed — drain is the one path that must not be
      // chaos-fragmented, its loss accounting is the partial-frame count.)
      // Read only while poll() reports data: a blocking stream's writer
      // may still be open.
      char Buf[4096];
      for (;;) {
        pollfd PF{C.Fd, POLLIN, 0};
        if (::poll(&PF, 1, 0) <= 0 || !(PF.revents & (POLLIN | POLLHUP)))
          break;
        ssize_t N = connRead(C.Fd, C.IsStream, Buf, sizeof(Buf));
        if (N > 0) {
          St.BytesIn.fetch_add(static_cast<uint64_t>(N),
                               std::memory_order_relaxed);
          C.Framer.feed(Buf, static_cast<size_t>(N));
          continue;
        }
        if (N < 0 && errno == EINTR)
          continue;
        break; // EOF or EAGAIN: nothing more buffered
      }
      std::string L;
      for (;;) {
        LineFramer::Frame K = C.Framer.next(L);
        if (K == LineFramer::Frame::None)
          break;
        if (K == LineFramer::Frame::Oversize) {
          St.OversizeFrames.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        St.FramesIn.fetch_add(1, std::memory_order_relaxed);
        dispatchIngest(C, L, /*Draining=*/true);
      }
    }
    sendBye(C, ConnClose::ServerDrain);
    closeConn(C, ConnClose::ServerDrain);
  }
  reapClosed();
}

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

NetStats NetServer::stats() const {
  NetStats S;
  St.loadInto(S);
  for (unsigned I = 0; I != NumConnCloseReasons; ++I)
    S.ClosedBy[I] = St.ClosedBy[I].load(std::memory_order_relaxed);
  return S;
}

void NetServer::addMetrics(TelemetrySnapshot &Snap) const {
  NetStats S = stats();
  addCounters(Snap, "net.", S);
  for (unsigned I = 0; I != NumConnCloseReasons; ++I)
    Snap.addCounter(std::string("net.closed_by.") +
                        connCloseReasonName(static_cast<ConnClose>(I)),
                    S.ClosedBy[I]);
  Snap.addGauge("net.conns_open", (int64_t)openConnections());
  Snap.Histograms.push_back(FrameLatency.snapshot("net.frame_latency_ns"));
  // The net layer always records its frame-latency histogram, so the
  // rendered document is 'full' regardless of the service telemetry level
  // (gold-metrics-v1 forbids histograms below that level).
  if (Snap.Level < TelemetryLevel::Full)
    Snap.Level = TelemetryLevel::Full;
}

void NetServer::addHealth(JsonWriter &J) const {
  NetStats S = stats();
  J.key("net");
  J.beginObject();
  J.kv("conns_open", (uint64_t)openConnections());
  jsonCounters(J, S);
  J.key("closed_by");
  J.beginObject();
  for (unsigned I = 0; I != NumConnCloseReasons; ++I)
    J.kv(connCloseReasonName(static_cast<ConnClose>(I)), S.ClosedBy[I]);
  J.endObject();
  J.endObject();
}

std::string NetServer::healthJson(bool Interrupted) const {
  return composeHealthJson(Svc, "goldilocks-netserver", Interrupted, {this});
}

TelemetrySnapshot NetServer::metricsSnapshot() const {
  return composeMetrics(Svc, {this});
}

std::string NetServer::metricsJson() const {
  return renderMetricsJson(metricsSnapshot(), "goldilocks-netserver");
}
