//===- service/net/NetServer.h - poll()-based socket front end --*- C++ -*-===//
///
/// \file
/// The detection service's one line-protocol server: one poll()-driven
/// event loop multiplexing many remote TCP clients — and, through
/// adoptStream(), a local byte stream such as goldilocks-serve's
/// stdin/stdout — onto a DetectionService, with every network failure
/// mode made explicit and bounded:
///
///  - **Wire-level backpressure.** A `line` the service refuses with
///    Backpressure is NOT buffered; the client receives the service's
///    jittered `retry-after-ns` hint as a protocol reply and must re-send
///    the same line. Server memory per connection is therefore bounded by
///    one partial frame plus one bounded write queue — never by a slow
///    shard.
///
///  - **Sequenced streams.** Per-line sequence numbers carry the client
///    stream contract of service/ClientStream.h over the wire: replies
///    acknowledge backpressure/resync by seq, and a reconnecting client
///    resumes where the server says (`ok open <id> resumed expect=<n>`).
///    Verdicts stay queued in the Session until a `verdicts`/`close`
///    round trip has room to carry them.
///
///  - **Deadlines and heartbeats.** Per-connection read deadlines with
///    server ping/pong detect half-open peers; write deadlines and bounded
///    write queues (shed-on-overflow, counted) bound a reader that stopped
///    reading. All clocks come from the service's injectable NowNanos, so
///    tests drive every timeout deterministically.
///
///  - **Error budgets.** Protocol abuse (oversize frames, unknown
///    commands, malformed lines) charges a per-connection budget; line
///    rejections also consume the session's own budget, so whichever is
///    smaller trips first and the connection is closed with a reason code.
///
///  - **Crash-only drain.** drainAndStop() stops accepting, settles every
///    complete received frame into the service (pumping through
///    backpressure), counts partial frames it must drop, and closes with
///    `bye server-drain` — extending PR 6's counted-never-silent loss
///    accounting end to end over the network.
///
/// Alongside ingestion the server answers HTTP/1.0 `GET /healthz` and
/// `GET /metrics` on a second port, rendering the live gold-health-v1 /
/// gold-metrics-v1 documents through service/Snapshots.h — the same bytes
/// the exit-time JSON artifacts carry.
///
/// Threading: the loop itself is single-threaded (the owner calls
/// pollOnce() or runLoop()); stats/healthJson/metricsJson are safe from
/// other threads (atomics + the service's own thread-safe snapshots).
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_NET_NETSERVER_H
#define GOLD_SERVICE_NET_NETSERVER_H

#include "service/ClientStream.h"
#include "service/Service.h"
#include "service/Snapshots.h"
#include "service/net/Framer.h"
#include "support/Telemetry.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gold {
namespace net {

/// Why a connection was closed. Keep connCloseReasonName in sync.
enum class ConnClose : unsigned {
  ClientQuit = 0, ///< orderly `quit`
  ClientEof,      ///< peer closed its side (sessions stay resumable)
  ReadTimeout,    ///< read deadline passed (half-open peer)
  WriteTimeout,   ///< write queue made no progress for the write deadline
  WriteOverflow,  ///< a critical reply did not fit the bounded write queue
  ErrorBudget,    ///< per-connection error budget exhausted
  AcceptShed,     ///< refused at accept (MaxConnections or failpoint)
  ServerDrain,    ///< crash-only drainAndStop()
  SocketError,    ///< read/write returned a hard error
  ScrapeDone,     ///< scrape response fully written
  Count_
};

constexpr unsigned NumConnCloseReasons = static_cast<unsigned>(ConnClose::Count_);
const char *connCloseReasonName(ConnClose R);

struct NetConfig {
  std::string BindAddr = "127.0.0.1";
  uint16_t Port = 0;       ///< ingest port; 0 picks an ephemeral port
  bool Scrape = false;     ///< serve GET /healthz + /metrics
  uint16_t ScrapePort = 0; ///< scrape port; 0 picks an ephemeral port
  unsigned MaxConnections = 128;
  /// Frame cap; matches TraceParser::MaxLineBytes so the server rejects
  /// exactly what the trace parser would.
  size_t MaxFrameBytes = 1u << 16;
  /// Bounded per-connection write queue. Non-critical replies above this
  /// are shed (counted); critical replies close the connection instead.
  size_t WriteQueueCapBytes = 256u << 10;
  uint64_t ReadDeadlineNanos = 30ull * 1000000000;  ///< 0 disables
  uint64_t WriteDeadlineNanos = 10ull * 1000000000; ///< 0 disables
  uint64_t HeartbeatNanos = 10ull * 1000000000;     ///< 0 disables pings
};

/// Protocol errors tolerated per connection before close.
inline constexpr size_t ConnErrorBudget = 16;

/// The TCP front end's monotonic counters, one X(Field, "exported_name")
/// row each (DESIGN.md §13): NetStats, the atomic block behind it, the
/// health "net" section and the "net." telemetry counters expand from it.
#define GOLD_NET_COUNTERS(X)                                                   \
  X(ConnsAccepted, "conns_accepted")                                           \
  X(ConnsRejected, "conns_rejected")                                           \
  X(Resumes, "resumes")                               /* resumed opens */      \
  X(FramesIn, "frames_in")                                                     \
  X(BytesIn, "bytes_in")                                                       \
  X(BytesOut, "bytes_out")                                                     \
  X(OversizeFrames, "oversize_frames")                                         \
  X(DupFrames, "dup_frames")                          /* below-expect dups */  \
  X(ProtocolErrors, "protocol_errors")                                         \
  X(BackpressureReplies, "backpressure_replies")                               \
  X(ResyncReplies, "resync_replies")                                           \
  X(FalloutFrames, "fallout_frames")                  /* after backpressure */ \
  X(RepliesShed, "replies_shed")                      /* non-critical shed */  \
  X(VerdictRepliesDropped, "verdict_replies_dropped") /* queue overflow */     \
  X(PartialFramesDropped, "partial_frames_dropped")   /* unterminated */       \
  X(DrainDroppedFrames, "drain_dropped_frames")       /* drain unsettled */    \
  X(HeartbeatsSent, "heartbeats_sent")                                         \
  X(ConnHangs, "conn_hangs")                          /* net-conn-hang */      \
  X(WriteStalls, "write_stalls")                      /* net-write-stall */    \
  X(ScrapeRequests, "scrape_requests")

/// Monotonic wire-level counters; readable from any thread.
struct NetStats {
  GOLD_COUNTER_FIELDS(GOLD_NET_COUNTERS)
  std::array<uint64_t, NumConnCloseReasons> ClosedBy{};
};

class NetServer : public FrontEndSection {
public:
  NetServer(DetectionService &Svc, NetConfig C = NetConfig());
  ~NetServer();

  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// Binds and listens (ingest port, plus the scrape port when enabled).
  /// Returns false with a diagnostic in \p Err on failure.
  bool start(std::string &Err);

  /// Serves one already-open byte stream (goldilocks-serve's stdin and
  /// stdout, a test's pipe pair) as a line-protocol connection: the same
  /// framer, dispatch, write queue, counters and close rule as a socket.
  /// It is a local script, not a network peer, so its lines settle
  /// (FeedMode::Settle) instead of bouncing backpressure, and it gets no
  /// heartbeat, deadline, error-budget close or net-* failpoint; it ends
  /// on EOF, `quit` or drainAndStop(). The fds stay the caller's: they are
  /// never closed nor switched to O_NONBLOCK (the flag lives on the file
  /// description, which a parent shell shares), so reads happen only when
  /// poll() reports data and writes block.
  void adoptStream(int InFd, int OutFd);

  uint16_t port() const { return BoundPort; }
  uint16_t scrapePort() const { return BoundScrapePort; }

  /// One event-loop round: poll, accept, read/dispatch, flush, deadlines,
  /// then pump the service unless its own consumer threads run. Returns
  /// frames dispatched.
  size_t pollOnce(int TimeoutMs);

  /// pollOnce until requestStop() (or \p Until returns true).
  void runLoop(const std::atomic<bool> &Stop, int TimeoutMs = 50);
  void requestStop() { StopFlag.store(true, std::memory_order_relaxed); }

  /// Crash-only drain: stop accepting, settle every complete frame already
  /// received into the service (pumping through backpressure), count the
  /// partial frames dropped, send `bye server-drain`, close everything.
  /// Idempotent. The owner then calls DetectionService::shutdown().
  void drainAndStop();

  size_t openConnections() const {
    return OpenConns.load(std::memory_order_relaxed);
  }
  NetStats stats() const;

  /// Snapshot of the frame-dispatch latency histogram (frame extracted to
  /// dispatch complete, nanos) — the same series metricsJson renders.
  HistogramSnapshot frameLatency() const {
    return FrameLatency.snapshot("net.frame_latency_ns");
  }

  /// The "net" section of the service documents: net.* counters, the
  /// open-connection gauge and the frame-latency histogram; the health
  /// document's "net" object.
  void addMetrics(TelemetrySnapshot &Snap) const override;
  void addHealth(JsonWriter &J) const override;

  /// Live gold-health-v1 document (service health + the "net" section).
  std::string healthJson(bool Interrupted) const;
  /// Service telemetry + the "net" section: the snapshot behind
  /// metricsJson().
  TelemetrySnapshot metricsSnapshot() const;
  /// Live gold-metrics-v1 document (renderMetricsJson of metricsSnapshot).
  std::string metricsJson() const;

  /// Serves /healthz, /metrics and /metrics/history from \p P, a producer
  /// owned by the embedding tool that renders health as well as metrics —
  /// so a host running several front ends scrapes the one composed
  /// document. Null unbinds: /healthz and /metrics then serve this server's
  /// own documents and /metrics/history answers 404.
  void bindSnapshots(SnapshotProducer *P) { Snapshots = P; }

private:
  struct Conn;

  bool listenOn(uint16_t Want, int &FdOut, uint16_t &BoundOut,
                std::string &Err);
  void acceptPending(int ListenFd, bool IsScrape);
  void readConn(Conn &C);
  void dispatchFrames(Conn &C);
  void dispatchIngest(Conn &C, const std::string &Line, bool Draining);
  void dispatchScrape(Conn &C);
  void refillScrape(Conn &C);
  /// SIZE_MAX when refused: the set is not \p Complete or lacks room.
  size_t deliverVerdicts(Conn &C, uint64_t Id, Session &S, bool Complete);
  void flushConn(Conn &C);
  void checkDeadlines(Conn &C, uint64_t Now);
  bool enqueue(Conn &C, const std::string &Line, bool Critical);
  void sendBye(Conn &C, ConnClose Reason);
  void closeConn(Conn &C, ConnClose Reason);
  void chargeError(Conn &C);
  void reapClosed();
  uint64_t now() const { return Svc.nowNanos(); }

  DetectionService &Svc;
  const NetConfig Cfg;
  int ListenFd = -1;
  int ScrapeFd = -1;
  uint16_t BoundPort = 0;
  uint16_t BoundScrapePort = 0;
  std::vector<std::unique_ptr<Conn>> Conns; // loop thread only
  StreamTable Streams; ///< stream owner token: the connection's fd
  SnapshotProducer *Snapshots = nullptr; ///< bound scrape source (owner's)
  std::atomic<bool> StopFlag{false};
  bool Drained = false;
  std::atomic<size_t> OpenConns{0};

  // Counters mirrored into NetStats; atomics so snapshot threads may read
  // while the loop runs.
  struct AtomicStats {
    GOLD_COUNTER_ATOMICS(GOLD_NET_COUNTERS)
    std::array<std::atomic<uint64_t>, NumConnCloseReasons> ClosedBy{};
  } St;
  Histogram FrameLatency; ///< frame extracted -> dispatch complete, nanos
};

} // namespace net
} // namespace gold

#endif // GOLD_SERVICE_NET_NETSERVER_H
