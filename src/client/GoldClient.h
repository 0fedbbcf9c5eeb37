//===- client/GoldClient.h - Detection-service client library ---*- C++ -*-===//
///
/// \file
/// The client library for the detection service: one API over both
/// transports, one transport per client. A co-located producer publishes
/// binary pre-parsed actions through the shared-memory ring (ShmRing.h)
/// with zero syscalls and zero text on the hot path; a remote one speaks
/// the TCP line protocol (net/Protocol.h), rendered through
/// serializeAction so the wire bytes are identical to a piped script's.
///
/// The library owns the reliability loop both transports need:
///
///  - **Local buffering with counted shed.** publish() appends to a
///    bounded replay buffer of unacknowledged actions. When the buffer is
///    full (the service is slower than the producer for longer than the
///    buffer absorbs), new actions are shed and counted — the producer's
///    mirror of the service's counted-never-silent loss accounting.
///
///  - **Reconnect-resume.** Both transports carry an absolute per-action
///    sequence number. On reconnect (TCP) or re-claim (shm, after the
///    server reaped a wedged incarnation) the server states the next
///    sequence it expects; the client rewinds its send cursor and
///    republishes from its buffer. Anything the server already consumed
///    is dropped server-side as a dup, so crashes duplicate nothing. A TCP
///    reconnect that beats the server's reap of the old connection is
///    answered `busy` and retried until OpTimeoutNanos, like a dropped
///    socket.
///
///  - **Backpressure obedience.** The shared jittered retry-after
///    schedule arrives as a Control word (shm) or a `retry-after-ns=`
///    reply (TCP); the client sleeps it off instead of spinning.
///
///  - **Stall rewind (TCP).** Accepted lines are silent on the wire, so a
///    shed backpressure reply can strand the sender waiting forever. The
///    client polls `stat` while it has unsent work and, when the server's
///    accepted count stops moving, rewinds its cursor to the server's
///    expect — dup-dropping makes a spurious rewind free.
///
/// Single-threaded: one GoldClient serves one producer thread.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_CLIENT_GOLDCLIENT_H
#define GOLD_CLIENT_GOLDCLIENT_H

#include "event/Trace.h"
#include "service/shm/ShmRing.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace gold {

class TraceParser;
class TraceEventSink;

namespace client {

struct GoldClientConfig {
  uint64_t ClientId = 1;

  /// Shared-memory segment path; set exactly one of ShmPath and Port.
  std::string ShmPath;
  /// How long connect() waits for a ring claim to be answered (and for
  /// the segment to appear) before it fails.
  uint64_t ShmClaimTimeoutNanos = 2ull * 1000000000;

  /// TCP server; Port 0 means no TCP.
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;

  /// Unacknowledged-action replay buffer; beyond it publish() sheds.
  size_t BufferCapActions = 1u << 15;
  /// Overall deadline for flush()/closeAndCollect().
  uint64_t OpTimeoutNanos = 30ull * 1000000000;

  /// Stamp a client-monotonic origin on *sampled* frames (TCP `@<ns>`
  /// token / shm FrameHead::OriginNanos) and perform the clock handshake
  /// at open/claim, so the server can attribute per-stage pipeline
  /// latency. The sampling decision is the shared deterministic
  /// (seed, ordinal) hash, so unsampled frames are byte-identical to an
  /// untraced stream and cost one hash — tracing stays within noise even
  /// when on. Off by default.
  bool TraceFrames = false;
  /// Sampling seed/rate for client-side spans; MUST match the server's
  /// --trace-seed/--trace-ppm for client_e2e spans to line up with the
  /// server's per-frame spans in a merged trace (the decision hash is
  /// shared, so equal parameters sample equal frames).
  uint64_t TraceSeed = 1;
  uint32_t TraceSampleRatePpm = 10000;
  /// When set, sampled frames emit a "client_e2e" span (publish -> server
  /// ack) here. Not owned. Null disables span emission.
  TraceEventSink *TraceSink = nullptr;
};

struct GoldClientStats {
  uint64_t Published = 0;   ///< actions admitted to the local buffer
  uint64_t Shed = 0;        ///< actions refused at the door (buffer full)
  uint64_t FramesOut = 0;   ///< frames written to the transport
  uint64_t SlotsOut = 0;    ///< shm slots written (frames + continuations)
  uint64_t Acked = 0;       ///< highest server-consumed sequence
  uint64_t Backpressures = 0; ///< retry-after hints obeyed
  uint64_t Resyncs = 0;     ///< server-directed cursor rewinds (TCP)
  uint64_t StallRewinds = 0;///< stat-stall cursor rewinds (TCP)
  uint64_t Reconnects = 0;  ///< TCP reconnects or shm re-claims
  uint64_t Resumes = 0;     ///< reconnects that resumed a live session
  uint64_t DoorbellRings = 0; ///< empty->nonempty futex wakes (shm)
  uint64_t ProducerStalls = 0; ///< shm-producer-stall failpoint fires
  uint64_t SlotCorrupts = 0;   ///< shm-slot-corrupt failpoint fires
};

class GoldClient {
public:
  explicit GoldClient(GoldClientConfig C);
  ~GoldClient();

  GoldClient(const GoldClient &) = delete;
  GoldClient &operator=(const GoldClient &) = delete;

  /// Attaches to the service: claims an shm ring when ShmPath is set,
  /// otherwise opens the TCP stream. Returns false with a diagnostic.
  bool connect(std::string &Err);

  /// True when the shm fast path carried the stream.
  bool usingShm() const { return Shm != nullptr; }

  /// Queues one action (CS required for commits, client-namespace ids)
  /// and opportunistically advances the transport. Returns false when the
  /// action was shed or the stream is dead — both counted, never silent.
  bool publish(const Action &A, const CommitSets *CS = nullptr);

  /// Parses and publishes one TraceIO-format line (convenience for tools
  /// that already speak the text format). Blank/comment lines succeed.
  bool publishLine(const std::string &Line);

  /// Pushes until every buffered action is on the transport (bounded by
  /// OpTimeoutNanos). Returns false with a diagnostic on death/timeout.
  bool flush(std::string &Err);

  /// Orderly close: flush, ask the server to drain and deliver verdicts,
  /// and return each race's variable as "o<obj>.f<field>".
  bool closeAndCollect(std::vector<std::string> &RaceVars, std::string &Err);

  const GoldClientStats &stats() const { return St; }

private:
  struct Rec {
    Action A;
    std::shared_ptr<CommitSets> CS;
    /// Client-monotonic publish() stamp on sampled frames; 0 otherwise.
    uint64_t OriginNanos = 0;
  };
  struct ShmState;
  struct TcpState;

  bool connectShm(std::string &Err);
  bool connectTcp(std::string &Err, bool Resuming);
  /// Advances SendSeq as far as the transport allows right now; sleeps
  /// at most one backoff hint. Returns false when the stream died.
  bool pump(std::string &Err);
  bool pumpShm(std::string &Err);
  bool pumpTcp(std::string &Err);
  bool shmPushFrame(const Rec &R, uint64_t Seq, bool &Full);
  bool shmReclaim(std::string &Err);
  void shmRingDoorbell();
  bool tcpHandleReply(const std::string &L, std::string &Err);
  bool tcpSendStat(std::string &Err);
  void pruneAcked(uint64_t Upto);
  const Rec &recAt(uint64_t Seq) const;
  uint64_t nowNanos() const;
  void sleepNanos(uint64_t Ns) const;

  const GoldClientConfig Cfg;
  GoldClientStats St;

  std::deque<Rec> Buf; ///< sequences [BaseSeq, NextSeq)
  uint64_t BaseSeq = 0;
  uint64_t NextSeq = 0;
  uint64_t SendSeq = 0;
  bool Dead = false;
  std::string DeadWhy;

  std::unique_ptr<ShmState> Shm;
  std::unique_ptr<TcpState> Tcp;
  std::unique_ptr<TraceParser> LineParser; ///< publishLine() text front-end
  std::vector<std::string> PendingRaces; ///< race replies read early (TCP)
};

} // namespace client
} // namespace gold

#endif // GOLD_CLIENT_GOLDCLIENT_H
