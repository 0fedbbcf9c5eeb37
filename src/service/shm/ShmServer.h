//===- service/shm/ShmServer.h - Shared-memory ring front end ---*- C++ -*-===//
///
/// \file
/// The same-host front end of the detection service, peer of net::NetServer:
/// it owns the shared-memory segment (ShmRing.h), admits producers that
/// claim rings, consumes their binary frames straight into
/// Session::feedAction (no syscalls, no text parse on the hot path), and
/// makes every co-location failure mode explicit and bounded:
///
///  - **Crash-only producer reaping.** A producer is reaped the moment its
///    pid is gone, or after its heartbeat goes stale for WedgeTimeoutNanos
///    (the shm-producer-stall failpoint drives this in tests). Reaping
///    first drains every published frame — so the resume point handed to a
///    reincarnated producer is exact — then quarantines the ring until the
///    pid is actually dead, and only then sanitizes every slot sequence
///    and recycles it. A wedged producer that wakes up can therefore only
///    scribble on its own quarantined ring, never on a successor's.
///
///  - **Reconnect-resume.** Client ids map to sessions exactly as on the
///    TCP path: a re-claim by a known client reattaches to its session and
///    is told the next expected stream sequence (Resume word); frames
///    below it are dups (dropped, counted), frames above it kill the
///    session crash-only — a same-host producer that skips sequences is
///    corrupt, not lossy.
///
///  - **Wire-level backpressure.** A frame the service refuses stays in
///    the ring; the jittered retry-after-ns schedule is written to the
///    ring's Control word and the ring is not polled again before it
///    elapses. Memory per producer is bounded by the ring it already owns.
///
///  - **Drain-to-fixpoint.** drainAndStop() marks the segment Draining
///    (claims refuse), settles every published frame through backpressure
///    (bounded, drops counted), closes Closing rings with their verdicts,
///    and reaps the rest — the SIGTERM story of the TCP path, extended to
///    the segment.
///
/// Threading: pollOnce()/runLoop()/drainAndStop() belong to one serving
/// thread; stats/healthJson/metricsJson are safe from any thread.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_SHM_SHMSERVER_H
#define GOLD_SERVICE_SHM_SHMSERVER_H

#include "service/Service.h"
#include "service/shm/ShmRing.h"
#include "support/Telemetry.h"

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

namespace gold {
namespace shm {

struct ShmConfig {
  std::string Path;        ///< segment file (tmpfs recommended)
  uint32_t Rings = 16;     ///< concurrent co-located producers
  uint32_t SlotsPerRing = 1024; ///< power of two
  /// Heartbeat staleness after which a live-pid producer is reaped as
  /// wedged. Producers beat on every publish, so this only fires for a
  /// stalled or abandoned stream.
  uint64_t WedgeTimeoutNanos = 5ull * 1000000000;
  /// Frames consumed from one ring before moving on (fairness bound).
  uint32_t ConsumeBatch = 256;
  /// Bounded pump attempts while settling one backpressured frame during
  /// drain (mirrors NetServer's drain settle loop).
  uint32_t DrainSettleAttempts = 50000;
  /// Pump the service inline each poll round (single-threaded,
  /// deterministic). Off when the service runs its own consumer threads.
  bool InlinePump = true;
};

/// Monotonic transport counters; readable from any thread.
struct ShmStats {
  uint64_t Claims = 0;         ///< rings handed to producers (incl. resumes)
  uint64_t Resumes = 0;        ///< re-claims attached to a live session
  uint64_t OpensRefused = 0;   ///< admission refusals (busy or ladder)
  uint64_t FramesIn = 0;       ///< frames fed into sessions
  uint64_t SlotsIn = 0;        ///< slots consumed (frames + continuations)
  uint64_t DupFrames = 0;      ///< below-resume retransmits, dropped
  uint64_t DecodeErrors = 0;   ///< corrupt frames; session killed
  uint64_t SeqViolations = 0;  ///< above-expect frames; session killed
  uint64_t BackpressureWrites = 0; ///< Control-word retry-after publishes
  uint64_t ProducersReaped = 0;    ///< dead-pid reaps
  uint64_t ProducersWedged = 0;    ///< stale-heartbeat reaps (pid alive)
  uint64_t RingsRecycled = 0;      ///< sanitize -> Free transitions
  uint64_t ClosesServed = 0;       ///< orderly Closing -> Closed
  uint64_t VerdictsWritten = 0;    ///< verdict pairs placed in rings
  uint64_t VerdictsTruncated = 0;  ///< pairs beyond VerdictCap, counted
  uint64_t DrainDroppedFrames = 0; ///< frames drain could not settle
  uint64_t Wakeups = 0;            ///< doorbell futex wakes observed
};

class ShmServer {
public:
  ShmServer(DetectionService &Svc, ShmConfig C);
  ~ShmServer();

  ShmServer(const ShmServer &) = delete;
  ShmServer &operator=(const ShmServer &) = delete;

  /// Creates (or replaces) the segment file, maps it, initializes every
  /// ring, and publishes the magic. Returns false with a diagnostic.
  bool start(std::string &Err);

  /// One serving round: claim scan, per-ring consume (bounded), heartbeat
  /// and pid reaping, recycle, then (InlinePump) pump the service.
  /// \p TimeoutMs > 0 futex-waits on the doorbell that long when the
  /// previous round found no work. Returns frames consumed.
  size_t pollOnce(int TimeoutMs = 0);

  /// pollOnce until requestStop().
  void runLoop(const std::atomic<bool> &Stop, int TimeoutMs = 1);
  void requestStop() { StopFlag.store(true, std::memory_order_relaxed); }

  /// Crash-only drain: refuse new claims, settle every published frame,
  /// close Closing rings with verdicts, reap everything else. Idempotent.
  /// The owner then calls DetectionService::shutdown().
  void drainAndStop();

  const std::string &path() const { return Cfg.Path; }
  ShmStats stats() const;

  HistogramSnapshot enqueueLatency() const {
    return EnqueueLatency.snapshot("shm.enqueue_latency_ns");
  }

  /// Live gold-health-v1 document (service health + an "shm" section).
  std::string healthJson(bool Interrupted) const;
  /// The telemetry snapshot behind metricsJson(): service telemetry + shm
  /// counters + the enqueue-latency histogram. This is what a shared
  /// SnapshotProducer installs as its source.
  TelemetrySnapshot metricsSnapshot() const;
  /// Live gold-metrics-v1 document (renderMetricsJson of metricsSnapshot).
  std::string metricsJson() const;

private:
  /// Client id -> session stream state, the resume map. OwnerRing is the
  /// ring currently feeding the session (UINT32_MAX when none: reaped or
  /// released, awaiting a re-claim).
  struct Binding {
    Session *S = nullptr;
    uint64_t Expect = 0; ///< next ClientSeq the server will feed
    uint32_t OwnerRing = UINT32_MAX;
    /// Client->server monotonic clock offset (server now minus the
    /// producer's ClockOrigin header stamp, measured at claim). 0 for
    /// legacy producers that never wrote ClockOrigin. Applied to
    /// FrameHead::OriginNanos before it enters the service.
    int64_t ClockOffset = 0;
  };

  /// Server-local per-ring consumer state (never in the segment: a
  /// producer must not be able to corrupt the consumer's cursor).
  struct RingSw {
    uint64_t Pos = 0;           ///< next slot position to consume
    uint64_t ClientId = 0;      ///< owner while Ready..Closed
    uint64_t LastBeat = 0;      ///< heartbeat value last seen
    uint32_t LastState = 0;     ///< ring state last seen (RingState)
    uint64_t LastBeatNanos = 0; ///< last beat or state change (service clock)
    uint64_t NotBefore = 0;     ///< backpressure gate for this ring
  };

  void handleClaim(uint32_t I);
  /// Consumes up to ConsumeBatch frames from ring \p I. Returns frames.
  size_t consumeRing(uint32_t I, bool Draining);
  /// Feeds one decoded frame into session \p S; returns false on
  /// backpressure (frame stays). The caller passes the binding's session
  /// so the hot loop does one map lookup per batch, not per frame.
  bool feedFrame(uint32_t I, Session &S, const Action &A,
                 const CommitSets *CS, uint32_t Bytes, const FrameTrace *FT,
                 bool Draining, bool &Killed);
  void serveClose(uint32_t I);
  /// Drains published frames, then quarantines the ring (Reaped).
  void reapRing(uint32_t I, bool PidDead);
  /// Kills the session crash-only (decode/sequence violation) and moves
  /// the ring to Closed with \p Code so the producer learns why.
  void killRing(uint32_t I, RingCode Code);
  void writeVerdictsLocked(uint32_t I, Session &S);
  /// Rewrites every slot seq and recycles a ring whose pid is gone.
  void sanitizeRing(uint32_t I);
  bool pidGone(uint32_t Pid) const;
  uint64_t now() const { return Svc.nowNanos(); }
  void futexWait(int TimeoutMs);

  DetectionService &Svc;
  const ShmConfig Cfg;
  int Fd = -1;
  SegView Seg;
  std::vector<RingSw> Sw;
  std::unordered_map<uint64_t, Binding> Bindings;
  std::atomic<bool> StopFlag{false};
  bool Drained = false;
  uint32_t LastDoorbell = 0;

  struct AtomicStats {
    std::atomic<uint64_t> Claims{0}, Resumes{0}, OpensRefused{0}, FramesIn{0},
        SlotsIn{0}, DupFrames{0}, DecodeErrors{0}, SeqViolations{0},
        BackpressureWrites{0}, ProducersReaped{0}, ProducersWedged{0},
        RingsRecycled{0}, ClosesServed{0}, VerdictsWritten{0},
        VerdictsTruncated{0}, DrainDroppedFrames{0}, Wakeups{0};
  } St;
  Histogram EnqueueLatency; ///< slot decode -> dispatch complete, nanos
};

} // namespace shm
} // namespace gold

#endif // GOLD_SERVICE_SHM_SHMSERVER_H
