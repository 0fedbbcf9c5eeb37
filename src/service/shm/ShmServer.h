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
///  - **Reconnect-resume.** Streams follow service/ClientStream.h, as on
///    the TCP path: a re-claim resumes at the Resume word; frames above it
///    kill the session crash-only — a same-host producer that skips
///    sequences is corrupt, not lossy.
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

#include "service/ClientStream.h"
#include "service/Service.h"
#include "service/Snapshots.h"
#include "service/shm/ShmRing.h"
#include "support/Telemetry.h"

#include <atomic>
#include <string>
#include <vector>

namespace gold {
namespace shm {

struct ShmConfig {
  std::string Path;        ///< segment file (tmpfs recommended)
  uint32_t Rings = 16;     ///< concurrent co-located producers
  /// Heartbeat staleness after which a live-pid producer is reaped as
  /// wedged. Producers beat on every publish, so this only fires for a
  /// stalled or abandoned stream.
  uint64_t WedgeTimeoutNanos = 5ull * 1000000000;
};

/// The shm front end's monotonic counters, one X(Field, "exported_name")
/// row each (DESIGN.md §13): ShmStats, the atomic block behind it, the
/// health "shm" section and the "shm." telemetry counters expand from it.
#define GOLD_SHM_COUNTERS(X)                                                   \
  X(Claims, "claims")                           /* rings handed out */         \
  X(Resumes, "resumes")                         /* live-session re-claims */   \
  X(OpensRefused, "opens_refused")              /* admission refusals */       \
  X(FramesIn, "frames_in")                      /* frames fed into sessions */ \
  X(SlotsIn, "slots_in")                        /* frames + continuations */   \
  X(DupFrames, "dup_frames")                    /* below-resume retransmits */ \
  X(DecodeErrors, "decode_errors")              /* corrupt; session killed */  \
  X(SeqViolations, "seq_violations")            /* ahead; session killed */    \
  X(BackpressureWrites, "backpressure_writes")  /* Control-word hints */       \
  X(ProducersReaped, "producers_reaped")        /* dead-pid reaps */           \
  X(ProducersWedged, "producers_wedged")        /* stale-heartbeat reaps */    \
  X(RingsRecycled, "rings_recycled")            /* sanitize -> Free */         \
  X(ClosesServed, "closes_served")              /* Closing -> Closed */        \
  X(VerdictsWritten, "verdicts_written")        /* pairs placed in rings */    \
  X(VerdictsTruncated, "verdicts_truncated")    /* beyond VerdictCap */        \
  X(DrainDroppedFrames, "drain_dropped_frames") /* drain unsettled */          \
  X(Wakeups, "wakeups")                         /* doorbell futex wakes */

/// Monotonic transport counters; readable from any thread.
struct ShmStats {
  GOLD_COUNTER_FIELDS(GOLD_SHM_COUNTERS)
};

class ShmServer : public FrontEndSection {
public:
  ShmServer(DetectionService &Svc, ShmConfig C);
  ~ShmServer();

  ShmServer(const ShmServer &) = delete;
  ShmServer &operator=(const ShmServer &) = delete;

  /// Creates (or replaces) the segment file, maps it, initializes every
  /// ring, and publishes the magic. Returns false with a diagnostic.
  bool start(std::string &Err);

  /// One serving round: claim scan, per-ring consume (bounded), heartbeat
  /// and pid reaping, recycle, then pump the service unless its own
  /// consumer threads run.
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

  /// The "shm" section of the service documents: shm.* counters and the
  /// enqueue-latency histogram; the health document's "shm" object.
  void addMetrics(TelemetrySnapshot &Snap) const override;
  void addHealth(JsonWriter &J) const override;

  /// Live gold-health-v1 document (service health + the "shm" section).
  std::string healthJson(bool Interrupted) const;
  /// Service telemetry + the "shm" section.
  TelemetrySnapshot metricsSnapshot() const;

private:
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
  void serveClose(uint32_t I);
  /// Drains published frames, then quarantines the ring (Reaped).
  void reapRing(uint32_t I, bool PidDead);
  /// Closes the ring's session (orderly, or crash-only after a decode or
  /// sequence violation) with settleClose, writes its verdicts, and moves
  /// the ring to Closed with \p Code so the producer learns why. False,
  /// changing nothing, when an Ok close did not settle within the bound.
  bool closeRing(uint32_t I, RingCode Code);
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
  /// The resume map; a stream's owner token is the index of the ring
  /// feeding it (none when reaped or released, awaiting a re-claim).
  StreamTable Streams;
  std::atomic<bool> StopFlag{false};
  bool Drained = false;
  uint32_t LastDoorbell = 0;

  struct AtomicStats {
    GOLD_COUNTER_ATOMICS(GOLD_SHM_COUNTERS)
  } St;
  Histogram EnqueueLatency; ///< slot decode -> dispatch complete, nanos
};

} // namespace shm
} // namespace gold

#endif // GOLD_SERVICE_SHM_SHMSERVER_H
