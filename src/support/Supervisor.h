//===- support/Supervisor.h - Watchdog and supervision events ---*- C++ -*-===//
///
/// \file
/// The supervision layer: an optional watchdog that samples an engine's
/// EngineHealth, detects grace-period stalls and append-retry storms, and
/// responds by reclaiming dead epoch slots and escalating the degradation
/// ladder. Every decision is recorded in a fixed-size structured event ring
/// (monotonic timestamp, cause, ladder rung, resource snapshot) so a
/// post-mortem can reconstruct *why* the engine degraded without any
/// logging on the hot path.
///
/// The supervisor is deliberately decoupled from the engine: it watches a
/// SupervisedEngine callback bundle (sample / escalate / reclaim), so this
/// library never depends on the engine and the same supervisor can drive a
/// test double. GoldilocksEngine binds itself via superviseEngine()
/// (declared in goldilocks/Engine.h).
///
/// The watchdog thread is off by default — construct, then start(). Tests
/// that want determinism call poll() directly instead.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SUPPORT_SUPERVISOR_H
#define GOLD_SUPPORT_SUPERVISOR_H

#include "goldilocks/Health.h"
#include "support/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gold {

/// Why a supervision event was recorded. Keep supervisionCauseName in sync.
enum class SupervisionCause : uint8_t {
  WatchdogStart = 0, ///< the watchdog thread started
  WatchdogStop,      ///< the watchdog thread stopped
  GraceStall,        ///< a grace period hit its deadline since last sample
  AppendStorm,       ///< append-retry delta crossed the storm threshold
  Escalation,        ///< the supervisor escalated the degradation ladder
  SlotsReclaimed,    ///< dead epoch slots were reclaimed
  StallDump,         ///< a flight-recorder/telemetry dump was captured
};

const char *supervisionCauseName(SupervisionCause C);

/// One structured supervision event.
struct SupervisionEvent {
  uint64_t MonotonicNanos = 0; ///< steady-clock time of the observation
  SupervisionCause Cause = SupervisionCause::WatchdogStart;
  unsigned Rung = 0;           ///< ladder rung for Escalation, else 0
  uint64_t Delta = 0;          ///< cause-specific magnitude (stalls seen,
                               ///< retries counted, slots reclaimed)
  EngineHealth Snapshot;       ///< resource state at the observation

  /// One-line render for logs and the CLI --events dump.
  std::string str() const;
};

/// Fixed-size thread-safe ring of supervision events. Old events are
/// overwritten (and counted as dropped) rather than growing: supervision
/// must not become a resource problem of its own. An instantiation of the
/// telemetry layer's generic EventRing (the flight recorder uses the same
/// mechanism striped per thread).
using SupervisionRing = EventRing<SupervisionEvent>;

/// The callbacks a supervisor drives. All must be safe to call from an
/// arbitrary thread; everything but Sample may be empty for observe-only
/// use. DumpTelemetry renders the engine's post-mortem state (health,
/// telemetry snapshot, flight recorder) and is invoked when a grace stall is
/// detected, so a wedged engine leaves an actionable record rather than
/// only a counter bump.
struct SupervisedEngine {
  std::function<EngineHealth()> Sample;
  std::function<void(unsigned Rung)> Escalate;
  std::function<size_t()> ReclaimDeadSlots;
  std::function<std::string()> DumpTelemetry;
};

struct SupervisorConfig {
  /// Watchdog sampling period (start()'s thread); poll() ignores it.
  unsigned SamplePeriodMillis = 50;
  /// Consecutive stalling samples before the ladder is escalated. Each
  /// escalation climbs one rung further (1, then 2, then 3); a clean
  /// sample resets the progression.
  unsigned StallEscalationThreshold = 2;
  /// Append-retry delta per sample that counts as a storm; 0 disables.
  uint64_t AppendStormThreshold = 100000;
  /// Event ring capacity.
  size_t RingCapacity = 128;
};

/// Samples a SupervisedEngine and reacts: on grace stalls it reclaims dead
/// epoch slots immediately (an exited reader is the most likely culprit)
/// and escalates the ladder after StallEscalationThreshold consecutive
/// stalling samples. All activity lands in the event ring.
class Supervisor {
public:
  explicit Supervisor(SupervisedEngine Target, SupervisorConfig C = {});
  ~Supervisor(); ///< stops the watchdog if running

  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Starts the watchdog thread (idempotent).
  void start();
  /// Stops and joins the watchdog thread (idempotent; destructor calls it).
  void stop();
  bool running() const;

  /// One supervision step: sample, compare against the previous sample,
  /// react, record. The watchdog calls this on its period; tests call it
  /// directly for determinism. Thread-safe.
  void poll();

  std::vector<SupervisionEvent> events() const { return Ring.snapshot(); }
  const SupervisionRing &ring() const { return Ring; }
  uint64_t samples() const { return Samples.load(std::memory_order_relaxed); }
  uint64_t escalations() const {
    return Escalations.load(std::memory_order_relaxed);
  }

  /// The most recent stall post-mortem (empty if none was captured).
  std::string lastStallDump() const;
  uint64_t stallDumps() const {
    return StallDumps.load(std::memory_order_relaxed);
  }

private:
  void loop();
  void record(SupervisionCause Cause, unsigned Rung, uint64_t Delta,
              const EngineHealth &H);

  SupervisedEngine Target;
  SupervisorConfig Cfg;
  SupervisionRing Ring;

  // poll() state (serialized by PollMu; watchdog and manual polls may race).
  std::mutex PollMu;
  EngineHealth Prev;
  bool HavePrev = false;
  unsigned ConsecutiveStalls = 0;
  unsigned NextRung = 1;
  bool DumpArmed = true; ///< capture at most one dump per stall episode

  mutable std::mutex DumpMu;
  std::string LastStallDump;

  std::atomic<uint64_t> Samples{0};
  std::atomic<uint64_t> Escalations{0};
  std::atomic<uint64_t> StallDumps{0};

  // Watchdog thread lifecycle.
  mutable std::mutex LifecycleMu;
  std::thread Watchdog;
  std::mutex WakeMu;
  std::condition_variable Wake;
  std::atomic<bool> StopFlag{false};
};

} // namespace gold

#endif // GOLD_SUPPORT_SUPERVISOR_H
