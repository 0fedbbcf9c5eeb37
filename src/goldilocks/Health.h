//===- goldilocks/Health.h - Engine health snapshot -------------*- C++ -*-===//
///
/// \file
/// A point-in-time health snapshot of the Goldilocks engine's resource
/// governor: current and high-water resource usage plus the degradation
/// ladder state. Lives in its own header so detector adapters, the VM and
/// the CLI can expose it without pulling in the whole engine.
///
/// The degradation ladder (see DESIGN.md, "Resource governance"):
///   level 0 — within budget, fully exact;
///   level 1 — forced garbage collections ran (still exact);
///   level 2 — Info records were coarsened (eagerly advanced to the list
///             tail; still exact, memory traded for walk time);
///   level 3 — at least one variable's checking was disabled (degraded:
///             races on those variables may be missed, never invented).
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_GOLDILOCKS_HEALTH_H
#define GOLD_GOLDILOCKS_HEALTH_H

#include "support/Json.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace gold {

/// Snapshot of the engine's resource state; obtained from
/// GoldilocksEngine::health() (or RaceDetector::health() where supported).
struct EngineHealth {
  size_t EventListLength = 0;   ///< cells currently retained
  size_t InfoRecords = 0;       ///< live Info records (write + read)
  size_t TrackedVars = 0;       ///< distinct variables with state
  size_t EventListHighWater = 0;
  size_t InfoHighWater = 0;
  size_t ApproxBytes = 0;       ///< coarse estimate of detector memory
  unsigned DegradationLevel = 0;///< highest ladder rung reached (0..3)
  bool GloballyDegraded = false;///< engine-wide check disable (last resort)
  uint64_t DegradationEvents = 0;
  uint64_t DegradedVars = 0;    ///< variables ever disabled by the governor
  uint64_t ForcedGcs = 0;
  uint64_t GraceWaits = 0;      ///< epoch grace periods awaited by GC
  uint64_t AppendRetries = 0;   ///< lock-free tail-CAS retries (contention)
  uint64_t Stalls = 0;          ///< grace periods that hit their deadline
  size_t QuarantinedCells = 0;  ///< cells detached but deferred (stalled grace)
  uint64_t ReclaimedDeadSlots = 0; ///< epoch slots recycled from dead threads

  /// One-line render for logs and the CLI. Built incrementally: the field
  /// set grows with the engine and a fixed buffer would silently truncate.
  std::string str() const {
    std::string Out;
    Out.reserve(256);
    char Buf[64];
    auto Zu = [&](const char *Key, size_t V) {
      std::snprintf(Buf, sizeof(Buf), "%s=%zu", Key, V);
      if (!Out.empty())
        Out += ' ';
      Out += Buf;
    };
    auto Llu = [&](const char *Key, uint64_t V) {
      std::snprintf(Buf, sizeof(Buf), "%s=%llu", Key,
                    static_cast<unsigned long long>(V));
      if (!Out.empty())
        Out += ' ';
      Out += Buf;
    };
    Zu("cells", EventListLength);
    std::snprintf(Buf, sizeof(Buf), " (hw %zu)", EventListHighWater);
    Out += Buf;
    Zu("infos", InfoRecords);
    std::snprintf(Buf, sizeof(Buf), " (hw %zu)", InfoHighWater);
    Out += Buf;
    Zu("vars", TrackedVars);
    Zu("~bytes", ApproxBytes);
    std::snprintf(Buf, sizeof(Buf), " level=%u%s", DegradationLevel,
                  GloballyDegraded ? " GLOBAL-DEGRADED" : "");
    Out += Buf;
    Llu("degradations", DegradationEvents);
    Llu("degraded-vars", DegradedVars);
    Llu("forced-gcs", ForcedGcs);
    Llu("grace-waits", GraceWaits);
    Llu("append-retries", AppendRetries);
    Llu("stalls", Stalls);
    Zu("quarantined", QuarantinedCells);
    Llu("reclaimed-slots", ReclaimedDeadSlots);
    return Out;
  }

  /// Emits every field as the members of an (already begun) JSON object —
  /// the one serialization the CLI's --health/--stats-json and the metrics
  /// artifact all share, so field names cannot drift between them.
  void jsonBody(JsonWriter &J) const {
    J.kv("cells", (uint64_t)EventListLength);
    J.kv("cells_high_water", (uint64_t)EventListHighWater);
    J.kv("info_records", (uint64_t)InfoRecords);
    J.kv("info_high_water", (uint64_t)InfoHighWater);
    J.kv("tracked_vars", (uint64_t)TrackedVars);
    J.kv("approx_bytes", (uint64_t)ApproxBytes);
    J.kv("degradation_level", DegradationLevel);
    J.kv("globally_degraded", GloballyDegraded);
    J.kv("degradation_events", DegradationEvents);
    J.kv("degraded_vars", DegradedVars);
    J.kv("forced_gcs", ForcedGcs);
    J.kv("grace_waits", GraceWaits);
    J.kv("append_retries", AppendRetries);
    J.kv("stalls", Stalls);
    J.kv("quarantined_cells", (uint64_t)QuarantinedCells);
    J.kv("reclaimed_dead_slots", ReclaimedDeadSlots);
  }

  /// Complete JSON object, e.g. for embedding under a "health" key.
  void toJson(JsonWriter &J) const {
    J.beginObject();
    jsonBody(J);
    J.endObject();
  }
};

} // namespace gold

#endif // GOLD_GOLDILOCKS_HEALTH_H
