//===- support/Telemetry.h - Engine observability primitives ----*- C++ -*-===//
///
/// \file
/// The observability layer: a registry of log2-bucketed histograms, the
/// counter-table expansions every layer's relaxed-atomic counters come
/// from, a per-thread flight recorder (fixed rings of
/// recent engine events, the generalization of the supervision event ring),
/// and a Chrome trace-event sink for engine phase spans. The design goal is
/// near-zero cost when disabled: every hot-path instrumentation site in the
/// engine is gated on a plain pointer/bool cached at construction, so the
/// disabled configuration costs one predictable branch per site and touches
/// no shared cache line.
///
/// Why relaxed atomics are sound here: every counter and histogram bucket is
/// monotonic and independently meaningful — no invariant couples two cells,
/// so a snapshot does not need to be a consistent cut. A reader may observe
/// bucket counts whose sum momentarily disagrees with Count; both are exact
/// the moment all writers quiesce, which is when snapshots are taken (end of
/// run, stall dump, quiesce). See DESIGN.md §13.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SUPPORT_TELEMETRY_H
#define GOLD_SUPPORT_TELEMETRY_H

#include "support/Json.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gold {

//===----------------------------------------------------------------------===//
// Level
//===----------------------------------------------------------------------===//

/// How much the engine records. Counters are the flat monotonic stats the
/// engine keeps anyway (EngineStats); Full additionally enables histograms
/// and the flight recorder on the hot paths.
enum class TelemetryLevel : uint8_t {
  Off = 0,      ///< no telemetry objects at all; accessors return empty
  Counters = 1, ///< flat counters/gauges only (default)
  Full = 2,     ///< counters + histograms + flight recorder
};

const char *telemetryLevelName(TelemetryLevel L);

/// Parses "off" / "counters" / "full"; returns false on anything else.
bool parseTelemetryLevel(const char *S, TelemetryLevel &Out);

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// Snapshot of one histogram: name, moments, and the non-empty buckets.
struct HistogramSnapshot {
  std::string Name;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  /// (bucket index, count) for every non-empty bucket, ascending.
  std::vector<std::pair<unsigned, uint64_t>> Buckets;

  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }
};

/// Log2-bucketed histogram of uint64 samples. Bucket b holds values whose
/// bit width is b: bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3},
/// bucket 3 = {4..7}, ..., bucket 64 = {2^63..2^64-1}. record() is wait-free
/// (three relaxed RMWs plus a relaxed CAS loop for the max that almost never
/// iterates); there is no per-histogram lock.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  void record(uint64_t V) {
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    CountA.fetch_add(1, std::memory_order_relaxed);
    SumA.fetch_add(V, std::memory_order_relaxed);
    uint64_t Cur = MaxA.load(std::memory_order_relaxed);
    while (V > Cur &&
           !MaxA.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  /// Bucket index for a value: 0 for 0, else the value's bit width.
  static unsigned bucketOf(uint64_t V) {
    unsigned W = 0;
    while (V) {
      ++W;
      V >>= 1;
    }
    return W;
  }
  /// Inclusive lower bound of bucket \p B.
  static uint64_t bucketLo(unsigned B) {
    return B < 2 ? B : (uint64_t(1) << (B - 1));
  }
  /// Inclusive upper bound of bucket \p B.
  static uint64_t bucketHi(unsigned B) {
    if (B < 2)
      return B;
    if (B >= 64)
      return ~uint64_t(0);
    return (uint64_t(1) << B) - 1;
  }

  uint64_t count() const { return CountA.load(std::memory_order_relaxed); }
  uint64_t sum() const { return SumA.load(std::memory_order_relaxed); }
  uint64_t max() const { return MaxA.load(std::memory_order_relaxed); }
  uint64_t bucketCount(unsigned B) const {
    return B < NumBuckets ? Buckets[B].load(std::memory_order_relaxed) : 0;
  }

  HistogramSnapshot snapshot(std::string Name) const;

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> CountA{0};
  std::atomic<uint64_t> SumA{0};
  std::atomic<uint64_t> MaxA{0};
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Point-in-time snapshot of a histogram registry plus the counters/gauges
/// its owner merged in (the engine mirrors EngineStats and health gauges so
/// one document carries everything). Rendered as human text or as a
/// "gold-metrics-v1" JSON document.
struct TelemetrySnapshot {
  TelemetryLevel Level = TelemetryLevel::Off;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<HistogramSnapshot> Histograms;

  void addCounter(std::string Name, uint64_t V) {
    Counters.emplace_back(std::move(Name), V);
  }
  void addGauge(std::string Name, int64_t V) {
    Gauges.emplace_back(std::move(Name), V);
  }

  /// Multi-line human render (one counter/gauge per line, histograms with
  /// their non-empty buckets).
  std::string str() const;
  /// Emits this snapshot as the members of an (already begun) JSON object.
  void jsonBody(JsonWriter &J) const;
  /// Complete gold-metrics-v1 document; \p Source names the producer.
  std::string json(const char *Source) const;
};

//===----------------------------------------------------------------------===//
// Counter tables
//===----------------------------------------------------------------------===//

// A layer names each of its monotonic counters exactly once, as one row of
// an X-macro table in export order:
//
//   #define GOLD_NET_COUNTERS(X) X(FramesIn, "frames_in") X(BytesIn, ...)
//
// Everything else is expanded from that table: the public snapshot struct
// (GOLD_COUNTER_FIELDS), the relaxed-atomic block the hot paths increment
// and its relaxed-load copy (GOLD_COUNTER_ATOMICS), and — through the
// generated forEachCounter() — the JSON members (jsonCounters) and the
// telemetry counters (addCounters). Adding a counter is adding a row
// (DESIGN.md §13).

#define GOLD_COUNTER_FIELD(Field, Name) uint64_t Field = 0;
#define GOLD_COUNTER_VISIT(Field, Name) Visit(Name, Field);
#define GOLD_COUNTER_ATOMIC(Field, Name) std::atomic<uint64_t> Field{0};
#define GOLD_COUNTER_LOAD(Field, Name)                                         \
  Out.Field = Field.load(std::memory_order_relaxed);

/// Snapshot-struct members for a counter table: one uint64_t per row, and
/// forEachCounter(Visit), which calls Visit("name", value) in row order.
#define GOLD_COUNTER_FIELDS(TABLE)                                             \
  TABLE(GOLD_COUNTER_FIELD)                                                    \
  template <typename VisitT> void forEachCounter(VisitT &&Visit) const {       \
    TABLE(GOLD_COUNTER_VISIT)                                                  \
  }

/// Atomic-block members for a counter table: one relaxed atomic per row,
/// and loadInto(Out), the relaxed-load copy into any struct holding the
/// table's GOLD_COUNTER_FIELDS.
#define GOLD_COUNTER_ATOMICS(TABLE)                                            \
  TABLE(GOLD_COUNTER_ATOMIC)                                                   \
  template <typename SnapT> void loadInto(SnapT &Out) const {                  \
    TABLE(GOLD_COUNTER_LOAD)                                                   \
  }

/// Emits every row of \p S's counter table as a JSON member, in row order.
template <typename StatsT> void jsonCounters(JsonWriter &J, const StatsT &S) {
  S.forEachCounter([&J](const char *Name, uint64_t V) { J.kv(Name, V); });
}

/// Adds every row of \p S's counter table to \p Snap as "<Prefix><name>".
template <typename StatsT>
void addCounters(TelemetrySnapshot &Snap, const char *Prefix,
                 const StatsT &S) {
  S.forEachCounter([&](const char *Name, uint64_t V) {
    Snap.addCounter(std::string(Prefix) + Name, V);
  });
}

/// Named registry of histograms, plus the telemetry level. Registration is
/// mutex-guarded and deque-backed so returned references stay valid for the
/// registry's lifetime; the histograms themselves are lock-free. The level
/// is fixed at construction — callers cache it (or histogram pointers) and
/// gate hot-path recording on that. Counters and gauges are not registered
/// here: each owner adds its own to the snapshot (addCounter/addGauge).
class Telemetry {
public:
  explicit Telemetry(TelemetryLevel L = TelemetryLevel::Counters)
      : Level(L) {}

  TelemetryLevel level() const { return Level; }
  bool countersEnabled() const { return Level >= TelemetryLevel::Counters; }
  bool fullEnabled() const { return Level >= TelemetryLevel::Full; }

  /// Finds or creates the named histogram. Never fails; names are
  /// case-sensitive and shared across snapshots.
  Histogram &histogram(const std::string &Name);

  /// Snapshot of every histogram registered so far, in registration order.
  TelemetrySnapshot snapshot() const;

private:
  const TelemetryLevel Level;
  mutable std::mutex Mu;
  // deques: growth never moves existing elements, so handed-out references
  // survive later registrations.
  std::deque<std::pair<std::string, Histogram>> HistSlots;
};

//===----------------------------------------------------------------------===//
// Event rings / flight recorder
//===----------------------------------------------------------------------===//

/// Fixed-size mutex-guarded ring of events; old entries are overwritten (and
/// counted as dropped) rather than growing — observability must not become a
/// resource problem of its own. This is the generalization of the
/// supervision layer's event ring (SupervisionRing is an instantiation).
template <typename EventT> class EventRing {
public:
  explicit EventRing(size_t Capacity) : Buf(Capacity ? Capacity : 1) {}

  void push(EventT E) {
    std::lock_guard<std::mutex> G(Mu);
    Buf[Pushes % Buf.size()] = std::move(E);
    ++Pushes;
  }

  /// Retained events, oldest first.
  std::vector<EventT> snapshot() const {
    std::lock_guard<std::mutex> G(Mu);
    std::vector<EventT> Out;
    size_t N = Pushes < Buf.size() ? Pushes : Buf.size();
    Out.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Out.push_back(Buf[(Pushes - N + I) % Buf.size()]);
    return Out;
  }

  uint64_t total() const {
    std::lock_guard<std::mutex> G(Mu);
    return Pushes;
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> G(Mu);
    return Pushes > Buf.size() ? Pushes - Buf.size() : 0;
  }
  size_t capacity() const { return Buf.size(); }

private:
  mutable std::mutex Mu;
  std::vector<EventT> Buf;
  uint64_t Pushes = 0;
};

/// What a flight-recorder entry describes. Keep flightKindName in sync.
enum class FlightKind : uint8_t {
  SyncEvent = 0, ///< a synchronization event was published (Aux = ActionKind)
  Access,        ///< a data access was checked (Aux = is-write)
  Race,          ///< a race was reported on A=var key
  GcRun,         ///< a collection ran (A = cells freed, B = quarantined)
  GraceWait,     ///< a grace period completed (A = micros, B = timed out)
  Degradation,   ///< the governor escalated (A = rung)
  Quiesce,       ///< quiesce() ran
  StallDump,     ///< a supervisor stall dump was captured
};

const char *flightKindName(FlightKind K);

/// One flight-recorder entry. A/B are kind-specific payloads (variable key,
/// cell count, micros...) — small and fixed-size on purpose: recording must
/// never allocate.
struct FlightEvent {
  uint64_t MonotonicNanos = 0;
  FlightKind Kind = FlightKind::SyncEvent;
  uint8_t Aux = 0;
  uint32_t Thread = 0;
  uint64_t A = 0;
  uint64_t B = 0;

  /// One-line render, e.g. "+1234us T3 sync-event acquire var=...".
  std::string str(uint64_t EpochNanos) const;
};

/// Per-thread flight recorder: recent engine events in fixed rings striped
/// by thread id, so hot threads cannot evict each other's history and ring
/// contention stays bounded. Dumped on race, watchdog stall, and quiesce.
class FlightRecorder {
public:
  explicit FlightRecorder(size_t RingCapacity = 256, size_t Stripes = 16);

  void record(uint32_t Thread, FlightKind K, uint8_t Aux = 0, uint64_t A = 0,
              uint64_t B = 0);

  /// All retained events merged across stripes, time-sorted.
  std::vector<FlightEvent> snapshot() const;

  /// Multi-line human dump (timestamps relative to the first retained
  /// event), capped at \p MaxEvents lines (0 = no cap).
  std::string dump(size_t MaxEvents = 0) const;

  uint64_t total() const;
  uint64_t dropped() const;

private:
  std::deque<EventRing<FlightEvent>> Rings; // deque: EventRing is not movable
};

//===----------------------------------------------------------------------===//
// Chrome trace-event sink
//===----------------------------------------------------------------------===//

/// Collects Chrome trace-event spans ("ph":"X") and instants ("ph":"i") and
/// writes the JSON object format ({"traceEvents":[...]}) that Perfetto and
/// chrome://tracing load, wrapped as a "gold-trace-v1" document (extra
/// top-level keys are ignored by viewers). Bounded: past MaxEvents further
/// events are counted as dropped, never stored. Name/category strings must
/// be literals (or otherwise outlive the sink) — recording does not copy
/// them.
///
/// Cross-process merging: each sink carries a process id (default 1) that
/// stamps its events' "pid" field, mergeFrom() folds another sink's events
/// in preserving their pids, and the rendered document's "ts_origin_nanos"
/// records the absolute monotonic base that "ts" values were rebased
/// against — two same-host trace files can therefore be re-aligned onto one
/// timeline (tools/merge_traces.py) without any ambiguity about which
/// process's clock each ts came from.
class TraceEventSink {
public:
  explicit TraceEventSink(size_t MaxEvents = 1u << 20, uint32_t Pid = 1);

  void span(const char *Name, const char *Category, uint32_t Tid,
            uint64_t StartNanos, uint64_t DurationNanos);
  void instant(const char *Name, const char *Category, uint32_t Tid,
               uint64_t Nanos);
  /// Span carrying per-frame identity args ({"client":..,"seq":..}) — the
  /// join key that lets a consumer pair a server-side pipeline span with
  /// the client-side span for the same frame across processes. \p Shard
  /// (>= 0) additionally stamps {"shard":..}: one wire frame fans out to
  /// one shard item per routed shard, and each copy's stage spans form
  /// their own consistent wire+ring_wait+apply == e2e chain — the shard
  /// arg is what lets a validator group the copies apart.
  void spanTagged(const char *Name, const char *Category, uint32_t Tid,
                  uint64_t StartNanos, uint64_t DurationNanos,
                  uint64_t Client, uint64_t Seq, int32_t Shard = -1);

  /// Appends \p Other's retained events (keeping their pids); events past
  /// this sink's bound are counted as dropped.
  void mergeFrom(const TraceEventSink &Other);

  uint32_t pid() const { return Pid; }

  size_t size() const;
  uint64_t dropped() const;

  /// Renders the complete trace document.
  std::string json() const;
  /// Writes json() to \p Path; returns false on I/O failure.
  bool writeFile(const std::string &Path) const;

  /// Steady-clock nanos helper for span timing at call sites.
  static uint64_t nowNanos();

private:
  struct Ev {
    const char *Name;
    const char *Category;
    char Phase;
    uint32_t Tid;
    uint64_t TsNanos;
    uint64_t DurNanos;
    uint32_t Pid;
    bool HasArgs;
    uint64_t Client;
    uint64_t Seq;
    int32_t Shard; ///< args.shard when >= 0 (multi-shard fan-out copies)
  };

  void push(const Ev &E);

  mutable std::mutex Mu;
  std::vector<Ev> Events;
  const size_t MaxEvents;
  const uint32_t Pid;
  std::atomic<uint64_t> Dropped{0};
};

} // namespace gold

#endif // GOLD_SUPPORT_TELEMETRY_H
