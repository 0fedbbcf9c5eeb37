//===- support/Telemetry.cpp - Engine observability primitives ------------===//

#include "support/Telemetry.h"

#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace gold {

//===----------------------------------------------------------------------===//
// Level
//===----------------------------------------------------------------------===//

const char *telemetryLevelName(TelemetryLevel L) {
  switch (L) {
  case TelemetryLevel::Off:
    return "off";
  case TelemetryLevel::Counters:
    return "counters";
  case TelemetryLevel::Full:
    return "full";
  }
  return "?";
}

bool parseTelemetryLevel(const char *S, TelemetryLevel &Out) {
  if (!std::strcmp(S, "off"))
    Out = TelemetryLevel::Off;
  else if (!std::strcmp(S, "counters"))
    Out = TelemetryLevel::Counters;
  else if (!std::strcmp(S, "full"))
    Out = TelemetryLevel::Full;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

HistogramSnapshot Histogram::snapshot(std::string Name) const {
  HistogramSnapshot S;
  S.Name = std::move(Name);
  S.Count = count();
  S.Sum = sum();
  S.Max = max();
  for (unsigned B = 0; B < NumBuckets; ++B)
    if (uint64_t C = bucketCount(B))
      S.Buckets.emplace_back(B, C);
  return S;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

Histogram &Telemetry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> G(Mu);
  for (auto &Slot : HistSlots)
    if (Slot.first == Name)
      return Slot.second;
  HistSlots.emplace_back(std::piecewise_construct,
                         std::forward_as_tuple(Name),
                         std::forward_as_tuple());
  return HistSlots.back().second;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot S;
  S.Level = Level;
  std::lock_guard<std::mutex> G(Mu);
  for (const auto &Slot : HistSlots)
    S.Histograms.push_back(Slot.second.snapshot(Slot.first));
  return S;
}

std::string TelemetrySnapshot::str() const {
  std::string Out = "telemetry level=";
  Out += telemetryLevelName(Level);
  Out += '\n';
  char Buf[160];
  for (const auto &C : Counters) {
    std::snprintf(Buf, sizeof(Buf), "  %s=%llu\n", C.first.c_str(),
                  (unsigned long long)C.second);
    Out += Buf;
  }
  for (const auto &G : Gauges) {
    std::snprintf(Buf, sizeof(Buf), "  %s=%lld\n", G.first.c_str(),
                  (long long)G.second);
    Out += Buf;
  }
  for (const auto &H : Histograms) {
    std::snprintf(Buf, sizeof(Buf),
                  "  %s: count=%llu sum=%llu max=%llu mean=%.2f\n",
                  H.Name.c_str(), (unsigned long long)H.Count,
                  (unsigned long long)H.Sum, (unsigned long long)H.Max,
                  H.mean());
    Out += Buf;
    for (const auto &B : H.Buckets) {
      std::snprintf(Buf, sizeof(Buf), "    [%llu..%llu]: %llu\n",
                    (unsigned long long)Histogram::bucketLo(B.first),
                    (unsigned long long)Histogram::bucketHi(B.first),
                    (unsigned long long)B.second);
      Out += Buf;
    }
  }
  return Out;
}

void TelemetrySnapshot::jsonBody(JsonWriter &J) const {
  J.kv("level", telemetryLevelName(Level));
  J.key("counters");
  J.beginObject();
  for (const auto &C : Counters)
    J.kv(C.first.c_str(), C.second);
  J.endObject();
  J.key("gauges");
  J.beginObject();
  for (const auto &G : Gauges)
    J.kv(G.first.c_str(), G.second);
  J.endObject();
  J.key("histograms");
  J.beginObject();
  for (const auto &H : Histograms) {
    J.key(H.Name.c_str());
    J.beginObject();
    J.kv("count", H.Count);
    J.kv("sum", H.Sum);
    J.kv("max", H.Max);
    J.kv("mean", H.mean());
    // Buckets render as [lo, hi, count] triples so a consumer does not need
    // to know the log2 bucketing rule to plot them.
    J.key("buckets");
    J.beginArray();
    for (const auto &B : H.Buckets) {
      J.beginArray();
      J.value(Histogram::bucketLo(B.first));
      J.value(Histogram::bucketHi(B.first));
      J.value(B.second);
      J.endArray();
    }
    J.endArray();
    J.endObject();
  }
  J.endObject();
}

std::string TelemetrySnapshot::json(const char *Source) const {
  JsonWriter J;
  J.beginObject();
  J.kv("schema", "gold-metrics-v1");
  J.kv("source", Source);
  jsonBody(J);
  J.endObject();
  return J.str();
}

//===----------------------------------------------------------------------===//
// Flight recorder
//===----------------------------------------------------------------------===//

const char *flightKindName(FlightKind K) {
  switch (K) {
  case FlightKind::SyncEvent:
    return "sync-event";
  case FlightKind::Access:
    return "access";
  case FlightKind::Race:
    return "race";
  case FlightKind::GcRun:
    return "gc-run";
  case FlightKind::GraceWait:
    return "grace-wait";
  case FlightKind::Degradation:
    return "degradation";
  case FlightKind::Quiesce:
    return "quiesce";
  case FlightKind::StallDump:
    return "stall-dump";
  }
  return "?";
}

std::string FlightEvent::str(uint64_t EpochNanos) const {
  char Buf[160];
  uint64_t RelMicros =
      MonotonicNanos >= EpochNanos ? (MonotonicNanos - EpochNanos) / 1000 : 0;
  std::snprintf(Buf, sizeof(Buf), "+%8lluus T%-3u %-13s aux=%u a=%llu b=%llu",
                (unsigned long long)RelMicros, Thread, flightKindName(Kind),
                Aux, (unsigned long long)A, (unsigned long long)B);
  return Buf;
}

FlightRecorder::FlightRecorder(size_t RingCapacity, size_t Stripes) {
  if (!Stripes)
    Stripes = 1;
  for (size_t I = 0; I < Stripes; ++I)
    Rings.emplace_back(RingCapacity);
}

void FlightRecorder::record(uint32_t Thread, FlightKind K, uint8_t Aux,
                            uint64_t A, uint64_t B) {
  FlightEvent E;
  E.MonotonicNanos = TraceEventSink::nowNanos();
  E.Kind = K;
  E.Aux = Aux;
  E.Thread = Thread;
  E.A = A;
  E.B = B;
  Rings[Thread % Rings.size()].push(E);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> Out;
  for (const auto &R : Rings) {
    auto Part = R.snapshot();
    Out.insert(Out.end(), Part.begin(), Part.end());
  }
  std::sort(Out.begin(), Out.end(),
            [](const FlightEvent &L, const FlightEvent &R) {
              return L.MonotonicNanos < R.MonotonicNanos;
            });
  return Out;
}

std::string FlightRecorder::dump(size_t MaxEvents) const {
  auto Events = snapshot();
  if (MaxEvents && Events.size() > MaxEvents)
    Events.erase(Events.begin(), Events.end() - MaxEvents);
  std::string Out;
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf),
                "flight recorder: %zu retained, %llu recorded, %llu dropped\n",
                Events.size(), (unsigned long long)total(),
                (unsigned long long)dropped());
  Out += Buf;
  uint64_t Epoch = Events.empty() ? 0 : Events.front().MonotonicNanos;
  for (const auto &E : Events) {
    Out += "  ";
    Out += E.str(Epoch);
    Out += '\n';
  }
  return Out;
}

uint64_t FlightRecorder::total() const {
  uint64_t N = 0;
  for (const auto &R : Rings)
    N += R.total();
  return N;
}

uint64_t FlightRecorder::dropped() const {
  uint64_t N = 0;
  for (const auto &R : Rings)
    N += R.dropped();
  return N;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event sink
//===----------------------------------------------------------------------===//

TraceEventSink::TraceEventSink(size_t MaxEvents, uint32_t Pid)
    : MaxEvents(MaxEvents ? MaxEvents : 1), Pid(Pid) {}

uint64_t TraceEventSink::nowNanos() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceEventSink::push(const Ev &E) {
  std::lock_guard<std::mutex> G(Mu);
  if (Events.size() >= MaxEvents) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Events.push_back(E);
}

void TraceEventSink::span(const char *Name, const char *Category, uint32_t Tid,
                          uint64_t StartNanos, uint64_t DurationNanos) {
  push(Ev{Name, Category, 'X', Tid, StartNanos, DurationNanos, Pid, false, 0,
          0, -1});
}

void TraceEventSink::instant(const char *Name, const char *Category,
                             uint32_t Tid, uint64_t Nanos) {
  push(Ev{Name, Category, 'i', Tid, Nanos, 0, Pid, false, 0, 0, -1});
}

void TraceEventSink::spanTagged(const char *Name, const char *Category,
                                uint32_t Tid, uint64_t StartNanos,
                                uint64_t DurationNanos, uint64_t Client,
                                uint64_t Seq, int32_t Shard) {
  push(Ev{Name, Category, 'X', Tid, StartNanos, DurationNanos, Pid, true,
          Client, Seq, Shard});
}

void TraceEventSink::mergeFrom(const TraceEventSink &Other) {
  std::vector<Ev> Theirs;
  {
    std::lock_guard<std::mutex> G(Other.Mu);
    Theirs = Other.Events;
  }
  for (const Ev &E : Theirs)
    push(E);
}

size_t TraceEventSink::size() const {
  std::lock_guard<std::mutex> G(Mu);
  return Events.size();
}

uint64_t TraceEventSink::dropped() const {
  return Dropped.load(std::memory_order_relaxed);
}

std::string TraceEventSink::json() const {
  std::lock_guard<std::mutex> G(Mu);
  // Rebase to the earliest event: absolute steady-clock nanos burn the
  // double's significant digits on time-since-boot (collapsing nearby spans
  // once rendered), and viewers want the trace to start near t=0 anyway.
  uint64_t Base = UINT64_MAX;
  for (const auto &E : Events)
    Base = std::min(Base, E.TsNanos);
  if (Events.empty())
    Base = 0;
  JsonWriter J;
  J.beginObject();
  J.kv("schema", "gold-trace-v1");
  J.kv("displayTimeUnit", "ns");
  // The absolute monotonic base that "ts" was rebased against: a merger can
  // restore each event's absolute time as ts_origin_nanos + ts*1000.
  J.kv("ts_origin_nanos", Base);
  J.kv("pid", (uint64_t)Pid);
  J.key("traceEvents");
  J.beginArray();
  for (const auto &E : Events) {
    J.beginObject();
    J.kv("name", E.Name);
    J.kv("cat", E.Category);
    char Ph[2] = {E.Phase, 0};
    J.kv("ph", (const char *)Ph);
    // Chrome's "ts"/"dur" are microseconds; fractional values are accepted,
    // so keep nanosecond precision.
    J.kv("ts", (E.TsNanos - Base) / 1000.0);
    if (E.Phase == 'X')
      J.kv("dur", E.DurNanos / 1000.0);
    else
      J.kv("s", "t"); // instant scope: thread
    J.kv("pid", (uint64_t)E.Pid);
    J.kv("tid", E.Tid);
    if (E.HasArgs) {
      J.key("args");
      J.beginObject();
      J.kv("client", E.Client);
      J.kv("seq", E.Seq);
      if (E.Shard >= 0)
        J.kv("shard", (uint64_t)E.Shard);
      J.endObject();
    }
    J.endObject();
  }
  J.endArray();
  J.endObject();
  return J.str();
}

bool TraceEventSink::writeFile(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Doc = json();
  bool Ok = std::fwrite(Doc.data(), 1, Doc.size(), F) == Doc.size() &&
            std::fputc('\n', F) != EOF;
  return std::fclose(F) == 0 && Ok;
}

} // namespace gold
