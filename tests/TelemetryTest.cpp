//===- tests/TelemetryTest.cpp - Observability primitives tests -----------===//
///
/// Unit tests for support/Telemetry.h: log2 histogram bucket boundaries and
/// moments (including a true concurrent-increment exactness check, which is
/// what TSan runs against), the named registry, the generalized event ring
/// and flight recorder, and the Chrome trace-event sink's output format.
///
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace gold;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketOfIsTheBitWidth) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(7), 3u);
  EXPECT_EQ(Histogram::bucketOf(8), 4u);
  EXPECT_EQ(Histogram::bucketOf(1023), 10u);
  EXPECT_EQ(Histogram::bucketOf(1024), 11u);
  EXPECT_EQ(Histogram::bucketOf(~uint64_t(0)), 64u);
}

TEST(HistogramTest, BucketBoundsPartitionTheDomain) {
  // Buckets must tile [0, 2^64) without gaps or overlaps, and bucketOf must
  // agree with the bounds at every edge.
  EXPECT_EQ(Histogram::bucketLo(0), 0u);
  EXPECT_EQ(Histogram::bucketHi(0), 0u);
  EXPECT_EQ(Histogram::bucketLo(1), 1u);
  EXPECT_EQ(Histogram::bucketHi(1), 1u);
  for (unsigned B = 1; B != Histogram::NumBuckets; ++B) {
    EXPECT_EQ(Histogram::bucketLo(B), Histogram::bucketHi(B - 1) + 1)
        << "gap/overlap between buckets " << B - 1 << " and " << B;
    EXPECT_LE(Histogram::bucketLo(B), Histogram::bucketHi(B));
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(B)), B);
    EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHi(B)), B);
  }
  EXPECT_EQ(Histogram::bucketHi(64), ~uint64_t(0));
}

TEST(HistogramTest, RecordUpdatesMomentsAndBuckets) {
  Histogram H;
  for (uint64_t V : {0ull, 1ull, 1ull, 5ull, 6ull, 7ull, 1000ull})
    H.record(V);
  EXPECT_EQ(H.count(), 7u);
  EXPECT_EQ(H.sum(), 0u + 1 + 1 + 5 + 6 + 7 + 1000);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucketCount(0), 1u); // {0}
  EXPECT_EQ(H.bucketCount(1), 2u); // {1, 1}
  EXPECT_EQ(H.bucketCount(3), 3u); // {5, 6, 7}
  EXPECT_EQ(H.bucketCount(10), 1u); // {1000}
  EXPECT_EQ(H.bucketCount(2), 0u);

  HistogramSnapshot S = H.snapshot("walk");
  EXPECT_EQ(S.Name, "walk");
  EXPECT_EQ(S.Count, 7u);
  EXPECT_DOUBLE_EQ(S.mean(), double(S.Sum) / 7.0);
  uint64_t BucketTotal = 0;
  for (const auto &[B, N] : S.Buckets) {
    EXPECT_GT(N, 0u) << "snapshot must only carry non-empty buckets";
    EXPECT_LT(B, Histogram::NumBuckets);
    BucketTotal += N;
  }
  EXPECT_EQ(BucketTotal, S.Count);
}

TEST(HistogramTest, ConcurrentRecordIsExactOnceQuiescent) {
  // The soundness claim behind the relaxed atomics: each cell is
  // independently exact after writers quiesce. 8 threads x 20k records of
  // known values must produce exact count/sum/max and bucket totals.
  Histogram H;
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&H, T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        H.record(T); // thread T records its own index, 20k times
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(H.count(), Threads * PerThread);
  EXPECT_EQ(H.sum(), PerThread * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
  EXPECT_EQ(H.max(), 7u);
  EXPECT_EQ(H.bucketCount(0), PerThread);          // value 0
  EXPECT_EQ(H.bucketCount(1), PerThread);          // value 1
  EXPECT_EQ(H.bucketCount(2), 2 * PerThread);      // values 2, 3
  EXPECT_EQ(H.bucketCount(3), 4 * PerThread);      // values 4..7
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(TelemetryRegistryTest, SameNameYieldsSameInstrument) {
  Telemetry Tel(TelemetryLevel::Full);
  Histogram &H1 = Tel.histogram("walk");
  Histogram &H2 = Tel.histogram("walk");
  EXPECT_EQ(&H1, &H2);
  H1.record(5);
  H2.record(3);
  Tel.histogram("append").record(1);

  TelemetrySnapshot S = Tel.snapshot();
  EXPECT_EQ(S.Level, TelemetryLevel::Full);
  // The registry holds histograms only; counters and gauges are added by
  // each snapshot's owner.
  EXPECT_TRUE(S.Counters.empty());
  EXPECT_TRUE(S.Gauges.empty());
  ASSERT_EQ(S.Histograms.size(), 2u);
  EXPECT_EQ(S.Histograms[0].Name, "walk");
  EXPECT_EQ(S.Histograms[0].Count, 2u);
  EXPECT_EQ(S.Histograms[0].Sum, 8u);
  EXPECT_EQ(S.Histograms[1].Name, "append");
  EXPECT_EQ(S.Histograms[1].Count, 1u);
}

TEST(TelemetryRegistryTest, ReferencesSurviveLaterRegistrations) {
  Telemetry Tel;
  Histogram &First = Tel.histogram("h0");
  for (int I = 1; I != 200; ++I) {
    std::string Name = std::to_string(I);
    Name.insert(0, 1, 'h');
    Tel.histogram(Name);
  }
  First.record(7);
  EXPECT_EQ(Tel.histogram("h0").count(), 1u);
  EXPECT_EQ(Tel.histogram("h0").max(), 7u);
}

TEST(TelemetryLevelTest, ParseRoundTrips) {
  TelemetryLevel L;
  ASSERT_TRUE(parseTelemetryLevel("off", L));
  EXPECT_EQ(L, TelemetryLevel::Off);
  ASSERT_TRUE(parseTelemetryLevel("counters", L));
  EXPECT_EQ(L, TelemetryLevel::Counters);
  ASSERT_TRUE(parseTelemetryLevel("full", L));
  EXPECT_EQ(L, TelemetryLevel::Full);
  EXPECT_FALSE(parseTelemetryLevel("verbose", L));
  EXPECT_FALSE(parseTelemetryLevel("", L));
  for (TelemetryLevel X : {TelemetryLevel::Off, TelemetryLevel::Counters,
                           TelemetryLevel::Full}) {
    ASSERT_TRUE(parseTelemetryLevel(telemetryLevelName(X), L));
    EXPECT_EQ(L, X);
  }
}

TEST(TelemetrySnapshotTest, JsonCarriesTheSchemaAndInstruments) {
  Telemetry Tel(TelemetryLevel::Full);
  Tel.histogram("walk").record(9);
  TelemetrySnapshot S = Tel.snapshot();
  S.addCounter("races", 2);
  std::string J = S.json("unit-test");
  EXPECT_NE(J.find("\"schema\":\"gold-metrics-v1\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"source\":\"unit-test\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"races\":2"), std::string::npos) << J;
  EXPECT_NE(J.find("\"walk\""), std::string::npos) << J;
  // Buckets are [lo, hi, count] triples; 9 lands in bucket 4 = [8, 15].
  EXPECT_NE(J.find("[[8,15,1]]"), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// Event ring / flight recorder
//===----------------------------------------------------------------------===//

TEST(EventRingTest, OverwritesOldestAndCountsDrops) {
  EventRing<int> R(4);
  EXPECT_EQ(R.capacity(), 4u);
  for (int I = 0; I != 10; ++I)
    R.push(I);
  EXPECT_EQ(R.total(), 10u);
  EXPECT_EQ(R.dropped(), 6u);
  std::vector<int> S = R.snapshot();
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S, (std::vector<int>{6, 7, 8, 9})) << "oldest-first, newest kept";
}

TEST(EventRingTest, ZeroCapacityIsClampedNotUndefined) {
  EventRing<int> R(0);
  EXPECT_EQ(R.capacity(), 1u);
  R.push(42);
  ASSERT_EQ(R.snapshot().size(), 1u);
  EXPECT_EQ(R.snapshot()[0], 42);
}

TEST(FlightRecorderTest, SnapshotMergesStripesTimeSorted) {
  FlightRecorder F(/*RingCapacity=*/8, /*Stripes=*/4);
  // Interleave threads that land in different stripes.
  for (uint32_t T = 0; T != 8; ++T)
    F.record(T, FlightKind::SyncEvent, /*Aux=*/0, /*A=*/T, /*B=*/0);
  F.record(1, FlightKind::Race, /*Aux=*/1, /*A=*/99, /*B=*/7);
  EXPECT_EQ(F.total(), 9u);
  EXPECT_EQ(F.dropped(), 0u);

  std::vector<FlightEvent> S = F.snapshot();
  ASSERT_EQ(S.size(), 9u);
  for (size_t I = 1; I != S.size(); ++I)
    EXPECT_LE(S[I - 1].MonotonicNanos, S[I].MonotonicNanos)
        << "snapshot must be time-sorted across stripes";
  EXPECT_EQ(S.back().Kind, FlightKind::Race);
  EXPECT_EQ(S.back().A, 99u);

  std::string Dump = F.dump();
  EXPECT_NE(Dump.find("race"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("sync-event"), std::string::npos) << Dump;
  // A capped dump keeps the newest events (the ones a stall dump needs).
  std::string Capped = F.dump(/*MaxEvents=*/2);
  EXPECT_NE(Capped.find("race"), std::string::npos) << Capped;
}

TEST(FlightRecorderTest, ConcurrentRecordingLosesNothingButTheOverwritten) {
  FlightRecorder F(/*RingCapacity=*/64, /*Stripes=*/8);
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 1000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&F, T] {
      for (unsigned I = 0; I != PerThread; ++I)
        F.record(T, FlightKind::Access, 0, I, 0);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(F.total(), uint64_t(Threads) * PerThread);
  EXPECT_EQ(F.total() - F.dropped(), F.snapshot().size());
}

//===----------------------------------------------------------------------===//
// Chrome trace sink
//===----------------------------------------------------------------------===//

TEST(TraceEventSinkTest, EmitsLoadableTraceEventJson) {
  TraceEventSink Sink;
  Sink.span("lazy-walk", "check", /*Tid=*/3, /*StartNanos=*/2000,
            /*DurationNanos=*/1500);
  Sink.instant("race", "check", /*Tid=*/3, /*Nanos=*/4000);
  EXPECT_EQ(Sink.size(), 2u);
  std::string J = Sink.json();
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"displayTimeUnit\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"lazy-walk\""), std::string::npos) << J;
  // ts/dur are microseconds: 2000ns -> 2us, 1500ns -> 1.5us.
  EXPECT_NE(J.find("\"ts\":2"), std::string::npos) << J;
  EXPECT_NE(J.find("\"dur\":1.5"), std::string::npos) << J;
}

TEST(TraceEventSinkTest, BoundedPastMaxEvents) {
  TraceEventSink Sink(/*MaxEvents=*/2);
  for (int I = 0; I != 5; ++I)
    Sink.span("s", "c", 0, 0, 1);
  EXPECT_EQ(Sink.size(), 2u);
  EXPECT_EQ(Sink.dropped(), 3u);
}

TEST(TraceEventSinkTest, NowNanosIsMonotonic) {
  uint64_t A = TraceEventSink::nowNanos();
  uint64_t B = TraceEventSink::nowNanos();
  EXPECT_LE(A, B);
}

namespace {

/// Walks the rendered traceEvents array and hands (tid, ts) to \p Fn in
/// document order. Events are flat objects, so string scanning suffices.
template <typename Fn> size_t forEachEvent(const std::string &J, Fn &&F) {
  size_t N = 0;
  size_t Pos = J.find("{\"name\":\"");
  while (Pos != std::string::npos) {
    size_t Next = J.find("{\"name\":\"", Pos + 1);
    std::string Ev = J.substr(
        Pos, Next == std::string::npos ? J.size() - Pos : Next - Pos);
    size_t TsAt = Ev.find("\"ts\":");
    size_t TidAt = Ev.find("\"tid\":");
    if (TsAt != std::string::npos && TidAt != std::string::npos) {
      ++N;
      F(std::strtoul(Ev.c_str() + TidAt + 6, nullptr, 10),
        std::strtod(Ev.c_str() + TsAt + 5, nullptr), Ev);
    }
    Pos = Next;
  }
  return N;
}

} // namespace

TEST(TraceEventSinkTest, ConcurrentTaggedEmissionStaysConsistent) {
  // The span ring is fed from many threads at once (every shard consumer
  // plus the transports): nothing may be lost below the bound, each
  // thread's emission order must survive into the document (per-tid ts
  // monotonic), and the rendered JSON must stay structurally valid — no
  // torn events from interleaved writers.
  TraceEventSink Sink(1u << 16, /*Pid=*/42);
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 500;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&Sink, T] {
      for (unsigned I = 0; I != PerThread; ++I)
        Sink.spanTagged("apply", "pipe", /*Tid=*/T,
                        /*StartNanos=*/uint64_t(I) * 1000 + T,
                        /*DurationNanos=*/500, /*Client=*/T, /*Seq=*/I,
                        /*Shard=*/static_cast<int32_t>(T % 4));
    });
  for (auto &T : Ts)
    T.join();
  ASSERT_EQ(Sink.size(), size_t(Threads) * PerThread);
  EXPECT_EQ(Sink.dropped(), 0u);

  std::string J = Sink.json();
  // Structural validity: braces/brackets balance and never go negative
  // outside string literals.
  int Depth = 0, MinDepth = 0;
  bool InStr = false, Esc = false;
  for (char C : J) {
    if (Esc) {
      Esc = false;
      continue;
    }
    if (InStr) {
      if (C == '\\')
        Esc = true;
      else if (C == '"')
        InStr = false;
      continue;
    }
    if (C == '"')
      InStr = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']')
      MinDepth = std::min(MinDepth, --Depth);
  }
  EXPECT_EQ(Depth, 0);
  EXPECT_EQ(MinDepth, 0);
  EXPECT_FALSE(InStr);

  // Every event made it into the document, pid-stamped, and each thread's
  // ts sequence is monotone (start times increase per thread and the
  // mutexed push preserves per-thread order).
  std::array<double, Threads> LastTs;
  LastTs.fill(-1.0);
  std::array<size_t, Threads> Seen{};
  size_t N = forEachEvent(J, [&](unsigned long Tid, double Ts,
                                 const std::string &Ev) {
    ASSERT_LT(Tid, Threads);
    EXPECT_NE(Ev.find("\"pid\":42"), std::string::npos);
    EXPECT_GE(Ts, LastTs[Tid]) << "tid " << Tid;
    LastTs[Tid] = Ts;
    ++Seen[Tid];
  });
  EXPECT_EQ(N, size_t(Threads) * PerThread);
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_EQ(Seen[T], PerThread) << "tid " << T;
}

TEST(TraceEventSinkTest, MergeFromPreservesPidsAndRebasesTheTimeline) {
  // Cross-process merging: a merged document must keep each event's origin
  // pid (the join identity in a multi-process trace) while rebasing every
  // ts against the one global minimum.
  TraceEventSink A(/*MaxEvents=*/16, /*Pid=*/7);
  TraceEventSink B(/*MaxEvents=*/16, /*Pid=*/9);
  A.spanTagged("client_e2e", "pipe", /*Tid=*/1, /*Start=*/5000, /*Dur=*/1000,
               /*Client=*/1, /*Seq=*/0);
  A.span("flush", "pipe", /*Tid=*/1, /*Start=*/9000, /*Dur=*/500);
  B.spanTagged("wire", "pipe", /*Tid=*/2, /*Start=*/6000, /*Dur=*/800,
               /*Client=*/1, /*Seq=*/0);

  TraceEventSink M(/*MaxEvents=*/16, /*Pid=*/1);
  M.mergeFrom(A);
  M.mergeFrom(B);
  EXPECT_EQ(M.size(), 3u);
  EXPECT_EQ(M.dropped(), 0u);
  std::string J = M.json();
  EXPECT_NE(J.find("\"pid\":7"), std::string::npos) << J;
  EXPECT_NE(J.find("\"pid\":9"), std::string::npos) << J;
  // Rebase: the global minimum (5000ns) becomes the origin; the earliest
  // event renders at ts 0 and the rest keep their relative offsets in us.
  EXPECT_NE(J.find("\"ts_origin_nanos\":5000"), std::string::npos) << J;
  EXPECT_NE(J.find("\"ts\":0,"), std::string::npos) << J;
  EXPECT_NE(J.find("\"ts\":1,"), std::string::npos) << J; // 6000ns
  EXPECT_NE(J.find("\"ts\":4,"), std::string::npos) << J; // 9000ns

  // The merge target's bound still holds — overflow is counted, not lost
  // silently.
  TraceEventSink Tiny(/*MaxEvents=*/2, /*Pid=*/1);
  Tiny.mergeFrom(A);
  Tiny.mergeFrom(B);
  EXPECT_EQ(Tiny.size(), 2u);
  EXPECT_EQ(Tiny.dropped(), 1u);
}
