//===- tests/TracingTest.cpp - pipeline tracing tests ---------------------===//
///
/// The cross-process tracing subsystem (DESIGN.md §18) end to end in one
/// process: the deterministic ppm sampler (bit-identical decisions, exact
/// edge behavior, rate convergence), stage attribution through a real
/// DetectionService feed (pipe.* histograms and the sampled span ring), the
/// per-frame stage-sum invariant wire + ring_wait + apply == e2e on the
/// spans the service actually emitted, and the SnapshotProducer delta ring
/// behind --metrics-interval-ms and GET /metrics/history.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "service/Snapshots.h"
#include "service/Tracing.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace gold;

namespace {

/// Minimal span extraction from TraceEventSink::json(): the events are flat
/// objects (one nested args object), so field-by-field string scanning is
/// enough for a test — no JSON parser dependency.
struct SpanRec {
  std::string Name;
  std::string Cat;
  uint64_t Tid = 0;
  double TsUs = 0;
  double DurUs = 0;
  uint64_t Client = 0;
  uint64_t Seq = 0;
  int64_t Shard = -1;
  bool HasArgs = false;
};

std::vector<SpanRec> parseSpans(const std::string &Doc) {
  std::vector<SpanRec> Out;
  size_t At = Doc.find("\"traceEvents\":[");
  if (At == std::string::npos)
    return Out;
  size_t Pos = Doc.find("{\"name\":\"", At);
  while (Pos != std::string::npos) {
    size_t Next = Doc.find("{\"name\":\"", Pos + 1);
    std::string Ev = Doc.substr(
        Pos, Next == std::string::npos ? Doc.size() - Pos : Next - Pos);
    SpanRec R;
    auto Str = [&Ev](const char *Key, std::string &V) {
      size_t K = Ev.find(Key);
      if (K == std::string::npos)
        return;
      K += std::string(Key).size();
      V.assign(Ev, K, Ev.find('"', K) - K);
    };
    auto Num = [&Ev](const char *Key, double &V) {
      size_t K = Ev.find(Key);
      if (K == std::string::npos)
        return false;
      V = std::strtod(Ev.c_str() + K + std::string(Key).size(), nullptr);
      return true;
    };
    Str("\"name\":\"", R.Name);
    Str("\"cat\":\"", R.Cat);
    double D = 0;
    if (Num("\"tid\":", D))
      R.Tid = static_cast<uint64_t>(D);
    Num("\"ts\":", R.TsUs);
    Num("\"dur\":", R.DurUs);
    if (Num("\"client\":", D)) {
      R.HasArgs = true;
      R.Client = static_cast<uint64_t>(D);
    }
    if (Num("\"seq\":", D))
      R.Seq = static_cast<uint64_t>(D);
    if (Num("\"shard\":", D))
      R.Shard = static_cast<int64_t>(D);
    Out.push_back(std::move(R));
    Pos = Next;
  }
  return Out;
}

/// Feeds every line inline, pumping through backpressure like a transport.
void feedTraced(DetectionService &Svc, Session &S,
                const std::vector<std::string> &Lines, uint64_t ClientId,
                const PipeTraceConfig &TC) {
  for (size_t I = 0; I != Lines.size(); ++I) {
    FrameTrace FT;
    FrameTrace *FTp = nullptr;
    if (traceSampled(TC.Seed, ClientId, I, TC.SampleRatePpm)) {
      FT.OriginNanos = Svc.nowNanos();
      FT.FrameSeq = I;
      FT.Span = true;
      FTp = &FT;
    }
    for (;;) {
      FeedResult R = S.feedLine(Lines[I], FTp);
      ASSERT_NE(R.St, FeedResult::Status::Rejected) << Lines[I];
      ASSERT_NE(R.St, FeedResult::Status::Closed) << Lines[I];
      if (R.St == FeedResult::Status::Accepted)
        break;
      Svc.pumpAll(); // backpressure: retry the SAME line after a pump
    }
  }
}

std::vector<std::string> racyLines() {
  // Two threads, one real race on o5; the filler threads touch disjoint
  // variables so it stays race-free while making sampling interesting.
  std::vector<std::string> L = {"fork 0 1"};
  for (int I = 0; I != 40; ++I) {
    L.push_back("write 0 " + std::to_string(100 + I) + " 0");
    L.push_back("write 1 " + std::to_string(200 + I) + " 0");
  }
  L.push_back("write 0 5 0");
  L.push_back("write 1 5 0");
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// The deterministic sampler
//===----------------------------------------------------------------------===//

TEST(TraceSamplerTest, EdgesAreExactAndDecisionsAreStable) {
  // ppm 0 never fires, ppm 1e6 always fires — no hash-edge surprises.
  for (uint64_t Seq = 0; Seq != 1000; ++Seq) {
    EXPECT_FALSE(traceSampled(1, 7, Seq, 0));
    EXPECT_TRUE(traceSampled(1, 7, Seq, 1000000));
  }
  // The decision is a pure function: the client and the server evaluating
  // the same (seed, client, ordinal, ppm) MUST agree, call after call.
  for (uint64_t Seq = 0; Seq != 1000; ++Seq) {
    bool A = traceSampled(42, 3, Seq, 137000);
    EXPECT_EQ(A, traceSampled(42, 3, Seq, 137000));
  }
}

TEST(TraceSamplerTest, RateConvergesAndKeysDecorrelate) {
  const uint32_t Ppm = 200000; // 20%
  uint64_t Hits = 0;
  std::set<uint64_t> SetA, SetB, SetC;
  for (uint64_t Seq = 0; Seq != 100000; ++Seq) {
    if (traceSampled(1, 7, Seq, Ppm)) {
      ++Hits;
      SetA.insert(Seq);
    }
    if (traceSampled(2, 7, Seq, Ppm))
      SetB.insert(Seq);
    if (traceSampled(1, 8, Seq, Ppm))
      SetC.insert(Seq);
  }
  // Within 2% absolute of the target rate over 100k ordinals.
  EXPECT_GT(Hits, 18000u);
  EXPECT_LT(Hits, 22000u);
  // Different seeds and different clients select genuinely different frame
  // sets (a correlated sampler would trace the same frames everywhere and
  // bias every cross-client comparison).
  EXPECT_NE(SetA, SetB);
  EXPECT_NE(SetA, SetC);
}

TEST(TraceSamplerTest, RatePpmIsMonotonicInSelection) {
  // A frame sampled at ppm P must also be sampled at every P' > P: the
  // decision is hash % 1e6 < ppm, so raising the rate only adds frames.
  for (uint64_t Seq = 0; Seq != 2000; ++Seq) {
    if (traceSampled(9, 4, Seq, 50000)) {
      EXPECT_TRUE(traceSampled(9, 4, Seq, 400000)) << Seq;
    }
  }
}

//===----------------------------------------------------------------------===//
// Stage attribution through a real service feed
//===----------------------------------------------------------------------===//

TEST(PipeTraceTest, FullRateFeedRecordsHistogramsAndConsistentSpans) {
  ServiceConfig SC;
  SC.Shards = 4;
  SC.Telemetry = TelemetryLevel::Full;
  SC.Trace.Enabled = true;
  SC.Trace.SampleRatePpm = 1000000; // every frame: the invariant has no
                                    // sampling noise to hide behind
  DetectionService Svc(SC);
  auto R = Svc.open(/*ClientId=*/1);
  ASSERT_NE(R.S, nullptr) << R.Error;
  std::vector<std::string> Lines = racyLines();
  feedTraced(Svc, *R.S, Lines, 1, SC.Trace);
  R.S->close();
  Svc.drain();
  Svc.poll();
  ASSERT_EQ(R.S->takeVerdicts().size(), 1u) << "the o5 race must survive";

  // Per-stage histograms: every traced frame passed each stage once, on
  // its session's one shard.
  TelemetrySnapshot Snap = Svc.telemetry();
  std::map<std::string, const HistogramSnapshot *> H;
  for (const auto &HS : Snap.Histograms)
    H[HS.Name] = &HS;
  ASSERT_TRUE(H.count("pipe.wire"));
  ASSERT_TRUE(H.count("pipe.ring_wait"));
  ASSERT_TRUE(H.count("pipe.apply"));
  ASSERT_TRUE(H.count("pipe.verdict"));
  EXPECT_EQ(H["pipe.wire"]->Count, Lines.size());
  EXPECT_EQ(H["pipe.ring_wait"]->Count, H["pipe.wire"]->Count);
  EXPECT_EQ(H["pipe.ring_wait"]->Count, H["pipe.apply"]->Count);
  EXPECT_GE(H["pipe.verdict"]->Count, 1u);

  // The span ring: group by (tid, client, seq, shard) — each frame carries
  // one complete chain — and require the tentpole invariant EXACTLY (stage boundaries are forward-clamped, so
  // wire + ring_wait + apply == e2e to the nanosecond; 1ns of float slack
  // per stage covers the /1000.0 rendering).
  ASSERT_NE(Svc.spanSink(), nullptr);
  std::vector<SpanRec> Spans = parseSpans(Svc.spanSink()->json());
  ASSERT_FALSE(Spans.empty());
  std::map<std::tuple<uint64_t, uint64_t, uint64_t, int64_t>,
           std::map<std::string, double>>
      Chains;
  for (const SpanRec &S : Spans) {
    if (S.Cat != "pipe" || !S.HasArgs)
      continue;
    EXPECT_EQ(S.Client, 1u);
    Chains[{S.Tid, S.Client, S.Seq, S.Shard}][S.Name] += S.DurUs;
  }
  size_t Complete = 0;
  for (const auto &KV : Chains) {
    const auto &C = KV.second;
    if (!C.count("e2e"))
      continue;
    ASSERT_TRUE(C.count("wire") && C.count("ring_wait") && C.count("apply"))
        << "seq " << std::get<2>(KV.first);
    ++Complete;
    double Sum = C.at("wire") + C.at("ring_wait") + C.at("apply");
    EXPECT_NEAR(Sum, C.at("e2e"), 0.004) << "seq " << std::get<2>(KV.first);
  }
  EXPECT_EQ(Complete, Lines.size()) << "one chain per frame";
}

TEST(PipeTraceTest, UntracedFramesLeaveNoResidue) {
  // Tracing armed but every frame fed without a context (what transports do
  // for unsampled frames): no histogram samples, no spans. This is the
  // O(1)-samples discipline the within-noise overhead gate relies on.
  ServiceConfig SC;
  SC.Telemetry = TelemetryLevel::Full;
  SC.Trace.Enabled = true;
  DetectionService Svc(SC);
  auto R = Svc.open(1);
  ASSERT_NE(R.S, nullptr);
  for (const std::string &L : racyLines())
    ASSERT_EQ(R.S->feedLine(L).St, FeedResult::Status::Accepted);
  R.S->close();
  Svc.drain();
  Svc.poll();
  for (const auto &HS : Svc.telemetry().Histograms) {
    if (HS.Name.rfind("pipe.", 0) == 0) {
      EXPECT_EQ(HS.Count, 0u) << HS.Name;
    }
  }
  ASSERT_NE(Svc.spanSink(), nullptr);
  EXPECT_EQ(Svc.spanSink()->size(), 0u);
}

TEST(PipeTraceTest, DisabledTracingRegistersNothing) {
  DetectionService Svc;
  EXPECT_FALSE(Svc.pipeTracingEnabled());
  EXPECT_EQ(Svc.spanSink(), nullptr);
}

//===----------------------------------------------------------------------===//
// SnapshotProducer: the delta ring behind /metrics/history
//===----------------------------------------------------------------------===//

TEST(SnapshotProducerTest, FirstSamplePrimesAndDeltasIsolateTheInterval) {
  Telemetry Tel(TelemetryLevel::Full);
  uint64_t Frames = 0;
  Histogram &H = Tel.histogram("lat");
  SnapshotProducer::Config PC;
  PC.Source = "unit";
  PC.HistoryCapacity = 3;
  SnapshotProducer P(PC, [&] {
    TelemetrySnapshot S = Tel.snapshot();
    S.addCounter("frames", Frames);
    return S;
  });

  // History before the interval: large values that a *cumulative* quantile
  // would leak into the next window.
  Frames += 50;
  for (int I = 0; I != 100; ++I)
    H.record(1u << 20); // ~1ms
  P.sample(1000000000ull); // primes the baseline only
  EXPECT_EQ(P.historySize(), 0u);

  // The interval under test: 100 counts in 2s, latencies around 1us.
  Frames += 100;
  for (int I = 0; I != 1000; ++I)
    H.record(1000);
  P.sample(3000000000ull);
  ASSERT_EQ(P.historySize(), 1u);

  std::string Doc = P.historyJson();
  EXPECT_NE(Doc.find("\"schema\":\"gold-timeseries-v1\""), std::string::npos)
      << Doc;
  EXPECT_NE(Doc.find("\"source\":\"unit\""), std::string::npos);
  EXPECT_NE(Doc.find("\"dt_secs\":2"), std::string::npos) << Doc;
  // 100 new counts over 2s = 50/s, and the delta quantiles reflect the
  // 1000ns interval population, NOT the megasecond history before it.
  EXPECT_NE(Doc.find("\"frames\":50"), std::string::npos) << Doc;
  size_t LatAt = Doc.find("\"lat\":{");
  ASSERT_NE(LatAt, std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"count\":1000", LatAt), std::string::npos) << Doc;
  // 1000ns lands in bucket [512, 1023]: p50 == p99 == 1023.
  EXPECT_NE(Doc.find("\"p50\":1023", LatAt), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"p99\":1023", LatAt), std::string::npos) << Doc;
}

TEST(SnapshotProducerTest, RingForgetsOldestAndCountsIt) {
  Telemetry Tel(TelemetryLevel::Full);
  uint64_t N = 0;
  SnapshotProducer::Config PC;
  PC.HistoryCapacity = 3;
  SnapshotProducer P(PC, [&] {
    TelemetrySnapshot S = Tel.snapshot();
    S.addCounter("n", N);
    return S;
  });
  for (uint64_t T = 1; T != 8; ++T) {
    N += T;
    P.sample(T * 1000000000ull);
  }
  // 7 samples: 1 primes, 6 deltas, ring keeps 3, forgets 3.
  EXPECT_EQ(P.historySize(), 3u);
  std::string Doc = P.historyJson();
  EXPECT_NE(Doc.find("\"forgotten\":3"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"capacity\":3"), std::string::npos) << Doc;
  // The retained samples are the newest: rates 5/s, 6/s, 7/s over 1s each.
  EXPECT_NE(Doc.find("\"n\":5"), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"n\":7"), std::string::npos) << Doc;
  EXPECT_EQ(Doc.find("\"n\":2,"), std::string::npos) << Doc;
}

TEST(SnapshotProducerTest, DeltaBucketQuantileBoundsAndOrder) {
  // Direct unit check of the quantile the history ring serves.
  std::vector<std::pair<unsigned, uint64_t>> B = {{4, 90}, {10, 10}};
  EXPECT_EQ(deltaBucketQuantile(B, 100, 0.50), Histogram::bucketHi(4));
  EXPECT_EQ(deltaBucketQuantile(B, 100, 0.99), Histogram::bucketHi(10));
  EXPECT_EQ(deltaBucketQuantile(B, 0, 0.99), 0u);
  EXPECT_EQ(deltaBucketQuantile({}, 5, 0.5), 0u);
  // p50 <= p99 on any shape: cumulative thresholds are monotonic in q.
  for (double Q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_LE(deltaBucketQuantile(B, 100, Q),
              deltaBucketQuantile(B, 100, 0.999));
}
