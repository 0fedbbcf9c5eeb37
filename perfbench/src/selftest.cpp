//===- perfbench/src/selftest.cpp - Checks of the benchmark's helpers ----===//
///
/// Run by `python3 perfbench/run.py --self-test`. Exits nonzero on the first
/// failed check. Covers the quantile helpers against a sorted-sample
/// reference and the open-loop lateness and due-time accounting.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"

#include <cmath>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

using namespace pb;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

/// Reference nearest-rank quantile on a fully sorted copy.
double sortedRef(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[Rank ? Rank - 1 : 0];
}

void testExactQuantile() {
  check(quantileOf({}, 0.5) == 0, "empty set");
  check(quantileOf({7}, 0.0) == 7 && quantileOf({7}, 1.0) == 7,
        "single sample");
  check(quantileOf({1, 2, 3, 4}, 0.5) == 2, "even-size median is rank 2");
  check(quantileOf({5, 1, 4, 2, 3}, 0.5) == 3, "odd-size median");
  check(quantileOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9) == 9, "p90 of 10");
  std::mt19937_64 Rng(42);
  std::lognormal_distribution<double> D(10, 1.5);
  for (size_t N : {1u, 2u, 3u, 17u, 100u, 1001u}) {
    std::vector<double> V(N);
    for (double &X : V)
      X = D(Rng);
    for (double Q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
      check(quantileOf(V, Q) == sortedRef(V, Q),
            "quantileOf matches the sorted reference");
  }
}

void testHistQuantile() {
  std::mt19937_64 Rng(7);
  std::lognormal_distribution<double> D(9, 2.0); // ~1 us .. ~1 s spread
  std::vector<double> V;
  LatencyHist H;
  for (int I = 0; I != 200000; ++I) {
    uint64_t X = static_cast<uint64_t>(D(Rng));
    V.push_back(double(X));
    H.record(X);
  }
  check(H.count() == V.size(), "hist counts every sample");
  for (double Q : {0.001, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    double Ref = sortedRef(V, Q), Got = H.quantile(Q);
    double Err = Ref > 0 ? std::fabs(Got - Ref) / Ref : std::fabs(Got - Ref);
    if (Err > 0.01)
      std::fprintf(stderr, "  q=%g ref=%g hist=%g err=%.4f\n", Q, Ref, Got,
                   Err);
    check(Err <= 0.01, "hist quantile within 1% of the sorted reference");
  }
  // Small values are exact; bucket edges tile the range without gaps.
  LatencyHist Small;
  for (uint64_t X = 0; X != 100; ++X)
    Small.record(X);
  check(Small.quantile(0.5) == 49, "values below 128 are exact");
  for (unsigned B = 1; B + 1 < LatencyHist::NumBuckets; ++B)
    if (LatencyHist::upperEdge(B) + 1 != LatencyHist::lowerEdge(B + 1)) {
      check(false, "bucket edges are contiguous");
      break;
    }
  for (uint64_t X : {127ull, 128ull, 129ull, 1000ull, 123456789ull,
                     (1ull << 40) + 12345})
    check(LatencyHist::lowerEdge(LatencyHist::bucketOf(X)) <= X &&
              X <= LatencyHist::upperEdge(LatencyHist::bucketOf(X)),
          "a value lies inside its bucket");
  // Merging two halves equals recording the whole.
  LatencyHist A, B;
  for (size_t I = 0; I != V.size(); ++I)
    (I % 2 ? A : B).record(static_cast<uint64_t>(V[I]));
  A.merge(B);
  check(A.quantile(0.99) == H.quantile(0.99) && A.count() == H.count(),
        "merge preserves quantiles");
}

void testOpenLoopAccounting() {
  // 10 us gap; the generator keeps time except for a 1 ms stall before
  // request 100, after which it sends the backlog at once.
  OpenLoopSchedule S{1000000, 10000};
  check(S.due(0) == 1000000 && S.due(3) == 1030000, "due times");
  LatenessAccount L(S.GapNs);
  const uint64_t StallEnd = S.due(100) + 1000000;
  for (uint64_t J = 0; J != 1000; ++J) {
    uint64_t Due = S.due(J);
    uint64_t Sent = J < 100 ? Due + 500 : std::max(Due, StallEnd);
    L.sent(Due, Sent);
  }
  // Requests 100..199 were sent at StallEnd; 100 of them a gap or more
  // late (request 200 is due exactly at StallEnd).
  check(L.count() == 1000, "every send counted");
  check(L.lateCount() == 100, "late requests are the stalled ones");
  check(std::fabs(L.lateFrac() - 0.1) < 1e-12, "late fraction");
  // p99 lateness: rank 990 of the sorted lateness — the 11th largest, which
  // is request 110's wait (StallEnd - due(110)) = 900 us.
  double P99 = L.hist().quantile(0.99);
  check(std::fabs(P99 - 900000) / 900000 <= 0.01, "p99 lateness");
  // Latency is timed from the due time, so the stall is charged to every
  // request it delayed even though each was acked right after sending.
  LatencyHist Ack;
  for (uint64_t J = 0; J != 1000; ++J) {
    uint64_t Due = S.due(J);
    uint64_t Sent = J < 100 ? Due + 500 : std::max(Due, StallEnd);
    Ack.record(sinceDue(Due, Sent + 2000));
  }
  check(std::fabs(Ack.quantile(0.5) - 2000) / 2000 <= 0.01,
        "median ack = service time");
  check(std::fabs(Ack.quantile(0.99) - 902000) / 902000 <= 0.01,
        "tail ack includes the generator stall");
  check(sinceDue(100, 50) == 0, "sent early counts as on time");
}

void testSpans() {
  Tracer::enable(true);
  std::thread T([] {
    for (int I = 0; I != 3000; ++I)
      Tracer::record(Bnd::Access, 100, 150, 1, 1);
  });
  T.join();
  { ScopedSpan S(Bnd::VmRun, 1, 0); }
  BoundaryAgg A = Tracer::aggregate(Bnd::Access);
  check(A.Calls == 3000 && A.BusyNs == 150000, "aggregate of a joined thread");
  check(Tracer::aggregate(Bnd::VmRun).Calls == 1, "scoped span recorded");
  Tracer::enable(false);
  { ScopedSpan S(Bnd::VmRun); }
  check(Tracer::aggregate(Bnd::VmRun).Calls == 1, "off records nothing");
}

} // namespace

int main() {
  testExactQuantile();
  testHistQuantile();
  testOpenLoopAccounting();
  testSpans();
  if (Failures) {
    std::fprintf(stderr, "%d self-test check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
