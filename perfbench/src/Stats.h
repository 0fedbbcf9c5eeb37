//===- perfbench/src/Stats.h - Quantiles and open-loop accounting -*- C++ -*-===//
///
/// \file
/// The benchmark's own measurement helpers, kept free of any dependency on
/// the system under test so the self-test can check them in isolation:
///
///  * quantileOf() — exact nearest-rank quantile over raw samples, used for
///    every small population (program runs, sessions, set-ups).
///  * LatencyHist — log-linear histogram for large populations (per-action
///    latencies). Every value >= 128 lands in a bucket whose width is at
///    most 1/128 of its lower edge, and quantiles report the bucket
///    midpoint, so a quantile is within 0.4% of some sample at the exact
///    rank. Values below 128 are exact.
///  * OpenLoopSchedule / LatenessAccount — the open-loop generator's due
///    times and how late it actually sent. Latency is always timed from the
///    due time, so a stall of the generator or the system is charged to
///    every request it delayed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

/// Nearest-rank quantile: the smallest sample with at least ceil(Q * N)
/// samples at or below it. \p Q is clamped to [0, 1]; 0 for an empty set.
inline double quantileOf(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  size_t Idx = Rank ? Rank - 1 : 0;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(Idx),
                   V.end());
  return V[Idx];
}

inline double medianOf(std::vector<double> V) {
  return quantileOf(std::move(V), 0.5);
}

/// Log-linear histogram of non-negative integer samples (nanoseconds here).
class LatencyHist {
public:
  static constexpr unsigned SubBits = 7;
  static constexpr uint64_t Sub = 1ull << SubBits; // 128 sub-buckets
  static constexpr unsigned NumBuckets = Sub + (64 - SubBits) * Sub;

  LatencyHist() : Counts(NumBuckets, 0) {}

  void record(uint64_t V) {
    ++Counts[bucketOf(V)];
    ++N;
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }

  void merge(const LatencyHist &O) {
    for (unsigned I = 0; I != NumBuckets; ++I)
      Counts[I] += O.Counts[I];
    N += O.N;
    Min = std::min(Min, O.Min);
    Max = std::max(Max, O.Max);
  }

  uint64_t count() const { return N; }

  /// Nearest-rank quantile, reported as the covering bucket's midpoint
  /// clamped to the observed range.
  double quantile(double Q) const {
    if (!N)
      return 0;
    Q = std::clamp(Q, 0.0, 1.0);
    uint64_t Rank = static_cast<uint64_t>(std::ceil(Q * double(N)));
    if (!Rank)
      Rank = 1;
    uint64_t Cum = 0;
    for (unsigned B = 0; B != NumBuckets; ++B) {
      Cum += Counts[B];
      if (Cum >= Rank) {
        double Mid = (double(lowerEdge(B)) + double(upperEdge(B))) / 2;
        return std::clamp(Mid, double(Min), double(Max));
      }
    }
    return double(Max);
  }

  static unsigned bucketOf(uint64_t V) {
    if (V < Sub)
      return static_cast<unsigned>(V);
    unsigned E = 63 - static_cast<unsigned>(__builtin_clzll(V)); // >= SubBits
    uint64_t Mantissa = (V >> (E - SubBits)) & (Sub - 1);
    return static_cast<unsigned>(Sub + (E - SubBits) * Sub + Mantissa);
  }
  static uint64_t lowerEdge(unsigned B) {
    if (B < Sub)
      return B;
    unsigned E = (B - Sub) / Sub + SubBits;
    uint64_t Mantissa = (B - Sub) % Sub;
    return (1ull << E) + (Mantissa << (E - SubBits));
  }
  /// Inclusive upper edge.
  static uint64_t upperEdge(unsigned B) {
    if (B < Sub)
      return B;
    unsigned E = (B - Sub) / Sub + SubBits;
    return lowerEdge(B) + (1ull << (E - SubBits)) - 1;
  }

private:
  std::vector<uint64_t> Counts;
  uint64_t N = 0, Min = UINT64_MAX, Max = 0;
};

/// Fixed-rate open-loop schedule: request J is due at Start + J * Gap.
struct OpenLoopSchedule {
  uint64_t StartNs = 0;
  uint64_t GapNs = 1;
  uint64_t due(uint64_t J) const { return StartNs + J * GapNs; }
};

/// Nanoseconds from a request's due time to \p NowNs (0 if not yet due).
inline uint64_t sinceDue(uint64_t DueNs, uint64_t NowNs) {
  return NowNs > DueNs ? NowNs - DueNs : 0;
}

/// How late the generator sent: lateness = send time - due time. A request
/// counts as late when it left a whole inter-arrival gap or more after its
/// due time, i.e. when the generator was no longer keeping its schedule.
class LatenessAccount {
public:
  explicit LatenessAccount(uint64_t GapNs = 1) : GapNs(GapNs) {}

  void sent(uint64_t DueNs, uint64_t SentNs) {
    uint64_t L = sinceDue(DueNs, SentNs);
    Hist.record(L);
    if (L >= GapNs)
      ++Late;
  }
  void merge(const LatenessAccount &O) {
    Hist.merge(O.Hist);
    Late += O.Late;
  }

  uint64_t count() const { return Hist.count(); }
  uint64_t lateCount() const { return Late; }
  double lateFrac() const {
    return Hist.count() ? double(Late) / double(Hist.count()) : 0;
  }
  const LatencyHist &hist() const { return Hist; }

private:
  uint64_t GapNs;
  LatencyHist Hist;
  uint64_t Late = 0;
};

} // namespace pb

#endif // PERFBENCH_STATS_H
