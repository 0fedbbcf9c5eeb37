//===- service/Snapshots.h - Health/metrics document rendering --*- C++ -*-===//
///
/// \file
/// One renderer for every place a service snapshot escapes the process: the
/// exit-time --health-json/--metrics-json artifacts, the periodic
/// --metrics-interval-ms emitter, and the socket front end's GET /healthz
/// and GET /metrics scrape endpoint. A single producer guarantees the
/// documents are the same gold-health-v1 / gold-metrics-v1 schemas no
/// matter which path served them, so dashboards and the CI schema checker
/// never care whether a snapshot came from a file or a scrape.
///
/// A document is composed from the service's own health/telemetry plus one
/// section per live front end (FrontEndSection: the TCP server's "net",
/// the shm server's "shm"). A host running both front ends over one
/// service therefore renders one document carrying both sections, on every
/// path.
///
/// SnapshotProducer additionally keeps the live time-series history
/// (gold-timeseries-v1, served at GET /metrics/history): a bounded ring of
/// per-interval *delta* samples — counter rates, gauge absolutes, and
/// interval histogram p50/p99 from bucket-count deltas — so an operator
/// (or tools/goldilocks-top) can watch an overload episode develop instead
/// of diffing exit artifacts. The interval emitter and the history ring
/// deliberately share this one producer so the two render paths can never
/// drift.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_SNAPSHOTS_H
#define GOLD_SERVICE_SNAPSHOTS_H

#include "service/Service.h"
#include "support/Failpoints.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gold {

/// One front end's part of the service documents: its counters (and
/// histograms) in the metrics snapshot, and its object in the health
/// document. Implementations read only atomics, so any thread may render.
class FrontEndSection {
public:
  virtual void addMetrics(TelemetrySnapshot &Snap) const = 0;
  virtual void addHealth(JsonWriter &J) const = 0;

protected:
  ~FrontEndSection() = default;
};

using FrontEnds = std::vector<const FrontEndSection *>;

/// Service telemetry plus every front end's counter section, plus
/// `failpoint.<site>.evals`/`.fires` for every armed failpoint, so an
/// artifact or a scrape shows how much chaos a run actually got.
inline TelemetrySnapshot composeMetrics(const DetectionService &Svc,
                                        const FrontEnds &Fronts) {
  TelemetrySnapshot Snap = Svc.telemetry();
  for (const FrontEndSection *F : Fronts)
    F->addMetrics(Snap);
  if (Failpoints::armed()) {
    const Failpoints &FP = Failpoints::instance();
    for (unsigned I = 0; I != NumFailpoints; ++I) {
      Failpoint F = static_cast<Failpoint>(I);
      if (!FP.ratePpm(F))
        continue;
      std::string Site = std::string("failpoint.") + failpointName(F);
      Snap.addCounter(Site + ".evals", FP.evaluations(F));
      Snap.addCounter(Site + ".fires", FP.fires(F));
    }
  }
  return Snap;
}

/// Complete gold-health-v1 document: service health plus every front end's
/// section.
inline std::string composeHealthJson(const DetectionService &Svc,
                                     const char *Source, bool Interrupted,
                                     const FrontEnds &Fronts) {
  JsonWriter J;
  J.beginObject();
  J.kv("schema", "gold-health-v1");
  J.kv("source", Source);
  J.kv("interrupted", Interrupted);
  Svc.health().jsonBody(J);
  for (const FrontEndSection *F : Fronts)
    F->addHealth(J);
  J.endObject();
  return J.str();
}

/// Complete gold-metrics-v1 document for one telemetry snapshot.
inline std::string renderMetricsJson(const TelemetrySnapshot &Snap,
                                     const char *Source) {
  return Snap.json(Source);
}

/// Quantile over a *delta* histogram (per-bucket count differences between
/// two snapshots): the inclusive upper bound of the first bucket whose
/// cumulative count reaches q of the interval total. Log2 buckets cap the
/// relative error at 2x — the right trade for a live dashboard.
inline uint64_t
deltaBucketQuantile(const std::vector<std::pair<unsigned, uint64_t>> &Buckets,
                    uint64_t Total, double Q) {
  if (!Total)
    return 0;
  uint64_t Need = static_cast<uint64_t>(Q * double(Total));
  if (Need < 1)
    Need = 1;
  uint64_t Cum = 0;
  for (const auto &B : Buckets) {
    Cum += B.second;
    if (Cum >= Need)
      return Histogram::bucketHi(B.first);
  }
  return Buckets.empty() ? 0 : Histogram::bucketHi(Buckets.back().first);
}

/// The single snapshot producer behind every live render path: the scrape
/// port's /healthz, /metrics and /metrics/history, the
/// --metrics-interval-ms emitter, and the exit artifacts all pull from the
/// \p Metrics and \p Health callbacks installed here. sample() is called
/// on the emitter's period (or by tests); the render calls may run
/// concurrently from the serving thread.
class SnapshotProducer {
public:
  struct Config {
    std::string Source = "goldilocks-serve";
    /// Retained delta samples; the ring forgets the oldest beyond this.
    size_t HistoryCapacity = 512;
    /// Display hint only (the dashboard's poll period); sampling cadence is
    /// whoever calls sample().
    uint64_t IntervalHintMillis = 1000;
  };

  /// \p Health renders the gold-health-v1 document; a producer without one
  /// serves metrics and history only and must not be asked for health.
  SnapshotProducer(
      Config C, std::function<TelemetrySnapshot()> Metrics,
      std::function<std::string(bool Interrupted)> Health = nullptr)
      : Cfg(std::move(C)), Metrics(std::move(Metrics)),
        Health(std::move(Health)) {}

  const std::string &source() const { return Cfg.Source; }

  /// The gold-metrics-v1 document every render path shares.
  std::string metricsJson() const {
    return renderMetricsJson(Metrics(), Cfg.Source.c_str());
  }

  /// The gold-health-v1 document every render path shares.
  std::string healthJson(bool Interrupted) const {
    return Health(Interrupted);
  }

  /// Takes one snapshot and appends the delta against the previous one to
  /// the history ring. The first call only primes the baseline.
  void sample(uint64_t NowNanos) {
    TelemetrySnapshot Cur = Metrics();
    std::lock_guard<std::mutex> G(Mu);
    if (HavePrev && NowNanos > PrevNanos) {
      Sample S;
      S.UnixMillis = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      S.DtSecs = double(NowNanos - PrevNanos) / 1e9;
      std::map<std::string, uint64_t> PrevC(Prev.Counters.begin(),
                                            Prev.Counters.end());
      for (const auto &C : Cur.Counters) {
        auto It = PrevC.find(C.first);
        uint64_t Was = It == PrevC.end() ? 0 : It->second;
        uint64_t D = C.second >= Was ? C.second - Was : 0;
        S.Rates.emplace_back(C.first, double(D) / S.DtSecs);
      }
      S.Gauges = Cur.Gauges;
      std::map<std::string, const HistogramSnapshot *> PrevH;
      for (const auto &H : Prev.Histograms)
        PrevH[H.Name] = &H;
      for (const auto &H : Cur.Histograms) {
        std::vector<std::pair<unsigned, uint64_t>> Delta = H.Buckets;
        uint64_t Count = H.Count;
        auto It = PrevH.find(H.Name);
        if (It != PrevH.end()) {
          std::map<unsigned, uint64_t> Was(It->second->Buckets.begin(),
                                           It->second->Buckets.end());
          for (auto &B : Delta) {
            auto W = Was.find(B.first);
            if (W != Was.end())
              B.second = B.second >= W->second ? B.second - W->second : 0;
          }
          Count = Count >= It->second->Count ? Count - It->second->Count : 0;
        }
        HistQ Q;
        Q.Name = H.Name;
        Q.Count = Count;
        Q.P50 = deltaBucketQuantile(Delta, Count, 0.50);
        Q.P99 = deltaBucketQuantile(Delta, Count, 0.99);
        S.Hist.push_back(std::move(Q));
      }
      History.push_back(std::move(S));
      while (History.size() > Cfg.HistoryCapacity) {
        History.pop_front();
        ++Forgotten;
      }
    }
    Prev = std::move(Cur);
    PrevNanos = NowNanos;
    HavePrev = true;
  }

  size_t historySize() const {
    std::lock_guard<std::mutex> G(Mu);
    return History.size();
  }

  /// Complete gold-timeseries-v1 document: the retained delta samples,
  /// oldest first.
  std::string historyJson() const {
    std::lock_guard<std::mutex> G(Mu);
    JsonWriter J;
    J.beginObject();
    J.kv("schema", "gold-timeseries-v1");
    J.kv("source", Cfg.Source.c_str());
    J.kv("interval_hint_ms", Cfg.IntervalHintMillis);
    J.kv("capacity", static_cast<uint64_t>(Cfg.HistoryCapacity));
    J.kv("forgotten", Forgotten);
    J.key("samples");
    J.beginArray();
    for (const auto &S : History) {
      J.beginObject();
      J.kv("t_unix_ms", S.UnixMillis);
      J.kv("dt_secs", S.DtSecs);
      J.key("rates");
      J.beginObject();
      for (const auto &R : S.Rates)
        J.kv(R.first.c_str(), R.second);
      J.endObject();
      J.key("gauges");
      J.beginObject();
      for (const auto &G2 : S.Gauges)
        J.kv(G2.first.c_str(), G2.second);
      J.endObject();
      J.key("histograms");
      J.beginObject();
      for (const auto &H : S.Hist) {
        J.key(H.Name.c_str());
        J.beginObject();
        J.kv("count", H.Count);
        J.kv("p50", H.P50);
        J.kv("p99", H.P99);
        J.endObject();
      }
      J.endObject();
      J.endObject();
    }
    J.endArray();
    J.endObject();
    return J.str();
  }

private:
  struct HistQ {
    std::string Name;
    uint64_t Count = 0;
    uint64_t P50 = 0;
    uint64_t P99 = 0;
  };
  struct Sample {
    uint64_t UnixMillis = 0;
    double DtSecs = 0;
    std::vector<std::pair<std::string, double>> Rates;
    std::vector<std::pair<std::string, int64_t>> Gauges;
    std::vector<HistQ> Hist;
  };

  const Config Cfg;
  const std::function<TelemetrySnapshot()> Metrics;
  const std::function<std::string(bool)> Health;
  mutable std::mutex Mu;
  bool HavePrev = false;
  uint64_t PrevNanos = 0;
  TelemetrySnapshot Prev;
  std::deque<Sample> History;
  uint64_t Forgotten = 0;
};

} // namespace gold

#endif // GOLD_SERVICE_SNAPSHOTS_H
