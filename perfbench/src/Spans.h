//===- perfbench/src/Spans.h - Bench-side layer spans -----------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder. Spans are recorded only from the
/// benchmark's own code, around each call it makes into a layer of the
/// system (the detector hooks, the VM, the client library, the transport
/// servers), so the untraced run executes none of this. Each boundary keeps
/// exact aggregates (calls, busy time, a latency histogram); individual
/// spans are kept in memory — every span of a coarse boundary, every 1024th
/// of a per-action one — in a gold::TraceEventSink and written out as a
/// Chrome trace at exit.
///
/// Threads aggregate into pooled per-thread buffers, so only a kept span
/// takes a lock; aggregate() and writeChromeTrace() must run once the
/// recording threads have been joined.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Stats.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace pb {

/// The layer boundaries the benchmark records. Keep BoundaryNames in sync.
enum class Bnd : unsigned {
  VmRun,          ///< Vm::run of one program (request root)
  VmThread,       ///< one guest thread's lifetime, fork/start to exit
  Access,         ///< RaceDetector::onRead/onWrite
  Sync,           ///< every other non-commit detector hook
  Commit,         ///< onCommitPoint + onCommitFinish
  Session,        ///< one service session, connect to verdicts (request root)
  ClientConnect,  ///< GoldClient::connect
  ClientPublish,  ///< GoldClient::publish
  ClientFlush,    ///< GoldClient::flush
  ClientClose,    ///< GoldClient::closeAndCollect
  NetPoll,        ///< NetServer::pollOnce
  ShmPoll,        ///< ShmServer::pollOnce
  Count_
};
constexpr unsigned NumBoundaries = static_cast<unsigned>(Bnd::Count_);
const char *boundaryName(Bnd B);

/// Exact aggregate of one boundary.
struct BoundaryAgg {
  uint64_t Calls = 0;
  uint64_t BusyNs = 0;
  LatencyHist Hist;
};

class Tracer {
public:
  static void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  static bool on() { return Enabled.load(std::memory_order_relaxed); }
  static uint64_t nowNs();
  /// A fresh span id (0 is "none").
  static uint64_t newId() {
    return NextId.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one call of boundary \p B. \p Req groups the spans of one
  /// request (a program run or a session) and is also the id of that
  /// request's root span; \p Parent is the span that caused this one
  /// (0 = root).
  static void record(Bnd B, uint64_t StartNs, uint64_t EndNs, uint64_t Req,
                     uint64_t Parent);

  /// Merged aggregate over every thread (call after joining recorders).
  static BoundaryAgg aggregate(Bnd B);

  /// Writes the kept spans as a Chrome trace-event document. Returns the
  /// number of spans written, or -1 on an I/O error; \p Dropped is set to
  /// the number of spans past the sink's bound.
  static long writeChromeTrace(const std::string &Path, uint64_t &Dropped);

private:
  static std::atomic<bool> Enabled;
  static std::atomic<uint64_t> NextId;
};

/// RAII span around one call; free when tracing is off.
class ScopedSpan {
public:
  ScopedSpan(Bnd B, uint64_t Req = 0, uint64_t Parent = 0)
      : B(B), Req(Req), Parent(Parent),
        Start(Tracer::on() ? Tracer::nowNs() : 0) {}
  ~ScopedSpan() {
    if (Start)
      Tracer::record(B, Start, Tracer::nowNs(), Req, Parent);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Bnd B;
  uint64_t Req, Parent;
  uint64_t Start;
};

} // namespace pb

#endif // PERFBENCH_SPANS_H
