//===- perfbench/src/Spans.cpp - Bench-side layer spans -------------------===//

#include "Spans.h"

#include "support/Telemetry.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

using namespace pb;

std::atomic<bool> Tracer::Enabled{false};
std::atomic<uint64_t> Tracer::NextId{1};

namespace {

const char *const BoundaryNames[NumBoundaries] = {
    "vm.run",         "vm.thread",      "goldilocks.access",
    "goldilocks.sync", "goldilocks.commit", "session",
    "client.connect", "client.publish", "client.flush",
    "client.close",   "net.poll",       "shm.poll",
};

/// Boundaries with one call per request or fewer keep every span; the
/// per-action ones keep every SampleEvery-th.
bool keepsAll(Bnd B) {
  switch (B) {
  case Bnd::VmRun:
  case Bnd::VmThread:
  case Bnd::Session:
  case Bnd::ClientConnect:
  case Bnd::ClientClose:
    return true;
  default:
    return false;
  }
}
constexpr uint64_t SampleEvery = 1024;

/// The kept spans. Bounded: spans past the bound are counted as dropped.
gold::TraceEventSink &sink() {
  static gold::TraceEventSink *S = new gold::TraceEventSink(1u << 18);
  return *S;
}

struct ThreadBuf {
  uint32_t Tid = 0;
  BoundaryAgg Agg[NumBoundaries];
  uint64_t Seen[NumBoundaries] = {};
};

/// Buffers outlive their threads: a thread returns its buffer to the free
/// list at exit, so a run that starts thousands of short-lived guest
/// threads reuses a handful of buffers. Never destroyed (process-lifetime
/// singleton; avoids static destruction order against thread_local exits).
struct Pool {
  std::mutex Mu;
  std::vector<std::unique_ptr<ThreadBuf>> All;
  std::vector<ThreadBuf *> Free;
};
Pool &pool() {
  static Pool *P = new Pool;
  return *P;
}

struct Lease {
  ThreadBuf *B = nullptr;
  ~Lease() {
    if (!B)
      return;
    Pool &P = pool();
    std::lock_guard<std::mutex> G(P.Mu);
    P.Free.push_back(B);
  }
};
thread_local Lease TheLease;

ThreadBuf &myBuf() {
  if (TheLease.B)
    return *TheLease.B;
  Pool &P = pool();
  std::lock_guard<std::mutex> G(P.Mu);
  if (!P.Free.empty()) {
    TheLease.B = P.Free.back();
    P.Free.pop_back();
  } else {
    P.All.push_back(std::make_unique<ThreadBuf>());
    P.All.back()->Tid = static_cast<uint32_t>(P.All.size());
    TheLease.B = P.All.back().get();
  }
  return *TheLease.B;
}

} // namespace

const char *pb::boundaryName(Bnd B) {
  return BoundaryNames[static_cast<unsigned>(B)];
}

uint64_t Tracer::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::record(Bnd B, uint64_t StartNs, uint64_t EndNs, uint64_t Req,
                    uint64_t Parent) {
  ThreadBuf &T = myBuf();
  unsigned I = static_cast<unsigned>(B);
  uint64_t Dur = EndNs > StartNs ? EndNs - StartNs : 0;
  BoundaryAgg &A = T.Agg[I];
  ++A.Calls;
  A.BusyNs += Dur;
  A.Hist.record(Dur);
  if (!keepsAll(B) && T.Seen[I]++ % SampleEvery != 0)
    return;
  // args.client carries the request id, args.seq the parent span's.
  sink().spanTagged(boundaryName(B), "perfbench", T.Tid, StartNs, Dur, Req,
                    Parent);
}

BoundaryAgg Tracer::aggregate(Bnd B) {
  Pool &P = pool();
  std::lock_guard<std::mutex> G(P.Mu);
  BoundaryAgg Out;
  unsigned I = static_cast<unsigned>(B);
  for (const auto &T : P.All) {
    Out.Calls += T->Agg[I].Calls;
    Out.BusyNs += T->Agg[I].BusyNs;
    Out.Hist.merge(T->Agg[I].Hist);
  }
  return Out;
}

long Tracer::writeChromeTrace(const std::string &Path, uint64_t &Dropped) {
  const gold::TraceEventSink &S = sink();
  Dropped = S.dropped();
  return S.writeFile(Path) ? static_cast<long>(S.size()) : -1;
}
