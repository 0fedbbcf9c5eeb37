//===- support/Failpoints.cpp ---------------------------------------------===//

#include "support/Failpoints.h"
#include "support/Random.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace gold;

std::atomic<bool> Failpoints::Armed{false};

const char *gold::failpointName(Failpoint F) {
  switch (F) {
  case Failpoint::EngineCellAlloc:
    return "engine-cell-alloc";
  case Failpoint::EngineInfoAlloc:
    return "engine-info-alloc";
  case Failpoint::EngineGcStall:
    return "engine-gc-stall";
  case Failpoint::EngineReaderPark:
    return "engine-reader-park";
  case Failpoint::EngineRetainStall:
    return "engine-retain-stall";
  case Failpoint::EngineDeregisterDrop:
    return "engine-deregister-drop";
  case Failpoint::EnginePublishStall:
    return "engine-publish-stall";
  case Failpoint::StmLockConflict:
    return "stm-lock-conflict";
  case Failpoint::StmLockDelay:
    return "stm-lock-delay";
  case Failpoint::VmPreempt:
    return "vm-preempt";
  case Failpoint::ServiceIngestStall:
    return "service-ingest-stall";
  case Failpoint::ServiceClientHang:
    return "service-client-hang";
  case Failpoint::ServiceShardWedge:
    return "service-shard-wedge";
  case Failpoint::NetAcceptFail:
    return "net-accept-fail";
  case Failpoint::NetPartialRead:
    return "net-partial-read";
  case Failpoint::NetWriteStall:
    return "net-write-stall";
  case Failpoint::NetConnHang:
    return "net-conn-hang";
  case Failpoint::NetClientDrop:
    return "net-client-drop";
  case Failpoint::ShmProducerStall:
    return "shm-producer-stall";
  case Failpoint::ShmSlotCorrupt:
    return "shm-slot-corrupt";
  case Failpoint::Count_:
    break;
  }
  return "?";
}

bool gold::parseFailpointArg(const char *Arg, FailpointConfig &FC) {
  const char *Eq = std::strchr(Arg, '=');
  if (!Eq || Eq == Arg)
    return false;
  std::string Name(Arg, static_cast<size_t>(Eq - Arg));
  char *End = nullptr;
  unsigned long Ppm = std::strtoul(Eq + 1, &End, 10);
  if (End == Eq + 1 || *End || Ppm > 1000000)
    return false;
  for (unsigned I = 0; I != NumFailpoints; ++I) {
    Failpoint F = static_cast<Failpoint>(I);
    if (Name == failpointName(F)) {
      FC.rate(F, static_cast<uint32_t>(Ppm));
      return true;
    }
  }
  return false;
}

Failpoints &Failpoints::instance() {
  static Failpoints Singleton;
  return Singleton;
}

void Failpoints::arm(const FailpointConfig &C) {
  assert(!armed() && "failpoints armed twice (missing disarm?)");
  Cfg = C;
  resetCounters();
  Armed.store(true, std::memory_order_release);
}

void Failpoints::disarm() { Armed.store(false, std::memory_order_release); }

void Failpoints::resetCounters() {
  for (Site &S : Sites) {
    S.Evals.store(0, std::memory_order_relaxed);
    S.Fires.store(0, std::memory_order_relaxed);
  }
}

bool Failpoints::evaluate(Failpoint F) {
  unsigned I = static_cast<unsigned>(F);
  assert(I < NumFailpoints && "invalid failpoint");
  uint32_t Rate = Cfg.RatePpm[I];
  Site &S = Sites[I];
  uint64_t N = S.Evals.fetch_add(1, std::memory_order_relaxed);
  if (Rate == 0)
    return false;
  // The inner mix turns (seed, site) into a stream key; the outer one draws
  // the counter's decision from that stream. A single mix64(Seed ^ Site ^
  // N) would only XOR-permute the counter, so every seed fired at nearly
  // the same evaluations.
  uint64_t Stream = mix64(Cfg.Seed ^ (0x517cc1b727220a95ULL * (I + 1)));
  uint64_t H = mix64(Stream ^ N);
  if (H % 1000000u >= Rate)
    return false;
  S.Fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Failpoints::maybeStall(Failpoint F) {
  if (!evaluate(F))
    return false;
  std::this_thread::sleep_for(std::chrono::microseconds(Cfg.StallMicros));
  return true;
}

uint64_t Failpoints::evaluations(Failpoint F) const {
  return Sites[static_cast<unsigned>(F)].Evals.load(std::memory_order_relaxed);
}

uint64_t Failpoints::fires(Failpoint F) const {
  return Sites[static_cast<unsigned>(F)].Fires.load(std::memory_order_relaxed);
}
