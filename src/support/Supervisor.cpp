//===- support/Supervisor.cpp ---------------------------------------------===//

#include "support/Supervisor.h"

#include <chrono>
#include <cstdio>

using namespace gold;

const char *gold::supervisionCauseName(SupervisionCause C) {
  switch (C) {
  case SupervisionCause::WatchdogStart:
    return "watchdog-start";
  case SupervisionCause::WatchdogStop:
    return "watchdog-stop";
  case SupervisionCause::GraceStall:
    return "grace-stall";
  case SupervisionCause::AppendStorm:
    return "append-storm";
  case SupervisionCause::Escalation:
    return "escalation";
  case SupervisionCause::SlotsReclaimed:
    return "slots-reclaimed";
  case SupervisionCause::StallDump:
    return "stall-dump";
  }
  return "?";
}

std::string SupervisionEvent::str() const {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "[%10.6fs] %-15s rung=%u delta=%llu ",
                static_cast<double>(MonotonicNanos) * 1e-9,
                supervisionCauseName(Cause), Rung,
                static_cast<unsigned long long>(Delta));
  return Buf + Snapshot.str();
}

//===----------------------------------------------------------------------===//
// Supervisor
//===----------------------------------------------------------------------===//

Supervisor::Supervisor(SupervisedEngine T, SupervisorConfig C)
    : Target(std::move(T)), Cfg(C), Ring(C.RingCapacity) {}

Supervisor::~Supervisor() { stop(); }

void Supervisor::record(SupervisionCause Cause, unsigned Rung, uint64_t Delta,
                        const EngineHealth &H) {
  SupervisionEvent E;
  E.MonotonicNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  E.Cause = Cause;
  E.Rung = Rung;
  E.Delta = Delta;
  E.Snapshot = H;
  Ring.push(std::move(E));
}

void Supervisor::poll() {
  std::lock_guard<std::mutex> L(PollMu);
  if (!Target.Sample)
    return;
  EngineHealth H = Target.Sample();
  Samples.fetch_add(1, std::memory_order_relaxed);
  if (!HavePrev) {
    Prev = H;
    HavePrev = true;
    return;
  }
  uint64_t DStalls = H.Stalls - Prev.Stalls;
  uint64_t DRetries = H.AppendRetries - Prev.AppendRetries;
  Prev = H;

  if (DStalls > 0) {
    record(SupervisionCause::GraceStall, 0, DStalls, H);
    // Capture a DumpTelemetry() post-mortem on the first grace stall of
    // each stall episode (a clean sample re-arms it), before reacting:
    // reclamation and escalation mutate the very state the dump is meant
    // to explain.
    if (DumpArmed && Target.DumpTelemetry) {
      std::string Dump = Target.DumpTelemetry();
      {
        std::lock_guard<std::mutex> DL(DumpMu);
        LastStallDump = std::move(Dump);
      }
      StallDumps.fetch_add(1, std::memory_order_relaxed);
      DumpArmed = false;
      record(SupervisionCause::StallDump, 0, DStalls, H);
    }
    // An exited reader is the most likely cause of a stalled grace
    // period; recycling its slot lets the next grace complete.
    if (Target.ReclaimDeadSlots)
      if (size_t N = Target.ReclaimDeadSlots())
        record(SupervisionCause::SlotsReclaimed, 0, N, H);
    if (++ConsecutiveStalls >= Cfg.StallEscalationThreshold &&
        Target.Escalate) {
      unsigned Rung = NextRung;
      Target.Escalate(Rung);
      Escalations.fetch_add(1, std::memory_order_relaxed);
      record(SupervisionCause::Escalation, Rung, DStalls, H);
      NextRung = Rung < 3 ? Rung + 1 : 3;
      ConsecutiveStalls = 0;
    }
  } else {
    // A clean sample: the stall resolved, restart the progression and
    // re-arm the dump for the next episode.
    ConsecutiveStalls = 0;
    NextRung = 1;
    DumpArmed = true;
  }

  if (Cfg.AppendStormThreshold && DRetries >= Cfg.AppendStormThreshold)
    record(SupervisionCause::AppendStorm, 0, DRetries, H);
}

void Supervisor::loop() {
  std::unique_lock<std::mutex> L(WakeMu);
  while (!StopFlag.load(std::memory_order_relaxed)) {
    Wake.wait_for(L, std::chrono::milliseconds(Cfg.SamplePeriodMillis), [&] {
      return StopFlag.load(std::memory_order_relaxed);
    });
    if (StopFlag.load(std::memory_order_relaxed))
      break;
    L.unlock();
    poll();
    L.lock();
  }
}

void Supervisor::start() {
  std::lock_guard<std::mutex> L(LifecycleMu);
  if (Watchdog.joinable())
    return;
  StopFlag.store(false, std::memory_order_relaxed);
  if (Target.Sample)
    record(SupervisionCause::WatchdogStart, 0, 0, Target.Sample());
  Watchdog = std::thread([this] { loop(); });
}

void Supervisor::stop() {
  std::lock_guard<std::mutex> L(LifecycleMu);
  if (!Watchdog.joinable())
    return;
  {
    std::lock_guard<std::mutex> WL(WakeMu);
    StopFlag.store(true, std::memory_order_relaxed);
  }
  Wake.notify_all();
  Watchdog.join();
  if (Target.Sample)
    record(SupervisionCause::WatchdogStop, 0, 0, Target.Sample());
}

bool Supervisor::running() const {
  std::lock_guard<std::mutex> L(LifecycleMu);
  return Watchdog.joinable();
}

std::string Supervisor::lastStallDump() const {
  std::lock_guard<std::mutex> L(DumpMu);
  return LastStallDump;
}
