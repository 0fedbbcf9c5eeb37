//===- service/Backoff.h - Jittered retry-after schedule --------*- C++ -*-===//
///
/// \file
/// The one backoff policy every backpressure surface shares. Three places
/// tell a producer "not now, come back later": the ingest ring (a full
/// shard queue), session admission (ladder pause / namespace exhaustion),
/// and the socket front end (wire-level `retry-after-ns` replies). They all
/// derive the wait from this single pure function so the schedule is
/// identical — and identically testable — everywhere. A client that honors
/// the hint therefore behaves the same whether it sits in-process behind a
/// Session or across a TCP connection behind the NetServer.
///
/// Attempt k waits roughly Base * 2^k, ±25% deterministic jitter derived
/// from (seed, attempt), capped at Max. The jitter is mix64 of the pair —
/// the system's one integer mix — so replays of a seeded run see the same
/// waits, while distinct producers (distinct seeds) decorrelate and do not
/// stampede the ring in lockstep. Every surface uses BackoffBaseNanos and
/// BackoffMaxNanos.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SERVICE_BACKOFF_H
#define GOLD_SERVICE_BACKOFF_H

#include "support/Random.h"

#include <cstdint>

namespace gold {

/// First retry-after hint a producer gets (attempt 0), before jitter.
inline constexpr uint64_t BackoffBaseNanos = 2000;
/// Ceiling of the schedule (10 ms): a producer is never told to wait longer.
inline constexpr uint64_t BackoffMaxNanos = 10000000;

/// Jittered exponential backoff schedule for producers that received
/// Backpressure: attempt k waits roughly Base * 2^k, ±25% deterministic
/// jitter derived from (seed, attempt), capped at Max. Pure function so the
/// soak tests can assert the schedule without sleeping.
inline uint64_t backoffNanos(uint64_t BaseNanos, unsigned Attempt,
                             uint64_t Seed, uint64_t MaxNanos) {
  unsigned Shift = Attempt < 16 ? Attempt : 16;
  uint64_t Wait = BaseNanos << Shift;
  if (!Wait || Wait > MaxNanos)
    Wait = MaxNanos;
  uint64_t X = mix64(Seed ^ (0x9e3779b97f4a7c15ULL * (Attempt + 1)));
  uint64_t Quarter = Wait / 4;
  if (Quarter)
    Wait = Wait - Quarter + (X % (2 * Quarter)); // Wait ± 25%
  return Wait;
}

/// Envelope of backoffNanos for a given attempt: [Lo, Hi] such that every
/// seed's wait falls inside it. Lets tests (and capacity planning) reason
/// about the schedule without enumerating seeds.
inline void backoffBoundsNanos(uint64_t BaseNanos, unsigned Attempt,
                               uint64_t MaxNanos, uint64_t &Lo,
                               uint64_t &Hi) {
  unsigned Shift = Attempt < 16 ? Attempt : 16;
  uint64_t Wait = BaseNanos << Shift;
  if (!Wait || Wait > MaxNanos)
    Wait = MaxNanos;
  uint64_t Quarter = Wait / 4;
  Lo = Wait - Quarter;
  Hi = Quarter ? Wait + Quarter - 1 : Wait;
}

} // namespace gold

#endif // GOLD_SERVICE_BACKOFF_H
