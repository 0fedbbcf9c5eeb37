//===- support/Random.h - Deterministic pseudo-random numbers --*- C++ -*-===//
///
/// \file
/// A small, fast, deterministic PRNG (splitmix64 seeded xoshiro256**) used by
/// trace generators, property tests and workloads. std::mt19937 is avoided so
/// that sequences are stable across standard library implementations.
///
/// Also home to mix64, the one integer mixing function of the system.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SUPPORT_RANDOM_H
#define GOLD_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace gold {

/// The splitmix64 finalizer: every output bit depends on every input bit.
/// The one integer mix of the system: variable hashing, the service's shard
/// routing, the engine's variable index, failpoint decisions, backoff
/// jitter, trace sampling and Random's seeding all use it.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// One step of the splitmix64 generator over \p State: returns mix64 of the
/// current state and advances it by the golden-ratio increment.
inline uint64_t splitmix64(uint64_t &State) {
  uint64_t Out = mix64(State);
  State += 0x9e3779b97f4a7c15ULL;
  return Out;
}

/// Deterministic 64-bit PRNG with a tiny state.
class Random {
public:
  explicit Random(uint64_t Seed = 0x9e3779b97f4a7c15ULL) { reseed(Seed); }

  /// Re-initializes the generator from \p Seed via splitmix64 so that nearby
  /// seeds produce unrelated streams.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit value.
  uint64_t next();

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow requires a nonzero bound");
    // Lemire-style multiply-shift rejection-free mapping (bias is negligible
    // for the bounds used in this project).
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

  /// Returns a uniform value in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Returns true with probability \p Num / \p Den.
  bool chance(uint64_t Num, uint64_t Den) { return nextBelow(Den) < Num; }

  /// Returns a double uniform in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

private:
  uint64_t State[4];
};

} // namespace gold

#endif // GOLD_SUPPORT_RANDOM_H
