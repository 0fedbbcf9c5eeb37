//===- support/Random.cpp -------------------------------------------------===//

#include "support/Random.h"

using namespace gold;

void Random::reseed(uint64_t Seed) {
  for (auto &S : State)
    S = splitmix64(Seed);
  // Avoid the all-zero state, which xoshiro can never leave.
  if (!(State[0] | State[1] | State[2] | State[3]))
    State[0] = 1;
}

static inline uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

uint64_t Random::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}
