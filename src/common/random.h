// Deterministic pseudo-random number generation (xoshiro256** + SplitMix64).
//
// Every stochastic choice in the simulator — mining inter-arrival times,
// network jitter, failure injection, workload generation — draws from an Rng
// seeded explicitly by the experiment, so runs are reproducible bit-for-bit.
// std::mt19937 is avoided because its distributions are not stable across
// standard-library implementations.

#ifndef AC3_COMMON_RANDOM_H_
#define AC3_COMMON_RANDOM_H_

#include <cstdint>

#include "src/common/bytes.h"

namespace ac3 {

/// xoshiro256** generator. Small, fast, and good enough statistical quality
/// for simulation workloads (NOT for key generation in a real deployment;
/// see the SECURITY NOTE in src/crypto/primes.h on toy crypto parameters).
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, bound) using rejection sampling (unbiased). bound > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Exponentially distributed sample with the given mean (> 0). Used for
  /// Poisson-process mining inter-arrival times.
  double NextExponential(double mean);

  /// Bernoulli trial with probability p in [0, 1].
  bool NextBool(double p);

  /// Fills `n` random bytes.
  Bytes NextBytes(size_t n);

  /// Derives an independent child generator; stream-splits so that
  /// subsystems (per-chain miners, per-node jitter) do not share state.
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// SplitMix64 step; also used standalone to derive deterministic per-entity
/// values (e.g. per-(block, node) propagation delays) from hashes.
uint64_t SplitMix64(uint64_t* state);

}  // namespace ac3

#endif  // AC3_COMMON_RANDOM_H_
