// Deterministic pseudo-random number generation.
//
// Every randomized component in rl0 takes an explicit 64-bit seed so runs
// are reproducible. SplitMix64 is used for seeding / integer mixing;
// Xoshiro256++ is the general-purpose generator for sampling decisions
// (query-time subsampling, reservoir updates, dataset synthesis).
// Neither is cryptographic; both are standard choices for simulation.

#ifndef RL0_UTIL_RNG_H_
#define RL0_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <limits>

namespace rl0 {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Good avalanche;
/// used to derive independent sub-seeds and to mix cell coordinates.
/// Inline: the adjacency search folds a cell key with it once per axis
/// and live prefix, and a call per fold would serialize the folds.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A SplitMix64 sequence generator (state advances by the golden gamma).
class SplitMix64Sequence {
 public:
  /// Creates a sequence starting from `seed`.
  explicit SplitMix64Sequence(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value.
  uint64_t Next();

 private:
  uint64_t state_;
};

/// xoshiro256++ generator (Blackman & Vigna). Satisfies the C++
/// UniformRandomBitGenerator concept so it composes with <random> if ever
/// needed, but we provide the uniform helpers used by the library directly.
class Xoshiro256pp {
 public:
  using result_type = uint64_t;

  /// Creates a generator; the 256-bit state is expanded from `seed` via
  /// SplitMix64 (the initialization recommended by the authors).
  explicit Xoshiro256pp(uint64_t seed = 0);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Returns the next 64 random bits.
  uint64_t operator()();

  /// Returns a double uniform in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Returns an integer uniform in [0, bound). Requires bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool NextBernoulli(double p);

  /// Returns a standard normal variate (Box–Muller; stateless variant).
  double NextGaussian();

 private:
  std::array<uint64_t, 4> s_;
};

}  // namespace rl0

#endif  // RL0_UTIL_RNG_H_
