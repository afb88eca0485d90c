// The nested ranged hash h_R used to sample grid cells.
//
// Section 2.1 of the paper: h maps cell IDs to a large range and
// h_R(x) = h(x) mod R with R = 2^level. A cell is *sampled at level ℓ* iff
// h_R(x) = 0, i.e. the low ℓ bits of h(x) are zero. This construction is
// nested (paper Fact 1(b)): the sampled set at level ℓ+1 is a subset of the
// sampled set at level ℓ, which is what makes rate-halving re-filters
// consistent in Algorithms 1 and 3.

#ifndef RL0_HASHING_CELL_HASHER_H_
#define RL0_HASHING_CELL_HASHER_H_

#include <cstdint>
#include <memory>

#include "rl0/hashing/kwise_hash.h"
#include "rl0/hashing/mix_hash.h"

namespace rl0 {

/// Which hash family backs the ranged hash.
enum class HashFamily {
  /// Seeded SplitMix64-based mixing; heuristic full randomness (default,
  /// matches the paper's experimental setup).
  kMix64,
  /// Θ(log m)-wise independent polynomial hash over GF(2^61-1); matches the
  /// paper's analysis assumptions.
  kKWisePoly,
};

/// A seeded, nested, ranged hash over 64-bit cell keys.
///
/// Thread-compatible: const methods are safe to call concurrently.
class CellHasher {
 public:
  /// Creates a hasher. `kwise_k` is the independence parameter used when
  /// `family == kKWisePoly` (pick Θ(log m); ignored for kMix64).
  CellHasher(HashFamily family, uint64_t seed, uint32_t kwise_k = 32);

  /// Copyable (deep-copies the polynomial coefficients) and movable, so
  /// samplers holding a CellHasher are copyable for sharding.
  CellHasher(const CellHasher& other);
  CellHasher& operator=(const CellHasher& other);
  CellHasher(CellHasher&&) = default;
  CellHasher& operator=(CellHasher&&) = default;

  /// The raw hash value h(key).
  uint64_t Hash(uint64_t cell_key) const;

  /// True iff h_R(key) = 0 for R = 2^level, i.e. the cell is sampled at
  /// `level`. Level 0 (R = 1) samples every cell. Monotone in `level`:
  /// SampledAtLevel(k, l+1) implies SampledAtLevel(k, l).
  bool SampledAtLevel(uint64_t cell_key, uint32_t level) const;

  /// The deepest level the cell is sampled at: the number of trailing
  /// zero bits of h(key), 64 when h(key) = 0. Nestedness makes this one
  /// number the cell's membership at every level —
  /// SampledAtLevel(k, l) ⇔ l ≤ Depth(k) — so a caller deciding many
  /// levels for one cell hashes it once.
  uint32_t Depth(uint64_t cell_key) const;

  /// The family backing this hasher.
  HashFamily family() const { return family_; }

  /// Maximum usable level (bits of uniform output available).
  static constexpr uint32_t kMaxLevel = 60;

 private:
  HashFamily family_;
  // Exactly one of the two engines is active (family_ selects it); both are
  // cheap to hold by value via optional-like unique_ptr for the poly hash.
  MixHash mix_;
  std::unique_ptr<KWisePolyHash> poly_;
};

}  // namespace rl0

#endif  // RL0_HASHING_CELL_HASHER_H_
