#include "rl0/hashing/cell_hasher.h"

#include "rl0/util/bits.h"
#include "rl0/util/check.h"

namespace rl0 {

CellHasher::CellHasher(HashFamily family, uint64_t seed, uint32_t kwise_k)
    : family_(family), mix_(seed) {
  if (family_ == HashFamily::kKWisePoly) {
    poly_ = std::make_unique<KWisePolyHash>(kwise_k, seed);
  }
}

CellHasher::CellHasher(const CellHasher& other)
    : family_(other.family_),
      mix_(other.mix_),
      poly_(other.poly_ ? std::make_unique<KWisePolyHash>(*other.poly_)
                        : nullptr) {}

CellHasher& CellHasher::operator=(const CellHasher& other) {
  if (this == &other) return *this;
  family_ = other.family_;
  mix_ = other.mix_;
  poly_ = other.poly_ ? std::make_unique<KWisePolyHash>(*other.poly_)
                      : nullptr;
  return *this;
}

uint64_t CellHasher::Hash(uint64_t cell_key) const {
  if (family_ == HashFamily::kKWisePoly) return (*poly_)(cell_key);
  return mix_(cell_key);
}

bool CellHasher::SampledAtLevel(uint64_t cell_key, uint32_t level) const {
  RL0_DCHECK(level <= kMaxLevel);
  if (level == 0) return true;  // R = 1: h(x) mod 1 == 0 for every x.
  return level <= Depth(cell_key);
}

uint32_t CellHasher::Depth(uint64_t cell_key) const {
  // The low `level` bits of h are zero iff level ≤ ctz(h).
  return CountTrailingZeros(Hash(cell_key));
}

}  // namespace rl0
