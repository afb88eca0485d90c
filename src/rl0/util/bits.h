// Small bit-manipulation helpers used across the library.

#ifndef RL0_UTIL_BITS_H_
#define RL0_UTIL_BITS_H_

#include <cstdint>

namespace rl0 {

/// Number of leading zero bits of x (64 for x == 0). C++17-compatible
/// stand-in for C++20's std::countl_zero.
inline uint32_t CountLeadingZeros(uint64_t x) {
  if (x == 0) return 64;
  return static_cast<uint32_t>(__builtin_clzll(x));
}

/// Number of trailing zero bits of x (64 for x == 0). Stand-in for
/// C++20's std::countr_zero.
inline uint32_t CountTrailingZeros(uint64_t x) {
  if (x == 0) return 64;
  return static_cast<uint32_t>(__builtin_ctzll(x));
}

/// Returns ⌈log2(x)⌉ for x ≥ 1 (0 for x == 1).
inline uint32_t CeilLog2(uint64_t x) {
  if (x <= 1) return 0;
  return 64 - CountLeadingZeros(x - 1);
}

/// Returns ⌊log2(x)⌋ for x ≥ 1.
inline uint32_t FloorLog2(uint64_t x) {
  return 63 - CountLeadingZeros(x | 1);
}

/// Returns the smallest power of two ≥ x (x ≥ 1).
inline uint64_t NextPow2(uint64_t x) { return uint64_t{1} << CeilLog2(x); }

/// True iff x is a power of two (x ≥ 1).
inline bool IsPow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace rl0

#endif  // RL0_UTIL_BITS_H_
