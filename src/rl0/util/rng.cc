#include "rl0/util/rng.h"

#include <cmath>

#include "rl0/util/check.h"

namespace rl0 {

namespace {
constexpr uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t SplitMix64Sequence::Next() {
  state_ += kGoldenGamma;
  uint64_t x = state_;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Xoshiro256pp::Xoshiro256pp(uint64_t seed) {
  SplitMix64Sequence seq(seed);
  for (auto& word : s_) word = seq.Next();
  // An all-zero state is a fixed point of xoshiro; SplitMix64 of any seed
  // cannot produce four zero words in a row, but guard regardless.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

uint64_t Xoshiro256pp::operator()() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Xoshiro256pp::NextDouble() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

uint64_t Xoshiro256pp::NextBounded(uint64_t bound) {
  RL0_DCHECK(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Xoshiro256pp::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Xoshiro256pp::NextGaussian() {
  // Box–Muller: draw until u1 is nonzero to keep log() finite.
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double two_pi = 6.283185307179586476925286766559;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(two_pi * u2);
}

}  // namespace rl0
