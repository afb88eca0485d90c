// CVM distinct-elements companion estimator for server F0 watermarks.
//
// The server's F0 command and f0 standing queries need a cheap,
// always-on cardinality signal per tenant. The paper-faithful
// F0EstimatorSW (core/f0_sw.h) answers the *robust* (near-duplicate
// collapsed) F0 question but costs many sampler lanes per tenant —
// too heavy to run unconditionally next to every registry pool. The
// server instead keeps one CvmEstimator per tenant: the
// Chakraborty–Vinodchandran–Meel sampling estimator (arXiv 2301.10191)
// over SplitMix64-hashed point byte keys.
//
// Honest semantics: this is an EXACT-distinct estimator — two points
// count as one element only when their coordinate bytes are identical.
// It does NOT collapse near-duplicates; it is a monitoring signal (how
// many distinct raw points has this tenant seen), not the paper's
// robust F0. The protocol reports it as `f0_exact` to keep the
// distinction visible. The robust estimate remains available offline
// via `rl0_cli count`: the infinite-window F0EstimatorIW, which counts
// each group of near-duplicates once, where CVM counts every distinct
// byte pattern.
//
// Properties: O(capacity) memory, O(1) amortized update, (ε, δ)
// guarantees per the CVM paper for capacity ≈ (12/ε²)·log₂(8m/δ).
// State is scratch — it is NOT checkpointed, and a recovered tenant
// restarts the estimator cold (count resumes from the replayed feed
// onward). STATS exposes `f0_observed` so tests can see warm-up.

#ifndef RL0_SERVE_CVM_H_
#define RL0_SERVE_CVM_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>

#include "rl0/geom/point.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace serve {

/// Hashes a point's coordinate bytes to the 64-bit element key the
/// estimator deduplicates on (exact-distinct semantics).
uint64_t PointKey(PointView point);

/// The CVM sampling estimator over 64-bit element keys.
class CvmEstimator {
 public:
  /// `capacity` bounds the kept-key set (≥ 16 enforced); `seed` drives
  /// the keep/evict coin flips (deterministic for a fixed feed order).
  CvmEstimator(size_t capacity, uint64_t seed);

  /// Observes one element.
  void Add(uint64_t key);

  /// Observes one point (hashes, then Add).
  void AddPoint(PointView point) { Add(PointKey(point)); }

  /// Current estimate of the number of distinct keys observed.
  double Estimate() const;

  /// Total elements observed (warm-up / monitoring).
  uint64_t observed() const { return observed_; }

  /// Kept-key set size (≤ capacity; introspection).
  size_t kept() const { return kept_.size(); }

 private:
  size_t capacity_;
  /// Keep probability p: an observed key survives into kept_ with
  /// probability p; estimate = |kept_| / p.
  double p_ = 1.0;
  std::unordered_set<uint64_t> kept_;
  Xoshiro256pp rng_;
  uint64_t observed_ = 0;
};

}  // namespace serve
}  // namespace rl0

#endif  // RL0_SERVE_CVM_H_
