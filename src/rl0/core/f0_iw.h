// Robust F0 estimation in the infinite window (paper Section 5).
//
// The estimator plugs the robust ℓ0-sampler into the Bar-Yossef et al.
// distinct-elements framework: run Algorithm 1 with the accept cap set to
// κB/ε² instead of κ0·log m, and return |Sacc|·R at query time — Sacc
// holds each group independently with probability 1/R, so |Sacc|·R
// concentrates to the number of groups within (1±ε) (constant success
// probability). Running several independent copies and taking the median
// boosts the success probability in the standard way.

#ifndef RL0_CORE_F0_IW_H_
#define RL0_CORE_F0_IW_H_

#include <cstdint>
#include <vector>

#include "rl0/core/iw_sampler.h"
#include "rl0/core/options.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Options for the infinite-window F0 estimator.
struct F0Options {
  /// Base sampler configuration (alpha, dim, seed, grid/hash settings).
  SamplerOptions sampler;
  /// Target relative accuracy ε.
  double epsilon = 0.1;
  /// The constant κB in the κB/ε² cap.
  double kappa_b = 12.0;
  /// Number of independent copies; the median of the copy estimates is
  /// returned. Odd values recommended.
  size_t copies = 9;

  /// Checks the options for consistency.
  Status Validate() const;
  /// The per-copy accept cap κB/ε².
  size_t PerCopyCap() const;
};

/// (1+ε)-approximate robust F0 for the infinite window.
///
/// The copies are the lanes of a broadcast ShardedSamplerPool: every lane
/// consumes the whole stream (the copies differ by seed, not by
/// partition). Each estimator has one ingestion mode — serial
/// Insert/InsertBatch or pipelined Feed; mixing them CHECK-fails. A
/// serial-only estimator spawns no threads.
class F0EstimatorIW {
 public:
  /// Validates options and constructs the estimator.
  static Result<F0EstimatorIW> Create(const F0Options& options);

  /// Processes the next stream point.
  void Insert(const Point& p);

  /// Processes a contiguous chunk of stream points: each copy consumes
  /// the whole chunk in one pass (better cache behaviour than
  /// interleaving the copies point by point).
  void InsertBatch(Span<const Point> points);

  /// Streams a chunk through the persistent ingestion pipeline: every
  /// copy is a pipeline lane with its own worker thread, so the copies
  /// consume the chunk in parallel instead of sequentially. Copies the
  /// chunk once (shared across lanes); safe from any number of threads.
  /// Bit-identical to InsertBatch of the same stream, for any chunking.
  void Feed(Span<const Point> points);

  /// Blocks until everything fed before this call is consumed by every
  /// copy. Required before Estimate()/CopyEstimates() after feeding.
  void Drain();

  /// The median-of-copies estimate of the number of groups F0(S, α).
  /// Returns 0 before any insertion. Requires a drained pipeline.
  double Estimate() const;

  /// Per-copy estimates |Sacc|·R (introspection).
  std::vector<double> CopyEstimates() const;

  /// Number of copies.
  size_t copies() const { return pool_.num_shards(); }

  /// Read access to one underlying sampler copy (introspection for
  /// tests). Requires a drained pipeline.
  const RobustL0SamplerIW& copy_sampler(size_t i) const {
    return pool_.shard(i);
  }

  /// Total space in words across copies.
  size_t SpaceWords() const { return pool_.SpaceWords(); }

  /// Summed duplicate-suppression counters over the per-copy samplers
  /// (core/dup_filter.h). Requires a drained pipeline.
  DupFilterStats FilterStats() const { return pool_.FilterStats(); }

 private:
  explicit F0EstimatorIW(ShardedSamplerPool pool);

  /// Enters serial ingestion; CHECK-fails if anything was fed.
  void EnterSerialMode();

  ShardedSamplerPool pool_;
  /// Set by the first serial insert (Feed CHECK-fails afterwards).
  bool serial_ = false;
};

}  // namespace rl0

#endif  // RL0_CORE_F0_IW_H_
