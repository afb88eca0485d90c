// Robust F0 estimation over sliding windows (paper Section 5).
//
// Flajolet–Martin style: run r = Θ(1/ε²) independent copies of the
// hierarchical sliding-window sampler. In each copy the deepest level ℓ
// with a non-expired accepted group plays the role of the FM "maximum bit
// position" — a group's representative survives at level ℓ with
// probability 2^-ℓ, so over n window groups the deepest occupied level
// concentrates around log2 n. Averaging the per-copy levels to ℓ̄ and
// returning φ·2^ℓ̄ (φ the FM bias-correction constant) gives a constant-
// factor F0 estimate, sharpened by the averaging; an outer median over
// independent repetitions boosts the success probability. A HyperLogLog-
// style harmonic-mean combiner is provided as an alternative (the paper
// notes the same plug-in applies).

#ifndef RL0_CORE_F0_SW_H_
#define RL0_CORE_F0_SW_H_

#include <cstdint>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"

namespace rl0 {

/// How per-copy level statistics are combined into one estimate.
enum class F0SwCombiner {
  /// φ · 2^(mean level) — the Flajolet–Martin combiner of Section 5.
  kFlajoletMartin,
  /// φ · r / Σ 2^(-level_i) — a HyperLogLog-style harmonic mean (no
  /// classical r² factor: every copy sees the whole stream rather than a
  /// 1/r slice, so the harmonic mean already estimates 0.77351·n).
  kHyperLogLog,
};

/// Options for the sliding-window F0 estimator.
struct F0SwOptions {
  /// Base sampler configuration (alpha, dim, seed, grid/hash settings).
  SamplerOptions sampler;
  /// Window width (same stamp semantics as RobustL0SamplerSW).
  int64_t window = 1024;
  /// Number of independent sampler copies per repetition (Θ(1/ε²)).
  size_t copies = 16;
  /// Outer repetitions; the median across them is returned (odd values
  /// recommended; 1 disables boosting).
  size_t repetitions = 1;
  /// Combiner for the per-copy statistics.
  F0SwCombiner combiner = F0SwCombiner::kFlajoletMartin;
  /// FM bias correction: estimate = phi · 2^(mean level). The classical
  /// value 1/0.77351 corrects E[max level] ≈ log2(0.77351·n).
  double phi = 1.0 / 0.77351;

  /// Checks the options for consistency.
  Status Validate() const;
};

/// Constant-factor / (1+ε) robust F0 estimator for sliding windows.
///
/// The copies are the lanes of a broadcast ShardedSwSamplerPool: every
/// lane consumes the whole stream (the copies differ by seed, not by
/// partition). Each estimator has one ingestion mode — serial Insert or
/// pipelined Feed/FeedStamped; mixing them CHECK-fails, and so does
/// mixing Feed with FeedStamped (the pool's stamp-mode latch). A
/// serial-only estimator spawns no threads.
class F0EstimatorSW {
 public:
  /// Validates options and constructs the estimator.
  static Result<F0EstimatorSW> Create(const F0SwOptions& options);

  /// Feeds a point with an explicit stamp (time-based windows).
  void Insert(const Point& p, int64_t stamp);

  /// Feeds a point stamped with its arrival index (sequence-based).
  void Insert(const Point& p);

  /// Streams a chunk through the persistent ingestion pipeline: every
  /// copy is a pipeline lane with its own worker thread, each consuming
  /// the whole chunk with sequence stamps derived from the chunk's global
  /// index base (bit-identical to the serial Insert(p) path). Copies the
  /// chunk once (shared across lanes); safe from any number of threads.
  void Feed(Span<const Point> points);

  /// The explicit-stamp (time-based) pipeline path: streams a chunk with
  /// its parallel stamp array to every copy (bit-identical to serial
  /// Insert(p, stamp)). Stamps must align with the points and be
  /// non-decreasing across everything fed. Safe from any number of
  /// threads as long as the stamp order is externally coherent.
  void FeedStamped(Span<const Point> points, Span<const int64_t> stamps);

  /// Blocks until everything fed before this call is consumed by every
  /// copy. Required before Estimate()/EstimateLatest() after feeding.
  void Drain();

  /// Estimates the number of groups alive in the window at `now`.
  /// Expires internal state, hence non-const. Returns 0 for an empty
  /// window.
  double Estimate(int64_t now);

  /// Estimate at the stamp of the most recent insertion (or fed point).
  double EstimateLatest();

  /// Total space in words across all copies.
  size_t SpaceWords() const { return pool_.SpaceWords(); }

  /// Number of copies per repetition / repetitions (introspection).
  size_t copies() const { return copies_; }
  size_t repetitions() const { return repetitions_; }

  /// Read access to one underlying sampler copy (introspection for
  /// tests). Requires a drained pipeline.
  const RobustL0SamplerSW& copy_sampler(size_t i) const {
    return pool_.shard(i);
  }

 private:
  F0EstimatorSW(ShardedSwSamplerPool pool, size_t copies, size_t repetitions,
                F0SwCombiner combiner, double phi);

  double CombineRepetition(size_t rep, int64_t now);

  ShardedSwSamplerPool pool_;  // repetitions × copies broadcast lanes
  size_t copies_;
  size_t repetitions_;
  F0SwCombiner combiner_;
  double phi_;
  /// Serial ingestion: points inserted and the latest stamp (Feed and
  /// FeedStamped CHECK-fail once a point was inserted serially).
  uint64_t serial_points_ = 0;
  int64_t serial_latest_stamp_ = 0;
};

}  // namespace rl0

#endif  // RL0_CORE_F0_SW_H_
