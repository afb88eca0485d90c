// Options shared by the robust ℓ0-samplers and F0 estimators.

#ifndef RL0_CORE_OPTIONS_H_
#define RL0_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "rl0/geom/metric.h"
#include "rl0/hashing/cell_hasher.h"
#include "rl0/util/status.h"

namespace rl0 {

/// How the grid cell side length is derived from α.
enum class GridSideMode {
  /// side = α/2 — the constant-dimension regime of Section 2 (each cell
  /// has diameter < α in d ≤ 3, and the 5^d-block adjacency bound applies).
  kConstantDim,
  /// side = d·α — the high-dimension regime of Section 4 (requires
  /// (α, β)-sparsity with β > d^1.5·α so a cell meets at most one group).
  kHighDim,
  /// side = custom_side — explicit control (tests, ablations).
  kCustom,
};

/// What happens to a stamped arrival that is *late beyond the lateness
/// bound* — its stamp is below the release frontier (max stamp seen −
/// allowed_lateness), so the reordering stage has already released the
/// sorted prefix it belongs to (core/reorder_buffer.h).
enum class LatePolicy {
  /// Drop the point, counting it (ReorderStats::late_dropped). Nothing
  /// is ever silently lost: offered == released + dropped (+ buffered,
  /// zero after a flush) holds exactly.
  kDrop,
};

/// Configuration for RobustL0SamplerIW / SwFixedRateSampler /
/// RobustL0SamplerSW. Plain aggregate; validate with Validate().
struct SamplerOptions {
  /// Dimension d of the points. Required, ≥ 1.
  size_t dim = 0;

  /// Distance threshold α: points within α are near-duplicates. Required.
  double alpha = 0.0;

  /// Distance function under which α is interpreted (default: Euclidean,
  /// the paper's setting; L1/L∞ exercise the Section 7 generalization).
  Metric metric = Metric::kL2;

  /// Master seed; all internal randomness (grid offset, cell hash,
  /// reservoir decisions) is derived from it deterministically.
  uint64_t seed = 0;

  /// Grid side regime (see GridSideMode). Default: high-dimension rule,
  /// which is what the paper's own experiments use (datasets are generated
  /// (α, β)-sparse with β ≈ d^1.5·α).
  GridSideMode side_mode = GridSideMode::kHighDim;

  /// Cell side when side_mode == kCustom.
  double custom_side = 0.0;

  /// Hash family for cell sampling (default: fast mixing, as in the
  /// paper's experiments; kKWisePoly for the theory-faithful setup).
  HashFamily hash_family = HashFamily::kMix64;

  /// Independence parameter for kKWisePoly (Θ(log m)).
  uint32_t kwise_k = 32;

  /// The constant κ0 in the |Sacc| ≤ κ0·log m cap (paper: "large enough").
  double kappa0 = 4.0;

  /// Expected stream length m, used to derive the accept cap and failure
  /// probability targets when accept_cap == 0.
  uint64_t expected_stream_length = uint64_t{1} << 20;

  /// Explicit accept-set cap; 0 means derive κ0·k·⌈log2 m⌉ (min 8).
  size_t accept_cap = 0;

  /// Number of distinct samples to support without replacement
  /// (Section 2.3 scales the cap by k). Default 1.
  size_t k = 1;

  /// When true, return a uniformly random point of the sampled group
  /// instead of its fixed representative (Section 2.3 reservoir variant).
  bool random_representative = false;

  /// Ignored: no sampler has a duplicate-suppression front-end any more
  /// (core/dup_filter.h). Kept so that existing callers still compile;
  /// it never changed a decision, an RNG draw or a snapshot byte.
  bool dup_filter = true;

  /// Bounded-lateness ingestion (core/reorder_buffer.h): the pool's late
  /// feed path (ShardedSwSamplerPool::FeedStampedLate, the only reorder
  /// front end) accepts stamps that run backwards by at most this many
  /// time units behind the maximum stamp seen, reordering them into the
  /// strict non-decreasing sequence the samplers require. Must be ≥ 0;
  /// 0 still tolerates equal-stamp ties arriving in any order. The
  /// strict FeedStamped/InsertStamped paths ignore it. Arrivals later
  /// than the bound are dropped and counted (LatePolicy).
  int64_t allowed_lateness = 0;

  /// The grid cell side implied by the options.
  double GridSide() const;

  /// The accept-set cap implied by the options.
  size_t EffectiveAcceptCap() const;

  /// Checks the options for consistency.
  Status Validate() const;
};

}  // namespace rl0

#endif  // RL0_CORE_OPTIONS_H_
