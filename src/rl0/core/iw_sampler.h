// Robust ℓ0-sampling in the infinite-window streaming model (Algorithm 1).
//
// The sampler maintains
//   Sacc — representatives of *sampled* groups (their cell is sampled by
//          the nested hash h_R at the current rate 1/R), and
//   Srej — representatives of *rejected* groups (own cell not sampled but
//          some cell within distance α of the representative is sampled).
// An arriving point that lies within α of a stored representative belongs
// to an already-judged candidate group and is skipped; otherwise it is the
// first point of its group near a sampled cell and becomes a new
// representative (accepted or rejected). Srej must be kept: it records the
// true first point of groups that could otherwise be "double-counted"
// through a later point falling into a sampled cell, which would bias the
// sample (paper Section 2.1).
//
// Whenever |Sacc| exceeds κ0·k·log m the rate is halved (R doubled) and the
// sets are re-filtered; nestedness of h_R (Fact 1(b)) makes the re-filter
// consistent with decisions already taken.
//
// At query time a uniform element of Sacc is returned — each group's
// representative is in Sacc with equal probability 1/R, so the returned
// group is uniform among all groups (Theorem 2.4); for general datasets
// the guarantee degrades gracefully to Θ(1/F0(S,α)) per α-ball
// (Theorem 3.1).
//
// Storage: representatives live in a RepTable — coordinates in a flat
// PointStore arena, scalar fields in parallel columns, cell membership in
// an open-addressing CellIndex (see core/rep_table.h). The refactor is
// decision-preserving: for a fixed seed the accept/reject trajectory is
// identical to the reference map-based implementation
// (baseline/legacy_iw_sampler.h), which the differential tests pin.

#ifndef RL0_CORE_IW_SAMPLER_H_
#define RL0_CORE_IW_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "rl0/core/dup_filter.h"
#include "rl0/core/options.h"
#include "rl0/core/rep_table.h"
#include "rl0/core/sample.h"
#include "rl0/geom/distance_kernels.h"
#include "rl0/geom/point.h"
#include "rl0/grid/random_grid.h"
#include "rl0/hashing/cell_hasher.h"
#include "rl0/util/rng.h"
#include "rl0/util/space.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Infinite-window robust ℓ0-sampler (paper Algorithm 1).
///
/// Single-threaded streaming structure: Insert points one at a time (or in
/// contiguous batches), query with Sample()/SampleK() at any moment. All
/// randomness derives from options.seed; query-time randomness comes from
/// the caller's generator.
class RobustL0SamplerIW {
 public:
  /// Validates `options` and constructs a sampler.
  static Result<RobustL0SamplerIW> Create(const SamplerOptions& options);

  /// Processes the next stream point. Requires p.dim() == options.dim.
  void Insert(const Point& p);

  /// Processes a contiguous chunk of stream points in arrival order —
  /// the preferred ingestion path: one virtual-call-free loop over
  /// cache-resident input. Equivalent to calling Insert per point.
  void InsertBatch(Span<const Point> points);

  /// Processes the strided subsequence points[start], points[start+stride],
  /// ... of a shared stream, stamping each with its *global* position
  /// `index_base + i` (i = position in `points`). This is the
  /// sharded-ingestion path: shard s of S consumes (start=s, stride=S)
  /// and the global stream indices make the shards' states mergeable
  /// without index collisions; `index_base` is the number of stream
  /// points consumed before this span, so chunked feeding keeps indices
  /// globally unique (see ShardedSamplerPool::ConsumeParallel).
  void InsertStrided(Span<const Point> points, size_t start, size_t stride,
                     uint64_t index_base = 0);

  /// Returns a robust ℓ0-sample: a uniformly random element of Sacc
  /// (with the reservoir variant enabled, a uniformly random point of a
  /// uniformly sampled group). Returns nullopt iff no point was inserted
  /// or the accept set is empty (probability ≤ 1/m over the hash).
  std::optional<SampleItem> Sample(Xoshiro256pp* rng) const;

  /// Convenience overload seeding a fresh query-time generator.
  std::optional<SampleItem> Sample(uint64_t query_seed) const;

  /// Samples `count` distinct groups without replacement (Section 2.3;
  /// requires options.k ≥ count so the accept cap was scaled accordingly).
  /// Fails with kFailedPrecondition if fewer than `count` groups are
  /// currently accepted.
  Result<std::vector<SampleItem>> SampleK(size_t count,
                                          Xoshiro256pp* rng) const;

  /// Merges the state of `other` into this sampler, so that afterwards
  /// this sampler behaves as a robust ℓ0-sampler over the *union* of the
  /// two input streams — the distributed-streams setting of the related
  /// work the paper cites (Chung & Tirthapura). Both samplers must have
  /// been created with identical options (in particular the same seed, so
  /// they share one grid and one cell hash; this is the standard
  /// shared-randomness assumption of mergeable sketches).
  ///
  /// Guarantee: for well-separated unions the merged accept set holds each
  /// union group with equal probability 1/R — when both partitions judged
  /// a group, the earlier representative wins deterministically and both
  /// were judged through the same cell hash. When a group was *ignored*
  /// by one partition (no sampled cell near its local first point) the
  /// other partition's representative stands in, which relaxes uniformity
  /// to the Θ(1/n) of Theorem 3.1. SampleItem::stream_index values refer
  /// to positions in the originating partition after a merge; feed the
  /// partitions with InsertStrided to make them global stream positions
  /// (then earlier-representative-wins resolves by true arrival order).
  Status AbsorbFrom(const RobustL0SamplerIW& other);

  /// Number of accepted representatives |Sacc|.
  size_t accept_size() const { return accept_size_; }
  /// Number of rejected representatives |Srej|.
  size_t reject_size() const { return reps_.live() - accept_size_; }
  /// Current level ℓ (sample rate 1/R with R = 2^ℓ).
  uint32_t level() const { return level_; }
  /// Current R = 2^level.
  uint64_t rate_reciprocal() const { return uint64_t{1} << level_; }
  /// Total points processed.
  uint64_t points_processed() const { return points_processed_; }

  /// Current space in words under the accounting model of util/space.h.
  size_t SpaceWords() const { return meter_.current(); }
  /// Peak space in words since construction.
  size_t PeakSpaceWords() const { return meter_.peak(); }

  /// Duplicate-suppression counters (core/dup_filter.h). The sampler has
  /// no duplicate filter (options.dup_filter is ignored), so every arrival
  /// counts as bypassed.
  DupFilterStats filter_stats() const {
    DupFilterStats s;
    s.bypassed = points_processed_;
    return s;
  }

  /// The options this sampler was created with.
  const SamplerOptions& options() const { return options_; }
  /// The grid (introspection for tests).
  const RandomGrid& grid() const { return grid_; }
  /// The cell hasher (introspection for tests).
  const CellHasher& hasher() const { return hasher_; }
  /// The representative table (introspection for tests).
  const RepTable& rep_table() const { return reps_; }

  /// Accepted representatives in insertion order (tests/baselines).
  std::vector<SampleItem> AcceptedRepresentatives() const;
  /// Rejected representatives in insertion order (tests/baselines).
  std::vector<SampleItem> RejectedRepresentatives() const;

 private:
  friend Status SnapshotSampler(const RobustL0SamplerIW& sampler,
                                std::string* out);
  friend Result<RobustL0SamplerIW> RestoreSampler(
      const std::string& snapshot);

  RobustL0SamplerIW(const SamplerOptions& options, double side);

  /// Core of Insert: judges one point carrying an explicit stream index.
  void InsertView(PointView p, uint64_t stream_index);

  /// Finds a stored representative within α of p, or RepTable::kNpos.
  /// Gathers the candidate slots of the whole adjacency neighborhood and
  /// runs the batched one-to-many kernel over the arena, returning the
  /// first match in probe order — the same representative (and the same
  /// per-candidate booleans) as the scalar chain walk it replaced.
  uint32_t FindCandidate(PointView p, const AdjKeyVec& adj_keys) const;

  /// Live slots of accepted representatives ordered by rep id (ascending
  /// — deterministic, content-defined query iteration).
  std::vector<uint32_t> SortedAcceptedSlots() const;

  /// Re-filters Sacc/Srej after the level was raised.
  void Refilter();

  size_t RepWords() const;

  SamplerOptions options_;
  RandomGrid grid_;
  CellHasher hasher_;
  Xoshiro256pp reservoir_rng_;
  uint32_t level_ = 0;
  size_t accept_cap_;
  size_t accept_size_ = 0;
  uint64_t points_processed_ = 0;
  uint64_t next_rep_id_ = 0;

  RepTable reps_;

  SpaceMeter meter_;
  // Adjacency scratch with inline capacity: the per-point key buffer
  // lives on the sampler itself, never the heap (ROADMAP item).
  mutable AdjKeyVec adj_scratch_;
  // FindCandidate gather scratch: table slots and their arena slot
  // indices for one multi-rep cell bucket. Inline capacity keeps typical
  // probes allocation-free without bloating the sampler's cache
  // footprint (longer chains spill to the heap transparently).
  mutable SmallVector<uint32_t, 16> cand_slots_;
  mutable SmallVector<uint32_t, 16> cand_arena_;
};

}  // namespace rl0

#endif  // RL0_CORE_IW_SAMPLER_H_
