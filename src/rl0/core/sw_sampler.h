// Space-efficient robust ℓ0-sampling over sliding windows (Algorithm 3),
// the paper's main technical contribution.
//
// The structure runs L+1 = ⌈log2 w⌉+1 instances of the fixed-rate
// Algorithm 2 with sample rates 1, 1/2, ..., 1/2^L over a dynamic
// partition of the window into subwindows: level ℓ covers an older slice
// of the window at a coarser rate. An arriving point is fed top-down
// (level L first) and is *recorded* at the highest level that either
// already tracks its group or samples/rejects it as a new representative;
// all lower levels are then pruned (their state describes a stream suffix
// that the recording level now owns). Because level 0 samples every cell,
// every point is recorded somewhere, and the newest stream suffix is
// always tracked at rate 1 — that is what guarantees a sample exists
// whenever the window is non-empty (Lemma 2.10).
//
// When a level's accept set outgrows κ0·log m, the level is Split
// (Algorithm 4): groups up to the last representative that survives the
// next level's rate are promoted (re-filtered at half the rate, keeping
// Definition 2.2's accept/reject semantics), the rest stay; the promoted
// part Merges (Algorithm 5) into the level above, possibly cascading. A
// cascade past level L is the paper's "error" event (Lemma 2.8: happens
// with probability ≤ 1/m² per step for large enough κ0); it is surfaced
// through error_count() rather than aborting.
//
// At query time the per-level samples are unified: each accepted group of
// level ℓ enters the candidate set with probability R_ℓ/R_c (c = deepest
// non-empty level), so every group in the window is present with equal
// probability 1/R_c, and a uniform candidate is returned.

#ifndef RL0_CORE_SW_SAMPLER_H_
#define RL0_CORE_SW_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rl0/core/context.h"
#include "rl0/core/dup_filter.h"
#include "rl0/core/sample.h"
#include "rl0/core/sw_fixed_sampler.h"
#include "rl0/geom/point_store.h"
#include "rl0/util/space.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Hierarchical sliding-window robust ℓ0-sampler (Algorithms 3–5).
///
/// Works for sequence-based windows (stamp = arrival index; use the
/// single-argument Insert) and time-based windows (stamp = arrival time,
/// non-decreasing). Movable, not copyable.
class RobustL0SamplerSW {
 public:
  /// Validates options and creates a sampler for windows of width
  /// `window` (points or time units, depending on stamp semantics).
  static Result<RobustL0SamplerSW> Create(const SamplerOptions& options,
                                          int64_t window);

  /// Feeds a point with an explicit stamp (time-based windows).
  /// Stamps must be non-decreasing.
  void Insert(const Point& p, int64_t stamp);

  /// Feeds a point stamped with its arrival index (sequence-based windows).
  void Insert(const Point& p);

  /// Core of every insert path: explicit stamp and explicit *global*
  /// stream position. This is the time-based sharded-ingestion primitive
  /// — lanes of a stamped windowed pool feed their residue class through
  /// it, so stamps and stream indices both survive re-chunking. Stamps
  /// must be non-decreasing; stream indices identify arrival order.
  void InsertStamped(const Point& p, int64_t stamp, uint64_t stream_index);

  /// Feeds a contiguous chunk of points in arrival order, each stamped
  /// with its arrival index. Equivalent to calling Insert per point.
  void InsertBatch(Span<const Point> points);

  /// Feeds a point at *global* stream position `global_index` of a shared
  /// stream, using the position as both the stamp and the stream index
  /// (sequence-based windows over the shared stream). This is the sharded
  /// ingestion primitive: lanes of a windowed pool see interleaved
  /// substreams but agree on global window boundaries. Global indices
  /// must be non-decreasing across calls.
  void InsertGlobal(const Point& p, uint64_t global_index);

  /// Processes the strided subsequence points[start], points[start+stride],
  /// ... of a shared stream through InsertGlobal with global positions
  /// `index_base + i` — the windowed analogue of
  /// RobustL0SamplerIW::InsertStrided (see ShardedSwSamplerPool).
  void InsertStrided(Span<const Point> points, size_t start, size_t stride,
                     uint64_t index_base = 0);

  /// The time-based analogue of InsertStrided: processes the strided
  /// subsequence through InsertStamped with stamp `stamps[i]` and global
  /// position `index_base + i`. `stamps` must align with `points` and be
  /// non-decreasing.
  void InsertStridedStamped(Span<const Point> points,
                            Span<const int64_t> stamps, size_t start,
                            size_t stride, uint64_t index_base = 0);

  /// Raises the event-time watermark: a promise that no future stamp
  /// will be below `watermark`. Bounded-lateness ingestion lives in the
  /// pool's reorder stage (ShardedSwSamplerPool::FeedStampedLate), which
  /// broadcasts its watermark to every lane through this call. Scratch
  /// state — never serialized by SnapshotSamplerSW (a restored sampler
  /// resumes at its latest stamp), so noting watermarks keeps snapshot
  /// bytes bit-identical to the strict sorted feed. Queries read it
  /// through watermark().
  void NoteWatermark(int64_t watermark);

  /// Event time: the later of the latest inserted stamp and any noted
  /// watermark. Equals latest_stamp() on the strict paths (which never
  /// note watermarks).
  int64_t watermark() const {
    return has_event_watermark_ && event_watermark_ > latest_stamp_
               ? event_watermark_
               : latest_stamp_;
  }

  /// Returns a robust ℓ0-sample of the window at time `now`: a group alive
  /// in (now-window, now] chosen uniformly, represented by its latest
  /// point — or, with options.random_representative, by a uniformly
  /// random point of the group's window (Section 2.3 variant, implemented
  /// with per-group windowed reservoirs; within-group uniformity is exact
  /// for the fixed-rate Algorithm 2 and Θ(1)-approximate here, because a
  /// pruned-and-re-established group restarts its reservoir). Returns
  /// nullopt iff the window is empty. Expires state, hence non-const.
  std::optional<SampleItem> Sample(int64_t now, Xoshiro256pp* rng);

  /// Sample at the current event time — watermark(), which is the stamp
  /// of the most recent insertion unless a later watermark was noted
  /// (bounded-lateness ingestion).
  std::optional<SampleItem> SampleLatest(Xoshiro256pp* rng);

  /// Samples `count` distinct window groups without replacement
  /// (Section 2.3; set options.k ≥ count so the per-level caps are scaled
  /// accordingly). Fails with kFailedPrecondition when fewer than `count`
  /// groups survive the query-time rate unification — the unified pool is
  /// itself a random 1/R_c-rate subset, so callers may simply retry with
  /// fresh query randomness (each query redraws the pool).
  Result<std::vector<SampleItem>> SampleK(size_t count, int64_t now,
                                          Xoshiro256pp* rng);

  /// Deepest level with a non-empty accept set at `now` (the FM-style
  /// statistic used by the sliding-window F0 estimator, Section 5).
  /// nullopt iff the window is empty.
  std::optional<uint32_t> DeepestNonEmptyLevel(int64_t now);

  /// Appends one item per accepted group across all levels (no rate
  /// unification): the group's latest point, or its reservoir sample in
  /// reservoir mode. Expires at `now` first. Deterministic order (levels
  /// bottom-up, table slot order) — the merge surface of the windowed
  /// sharded pool and of the rate-1 determinism tests.
  void AcceptedWindowItems(int64_t now, std::vector<SampleItem>* out);

  /// The rate-unified query pool (Algorithm 3 lines 19-22): every group
  /// alive in the window enters with equal probability 1/R_c. Exposed so
  /// a sharded pool can unify per-shard pools before the uniform draw.
  std::vector<SampleItem> WindowQueryPool(int64_t now, Xoshiro256pp* rng) {
    return BuildQueryPool(now, rng, /*min_level=*/-1);
  }

  /// As WindowQueryPool, but unified to `unify_level` when that is deeper
  /// than this sampler's own deepest non-empty level: every group then
  /// enters the pool with probability 1/2^max(c, unify_level). A sharded
  /// pool passes the *global* deepest level across shards, so every
  /// shard's groups are selected at one common rate — without it a shard
  /// whose hierarchy is shallower would over-contribute by the rate gap
  /// (see ShardedSwSamplerPool::Sample).
  std::vector<SampleItem> WindowQueryPool(int64_t now, Xoshiro256pp* rng,
                                          int unify_level) {
    return BuildQueryPool(now, rng, unify_level);
  }

  /// Number of levels (L+1 with L = ⌈log2 window⌉).
  size_t num_levels() const { return levels_.size(); }
  /// Read access to a level (tests/instrumentation).
  const SwFixedRateSampler& level(size_t i) const { return *levels_[i]; }
  /// The shared cell → level-set map the descent probes (tests).
  const CellLevelMask& level_masks() const { return *level_masks_; }
  /// The window width.
  int64_t window() const { return window_; }
  /// Points processed so far.
  uint64_t points_processed() const { return points_processed_; }
  /// Stamp of the most recent insertion.
  int64_t latest_stamp() const { return latest_stamp_; }
  /// Number of Algorithm-3 "error" events (cascade past the top level).
  uint64_t error_count() const { return error_count_; }
  /// Number of abandoned cascades (no promotable representative; see
  /// "Abandoned cascades" in docs/ARCHITECTURE.md).
  uint64_t stuck_split_count() const { return stuck_split_count_; }
  /// The accept cap κ0·k·log m in force.
  size_t accept_cap() const { return accept_cap_; }

  /// Current space in words (sum over levels plus scalars).
  size_t SpaceWords() const;
  /// Peak space in words since construction.
  size_t PeakSpaceWords() const { return meter_.peak(); }

  /// Duplicate-suppression counters (core/dup_filter.h). The hierarchy
  /// has no duplicate filter (options.dup_filter is ignored), so every
  /// arrival counts as bypassed.
  DupFilterStats filter_stats() const {
    DupFilterStats s;
    s.bypassed = points_processed_;
    return s;
  }

  /// The options in force.
  const SamplerOptions& options() const { return ctx_->options; }

 private:
  friend Status SnapshotSamplerSW(const RobustL0SamplerSW& sampler,
                                  std::string* out);
  friend Result<RobustL0SamplerSW> RestoreSamplerSW(
      const std::string& snapshot);
  // Incremental checkpoints (core/checkpoint.h): the full cut marks the
  // dirty-tracking epoch, the delta cut serializes only touched slots.
  friend Status SnapshotSamplerFullSW(RobustL0SamplerSW* sampler,
                                      std::string* out);
  friend Status SnapshotSamplerDeltaSW(RobustL0SamplerSW* sampler,
                                       uint64_t base_checksum,
                                       std::string* out);

  RobustL0SamplerSW(const SamplerOptions& options, int64_t window);

  void Cascade(size_t start_level);
  void ExpireAll(int64_t now);

  /// Refreshes the space meter after a state change.
  void UpdateMeter();

  /// Calls insert(i) for i = start, start+stride, ... < n, prefetching
  /// the level-mask bucket of the next element first once the mask is
  /// too big to stay cache-resident.
  template <typename InsertFn>
  void InsertEach(Span<const Point> points, size_t start, size_t stride,
                  InsertFn&& insert);

  /// Collects the rate-unified candidate pool (Algorithm 3 lines 19-22),
  /// unified to max(own deepest level, min_level); min_level < 0 means
  /// the sampler's own deepest level.
  std::vector<SampleItem> BuildQueryPool(int64_t now, Xoshiro256pp* rng,
                                         int min_level);

  std::unique_ptr<SamplerContext> ctx_;
  std::unique_ptr<uint64_t> id_counter_;
  /// One arena for every level's points (stable address: levels hold it).
  std::unique_ptr<PointStore> store_;
  /// Cell key → levels holding a chain there, kept by the level tables
  /// (stable address: levels hold it). Declared before levels_ so it
  /// outlives them: a table clears its bits while it is destroyed.
  std::unique_ptr<CellLevelMask> level_masks_;
  std::vector<std::unique_ptr<SwFixedRateSampler>> levels_;
  int64_t window_;
  size_t accept_cap_;
  uint64_t points_processed_ = 0;
  int64_t latest_stamp_ = 0;
  uint64_t error_count_ = 0;
  uint64_t stuck_split_count_ = 0;
  SpaceMeter meter_;
  std::vector<uint64_t> adj_scratch_;

  // Event-time watermark from NoteWatermark — scratch, not serialized
  // (restore resumes at the latest stamp), so watermark propagation
  // cannot perturb snapshot byte-identity with the strict sorted feed.
  bool has_event_watermark_ = false;
  int64_t event_watermark_ = 0;
};

}  // namespace rl0

#endif  // RL0_CORE_SW_SAMPLER_H_
