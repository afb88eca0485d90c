// Bounded-lateness reordering for out-of-order stamped streams.
//
// Every stamped ingestion path in this repo (RobustL0SamplerSW::
// InsertStamped, IngestPool's stamped chunks) requires non-decreasing
// stamps — real event streams violate that constantly. ReorderStage is
// the front-end that restores the contract under a *bounded lateness*
// assumption: arrivals may run backwards by at most `allowed_lateness`
// time units behind the maximum stamp seen so far (the high watermark).
//
// The stage buffers arrivals in a min-heap ordered by a canonical total
// order and releases the sorted prefix below the *release frontier*
// (high watermark − allowed_lateness). The frontier is safe: a point
// with stamp s stays buffered while s ≥ frontier, i.e. exactly while a
// within-bound arrival could still sort at or before it — so for ANY
// arrival order satisfying the bound, the released sequence is
// *identical* to the canonically sorted stream. Downstream state fed
// from the released sequence is therefore bit-identical to feeding the
// sorted stream directly (the metamorphic contract pinned by
// tests/metamorphic_test.cc and tests/reorder_test.cc).
//
// Equal-stamp ties: arrival order within a tie is NOT recoverable from
// the stamps, so the canonical order breaks ties by the points' raw
// coordinate bit patterns (CanonicalLess). Ties release together (a tie
// at stamp s is only releasable once the frontier passes s, by which
// point every within-bound member of the tie has arrived), which is
// what makes the released sequence arrival-order invariant even at
// allowed_lateness = 0.
//
// Beyond-bound arrivals (stamp below the frontier) belong to an already
// released prefix and cannot be slotted back in. They are dropped, and
// never silently: LatePolicy::kDrop counts them, so the accounting
// identity
//     offered == released + late_dropped + buffered
// holds after every call, with buffered == 0 after Flush().
//
// Watermark propagation: watermark() is the *low* watermark — every
// future released point is guaranteed to have stamp ≥ watermark().
// Wiring layers forward it downstream (IngestPool::FeedWatermark →
// RobustL0SamplerSW::NoteWatermark) so queries can advance event time
// past the last released stamp — e.g. an empty-lane shard of a sharded
// pool still learns how far time has progressed (the watermark-stall
// edge in tests/reorder_test.cc).
//
// Pull-style API (no callbacks into downstream): Offer/OfferBatch move
// newly releasable points into an internal staging area drained with
// TakeReleased. This keeps the stage movable and composition explicit.
// Not thread-safe; wiring layers serialize access.

#ifndef RL0_CORE_REORDER_BUFFER_H_
#define RL0_CORE_REORDER_BUFFER_H_

#include <cstdint>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/geom/point.h"
#include "rl0/util/span.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {

/// Counters of a ReorderStage. The identity
/// offered == released + late_dropped + buffered
/// holds after every Offer/OfferBatch/Flush.
struct ReorderStats {
  /// Points handed to Offer/OfferBatch.
  uint64_t offered = 0;
  /// Points released downstream in canonical stamp order.
  uint64_t released = 0;
  /// Beyond-bound arrivals dropped under LatePolicy::kDrop.
  uint64_t late_dropped = 0;
  /// Points currently buffered (not yet releasable).
  uint64_t buffered = 0;
  /// False until the first offer; the stamp fields below are then
  /// meaningless.
  bool has_watermark = false;
  /// High watermark: the maximum stamp seen.
  int64_t max_stamp = 0;
  /// Low watermark: every future released point has stamp ≥ this.
  int64_t watermark = 0;
};

/// Buffers a boundedly-disordered stamped stream and releases it in
/// canonical sorted order (see file comment). Movable, not copyable.
class ReorderStage {
 public:
  /// A stage tolerating stamps up to `allowed_lateness` behind the high
  /// watermark; later arrivals are dropped and counted (kDrop is the one
  /// policy). Requires allowed_lateness ≥ 0.
  ReorderStage(int64_t allowed_lateness, LatePolicy policy);

  ReorderStage(ReorderStage&&) = default;
  ReorderStage& operator=(ReorderStage&&) = default;
  ReorderStage(const ReorderStage&) = delete;
  ReorderStage& operator=(const ReorderStage&) = delete;

  /// Offers one arrival: judged against the lateness bound, then either
  /// buffered (possibly advancing the frontier and staging releases) or
  /// dropped.
  void Offer(const Point& p, int64_t stamp);

  /// Offers a batch in arrival order. Equivalent to Offer per element.
  void OfferBatch(Span<const Point> points, Span<const int64_t> stamps);

  /// Releases everything still buffered (end of stream, or a forced
  /// checkpoint): stages the remaining points in canonical order and
  /// advances the release bound past the high watermark, so later
  /// offers below it are late. The low watermark becomes the high
  /// watermark (event time has fully progressed).
  void Flush();

  /// Moves the staged released sequence into `points`/`stamps`
  /// (replacing their contents) and clears the staging area. Returns
  /// false (outputs untouched) when nothing is staged. Stamps are
  /// non-decreasing and ≥ every previously taken release.
  bool TakeReleased(std::vector<Point>* points, std::vector<int64_t>* stamps);

  /// Re-arms a fresh stage at a recovered release frontier (crash
  /// recovery, core/checkpoint.h): arrivals with stamp < `frontier` are
  /// judged late exactly as the pre-crash stage judged them, so a
  /// restored pipeline cannot re-admit stamps that were already released
  /// or late-dropped. Monotone — a frontier behind the current one is a
  /// no-op. The empty heap stays empty (points the crashed stage still
  /// buffered were never durable; see the recovery contract).
  void NoteFrontier(int64_t frontier) {
    has_watermark_ = true;
    if (frontier > max_stamp_) max_stamp_ = frontier;
    if (frontier > released_bound_) released_bound_ = frontier;
  }

  /// The release frontier itself (≥ watermark(); checkpoint headers carry
  /// this so recovery can re-arm lateness judgment via NoteFrontier).
  int64_t release_bound() const { return released_bound_; }

  /// False until the first offer.
  bool has_watermark() const { return has_watermark_; }
  /// High watermark: maximum stamp seen. Requires has_watermark().
  int64_t max_stamp() const { return max_stamp_; }
  /// Low watermark: every future released point has stamp ≥ this (the
  /// value to propagate downstream). Requires has_watermark().
  int64_t watermark() const {
    return released_bound_ < max_stamp_ ? released_bound_ : max_stamp_;
  }

  /// Current counters.
  ReorderStats stats() const;

  /// Approximate buffered state in machine words (heap entries plus the
  /// staged release arrays).
  size_t SpaceWords() const;

  int64_t allowed_lateness() const { return allowed_lateness_; }

  /// The canonical total order the stage releases in: by stamp, then
  /// dimension, then coordinate bit patterns (lexicographic on the raw
  /// IEEE-754 words, so -0.0 and +0.0 are distinct and exact duplicates
  /// are interchangeable). Exposed so tests and references can sort
  /// with the exact comparator the stage uses.
  static bool CanonicalLess(const Point& a, int64_t stamp_a, const Point& b,
                            int64_t stamp_b);

  /// Sorts the parallel arrays by CanonicalLess — the reference "sorted
  /// feed" of the arrival-order invariance tests.
  static void SortCanonical(std::vector<Point>* points,
                            std::vector<int64_t>* stamps);

 private:
  struct Held {
    Point point;
    int64_t stamp;
  };

  /// Moves every buffered point with stamp < `bound` into the staging
  /// arrays, in canonical order.
  void StageReleasesBelow(int64_t bound);

  int64_t allowed_lateness_;

  /// Min-heap by CanonicalLess (std::*_heap with a reversed comparator).
  std::vector<Held> heap_;
  /// Staged released sequence awaiting TakeReleased.
  std::vector<Point> released_points_;
  std::vector<int64_t> released_stamps_;

  bool has_watermark_ = false;
  int64_t max_stamp_ = 0;
  /// Everything with stamp < released_bound_ has been staged/released;
  /// an arrival below it is late. Monotone.
  int64_t released_bound_;

  uint64_t offered_ = 0;
  uint64_t released_ = 0;
  uint64_t late_dropped_ = 0;
};

/// The serialized bounded-lateness front end of ShardedSwSamplerPool's
/// late path: the ReorderStage (built with the pool, from its lateness
/// bound) plus the watermark-broadcast memory, grouped with the mutex
/// that guards them so the discipline is a compile-time fact (sibling
/// RL0_GUARDED_BY) while the owner — which holds this struct through a
/// unique_ptr — stays movable.
struct ReorderFrontEnd {
  explicit ReorderFrontEnd(int64_t allowed_lateness)
      : stage(allowed_lateness, LatePolicy::kDrop) {}

  Mutex mu;
  ReorderStage stage RL0_GUARDED_BY(mu);
  /// Last watermark broadcast downstream; duplicates are skipped so
  /// quiet feeds don't flood control chunks.
  bool watermark_sent RL0_GUARDED_BY(mu) = false;
  int64_t last_watermark RL0_GUARDED_BY(mu) = 0;
};

}  // namespace rl0

#endif  // RL0_CORE_REORDER_BUFFER_H_
