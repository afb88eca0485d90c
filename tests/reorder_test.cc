// Bounded-lateness reordering test battery (core/reorder_buffer.h).
//
// Four layers:
//
//   1. ReorderStage unit contracts: the strictly-below-frontier release
//      rule, equal-stamp ties releasing together, flush semantics,
//      drop counting of beyond-bound arrivals, watermark values, and
//      the canonical total order.
//
//   2. Differential fuzzing against a sort-then-feed reference: for
//      random disordered streams (duplicate-stamp-heavy included), the
//      released sequence after Flush must equal the canonical sort of
//      the within-bound survivors, the dropped count must equal the
//      size of the reference's late set, and the accounting identity
//      offered == released + late_dropped + buffered must hold after
//      every single offer. Beyond-bound points are never silently
//      lost: the drop counter reconciles exactly with the input size.
//
//   3. Sampler-level equivalence: a one-lane ShardedSwSamplerPool fed a
//      disordered stream through FeedStampedLate (the only reorder front
//      end) must end bit-identical (lane snapshot bytes, sample draws)
//      to a RobustL0SamplerSW fed the canonically sorted stream through
//      the strict path, and its window membership must agree with the
//      exact NaiveWindowSampler ground truth fed sorted.
//
//   4. Watermark-stall edges: event time advances past the last
//      released point (queries expire state the releases alone would
//      keep alive), and empty pool lanes still learn the watermark
//      through the pipeline's watermark chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rl0/baseline/naive_robust.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/stream/dataset.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/stream/window_stream.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

Point P(double x) { return Point{x}; }

/// offered == released + late_dropped + buffered.
void ExpectAccountingIdentity(const ReorderStats& s) {
  EXPECT_EQ(s.offered, s.released + s.late_dropped + s.buffered);
}

/// Drains the staged releases into flat vectors (appending).
void Take(ReorderStage* stage, std::vector<Point>* points,
          std::vector<int64_t>* stamps) {
  std::vector<Point> p;
  std::vector<int64_t> s;
  if (stage->TakeReleased(&p, &s)) {
    points->insert(points->end(), p.begin(), p.end());
    stamps->insert(stamps->end(), s.begin(), s.end());
  }
}

TEST(ReorderStageTest, ReleasesStrictlyBelowFrontier) {
  ReorderStage stage(10, LatePolicy::kDrop);
  std::vector<Point> points;
  std::vector<int64_t> stamps;

  stage.Offer(P(1), 90);
  stage.Offer(P(2), 100);  // frontier = 90: stamp 90 is NOT below it
  Take(&stage, &points, &stamps);
  EXPECT_TRUE(stamps.empty());
  EXPECT_EQ(stage.stats().buffered, 2u);

  stage.Offer(P(3), 101);  // frontier = 91: releases exactly stamp 90
  Take(&stage, &points, &stamps);
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0], 90);
  ExpectAccountingIdentity(stage.stats());
}

TEST(ReorderStageTest, TiesReleaseTogetherAtZeroLateness) {
  // Two equal-stamp arrivals separated by another offer of the same
  // stamp: at lateness 0 the frontier equals the max stamp, so the tie
  // stays buffered (stamp is not strictly below the frontier) until a
  // larger stamp arrives — then the whole tie releases in one batch, in
  // canonical (coordinate-bit) order regardless of arrival order.
  ReorderStage stage(0, LatePolicy::kDrop);
  std::vector<Point> points;
  std::vector<int64_t> stamps;

  stage.Offer(P(5), 7);
  Take(&stage, &points, &stamps);
  EXPECT_TRUE(stamps.empty());
  stage.Offer(P(3), 7);  // same stamp: still within bound, joins the tie
  Take(&stage, &points, &stamps);
  EXPECT_TRUE(stamps.empty());

  stage.Offer(P(9), 8);  // frontier = 8 > 7: the tie releases together
  Take(&stage, &points, &stamps);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], 7);
  EXPECT_EQ(stamps[1], 7);
  EXPECT_EQ(points[0][0], 3.0);  // canonical order, not arrival order
  EXPECT_EQ(points[1][0], 5.0);
}

TEST(ReorderStageTest, FlushReleasesEverythingAndAdvancesBound) {
  ReorderStage stage(100, LatePolicy::kDrop);
  stage.Offer(P(1), 50);
  stage.Offer(P(2), 10);
  stage.Offer(P(3), 30);
  stage.Flush();
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  Take(&stage, &points, &stamps);
  EXPECT_EQ(stamps, (std::vector<int64_t>{10, 30, 50}));
  const ReorderStats stats = stage.stats();
  EXPECT_EQ(stats.released, 3u);
  EXPECT_EQ(stats.buffered, 0u);
  EXPECT_EQ(stats.watermark, 50);  // low == high watermark after Flush
  EXPECT_EQ(stats.max_stamp, 50);
}

TEST(ReorderStageTest, OffersAfterFlushAreLate) {
  ReorderStage stage(5, LatePolicy::kDrop);
  stage.Offer(P(1), 100);
  stage.Flush();
  // Everything at or below the flushed high watermark has been
  // released; a re-offer inside that prefix cannot be slotted back in.
  stage.Offer(P(2), 100);
  stage.Offer(P(3), 96);
  EXPECT_EQ(stage.stats().late_dropped, 2u);
  // ... but time keeps flowing: a fresh in-bound stamp is accepted.
  stage.Offer(P(4), 101);
  EXPECT_EQ(stage.stats().late_dropped, 2u);
  EXPECT_EQ(stage.stats().buffered, 1u);
  ExpectAccountingIdentity(stage.stats());
}

TEST(ReorderStageTest, DropPolicyCountsBeyondBound) {
  ReorderStage stage(10, LatePolicy::kDrop);
  stage.Offer(P(1), 1000);
  stage.Offer(P(2), 989);  // frontier is 990: beyond the bound
  stage.Offer(P(3), 990);  // exactly at the frontier: within bound
  const ReorderStats stats = stage.stats();
  EXPECT_EQ(stats.late_dropped, 1u);
  EXPECT_EQ(stats.buffered, 2u);
  ExpectAccountingIdentity(stats);
}

TEST(ReorderStageTest, WatermarkIsBoundedByMaxStamp) {
  ReorderStage stage(10, LatePolicy::kDrop);
  EXPECT_FALSE(stage.has_watermark());
  stage.Offer(P(1), 100);
  ASSERT_TRUE(stage.has_watermark());
  // released_bound = 90, max = 100: the low watermark is 90.
  EXPECT_EQ(stage.watermark(), 90);
  EXPECT_EQ(stage.max_stamp(), 100);
  stage.Flush();
  // After Flush the release bound passes the max stamp; the low
  // watermark clamps to the max (event time equals the last stamp).
  EXPECT_EQ(stage.watermark(), 100);
}

TEST(ReorderStageTest, EmptyFlushIsSafe) {
  ReorderStage stage(3, LatePolicy::kDrop);
  stage.Flush();
  EXPECT_FALSE(stage.has_watermark());
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  EXPECT_FALSE(stage.TakeReleased(&points, &stamps));
  ExpectAccountingIdentity(stage.stats());
}

TEST(ReorderStageTest, CanonicalLessIsAStrictTotalOrder) {
  // Stamp dominates.
  EXPECT_TRUE(ReorderStage::CanonicalLess(P(9), 1, P(0), 2));
  EXPECT_FALSE(ReorderStage::CanonicalLess(P(0), 2, P(9), 1));
  // Equal stamps: coordinate bit patterns decide.
  EXPECT_TRUE(ReorderStage::CanonicalLess(P(1), 5, P(2), 5));
  EXPECT_FALSE(ReorderStage::CanonicalLess(P(2), 5, P(1), 5));
  // Exact duplicates are equivalent (not less either way).
  EXPECT_FALSE(ReorderStage::CanonicalLess(P(4), 5, P(4), 5));
  EXPECT_FALSE(ReorderStage::CanonicalLess(P(4), 5, P(4), 5));
  // -0.0 and +0.0 compare equal as doubles but have distinct bit
  // patterns — the canonical order must separate them deterministically.
  const bool neg_first = ReorderStage::CanonicalLess(P(-0.0), 5, P(0.0), 5);
  const bool pos_first = ReorderStage::CanonicalLess(P(0.0), 5, P(-0.0), 5);
  EXPECT_NE(neg_first, pos_first);
  // Dimension precedes coordinates.
  EXPECT_NE(ReorderStage::CanonicalLess(Point{1.0, 2.0}, 5, P(3), 5),
            ReorderStage::CanonicalLess(P(3), 5, Point{1.0, 2.0}, 5));
}

// ---------------------------------------------------------------------
// Layer 2: differential fuzzing vs the sort-then-feed reference.
// ---------------------------------------------------------------------

/// The reference split: a point is late iff its stamp runs more than
/// `lateness` behind the running maximum stamp at its arrival. (The
/// stage's released_bound_ equals running-max − lateness after every
/// offer, so this is exactly its admission rule.)
struct ReferenceSplit {
  std::vector<Point> survivor_points;
  std::vector<int64_t> survivor_stamps;
  std::vector<std::pair<Point, int64_t>> late;  // arrival order
};

ReferenceSplit SplitByLateness(const std::vector<Point>& points,
                               const std::vector<int64_t>& stamps,
                               int64_t lateness) {
  ReferenceSplit out;
  int64_t max_seen = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < points.size(); ++i) {
    if (stamps[i] > max_seen) max_seen = stamps[i];
    if (stamps[i] < max_seen - lateness) {
      out.late.emplace_back(points[i], stamps[i]);
    } else {
      out.survivor_points.push_back(points[i]);
      out.survivor_stamps.push_back(stamps[i]);
    }
  }
  return out;
}

TEST(ReorderFuzzTest, DifferentialVsSortThenFeedReference) {
  Xoshiro256pp rng(SplitMix64(20260807));
  const int64_t lateness_choices[] = {0, 1, 3, 17, 100};
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t lateness = lateness_choices[trial % 5];
    const size_t n = 20 + rng.NextBounded(200);
    // Duplicate-stamp-heavy disordered stream: a drifting clock with
    // ±jitter around a slowly advancing base, coarse stamp range so
    // equal stamps are common; bursts every so often leap ahead, making
    // earlier stamps beyond-bound.
    std::vector<Point> points;
    std::vector<int64_t> stamps;
    int64_t base = 0;
    for (size_t i = 0; i < n; ++i) {
      base += static_cast<int64_t>(rng.NextBounded(3));
      if (rng.NextBounded(16) == 0) base += lateness + 5;  // burst
      const int64_t jitter = static_cast<int64_t>(rng.NextBounded(7)) - 3;
      points.push_back(P(static_cast<double>(rng.NextBounded(32))));
      stamps.push_back(base + jitter);
    }

    SCOPED_TRACE("trial " + std::to_string(trial) + " lateness " +
                 std::to_string(lateness) + " n " + std::to_string(n));
    ReorderStage stage(lateness, LatePolicy::kDrop);
    std::vector<Point> released_points;
    std::vector<int64_t> released_stamps;
    for (size_t i = 0; i < n; ++i) {
      stage.Offer(points[i], stamps[i]);
      ExpectAccountingIdentity(stage.stats());
    }
    stage.Flush();
    Take(&stage, &released_points, &released_stamps);
    const uint64_t dropped = stage.stats().late_dropped;

    const ReferenceSplit ref = SplitByLateness(points, stamps, lateness);
    // Beyond-bound points are never silently lost: the drop counter
    // reconciles exactly with the input size...
    ASSERT_EQ(released_points.size() + dropped, n);
    // ... and matches the reference late set.
    ASSERT_EQ(dropped, ref.late.size());
    // The released sequence is the canonical sort of the survivors.
    std::vector<Point> sorted_points = ref.survivor_points;
    std::vector<int64_t> sorted_stamps = ref.survivor_stamps;
    ReorderStage::SortCanonical(&sorted_points, &sorted_stamps);
    ASSERT_EQ(released_stamps, sorted_stamps);
    for (size_t i = 0; i < released_points.size(); ++i) {
      EXPECT_EQ(released_points[i], sorted_points[i]);
    }
    // Final stats: buffered == 0 after Flush, identity holds.
    const ReorderStats stats = stage.stats();
    EXPECT_EQ(stats.buffered, 0u);
    EXPECT_EQ(stats.released, released_points.size());
    EXPECT_EQ(stats.late_dropped, ref.late.size());
    ExpectAccountingIdentity(stats);
  }
}

TEST(ReorderFuzzTest, BoundedDisorderGeneratorsNeverExceedTheBound) {
  // DisorderWithinBound/DisorderSkewed promise stamps at most `bound`
  // behind the running maximum — so a stage with that exact bound must
  // drop nothing and release the canonical sort of the whole stream.
  const BaseDataset base = RandomUniform(60, 2, 11);
  NearDupOptions nd;
  nd.max_dups = 6;
  nd.seed = 12;
  const NoisyDataset data = MakeNearDuplicates(base, nd);
  for (const int64_t bound : {1, 16, 256}) {
    for (const bool skewed : {false, true}) {
      SCOPED_TRACE("bound " + std::to_string(bound) +
                   (skewed ? " skewed" : " uniform"));
      const std::vector<StampedPoint> sorted = TimeStamped(data, 4, 99);
      const std::vector<StampedPoint> disordered =
          skewed ? DisorderSkewed(sorted, bound, 7)
                 : DisorderWithinBound(sorted, bound, 7);
      ASSERT_EQ(disordered.size(), sorted.size());
      std::vector<Point> points;
      std::vector<int64_t> stamps;
      SplitStamped(disordered, &points, &stamps);

      ReorderStage stage(bound, LatePolicy::kDrop);
      stage.OfferBatch(Span<const Point>(points),
                       Span<const int64_t>(stamps));
      stage.Flush();
      std::vector<Point> released_points;
      std::vector<int64_t> released_stamps;
      Take(&stage, &released_points, &released_stamps);
      EXPECT_EQ(stage.stats().late_dropped, 0u);
      ASSERT_EQ(released_points.size(), sorted.size());

      std::vector<Point> expect_points;
      std::vector<int64_t> expect_stamps;
      SplitStamped(sorted, &expect_points, &expect_stamps);
      ReorderStage::SortCanonical(&expect_points, &expect_stamps);
      EXPECT_EQ(released_stamps, expect_stamps);
      for (size_t i = 0; i < released_points.size(); ++i) {
        EXPECT_EQ(released_points[i], expect_points[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Layer 3: sampler-level equivalence.
// ---------------------------------------------------------------------

SamplerOptions LateOptions(uint64_t seed, int64_t lateness) {
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.expected_stream_length = 1 << 12;
  opts.allowed_lateness = lateness;
  return opts;
}

/// A disordered 1-d revisit stream: group centers 10 apart, stamps a
/// jittered clock bounded within `lateness` of the running maximum.
void DisorderedStream(size_t n, size_t groups, int64_t lateness,
                      uint64_t seed, std::vector<Point>* points,
                      std::vector<int64_t>* stamps) {
  Xoshiro256pp rng(SplitMix64(seed));
  std::vector<StampedPoint> stream;
  int64_t now = 0;
  for (size_t i = 0; i < n; ++i) {
    now += 1 + static_cast<int64_t>(rng.NextBounded(3));
    const size_t g = rng.NextBounded(groups);
    StampedPoint sp;
    sp.point =
        Point{10.0 * static_cast<double>(g) + 0.3 * (rng.NextDouble() - 0.5)};
    sp.stamp = now;
    stream.push_back(sp);
  }
  stream = DisorderWithinBound(stream, lateness, seed + 1);
  SplitStamped(stream, points, stamps);
}

TEST(ReorderSamplerTest, LateFeedIsBitIdenticalToStrictSortedFeed) {
  for (const int64_t lateness : {0, 7, 64}) {
    SCOPED_TRACE("lateness " + std::to_string(lateness));
    std::vector<Point> points;
    std::vector<int64_t> stamps;
    DisorderedStream(1500, 40, lateness, 21 + lateness, &points, &stamps);

    auto late_fed =
        ShardedSwSamplerPool::Create(LateOptions(5, lateness), 50, 1).value();
    for (size_t i = 0; i < points.size(); ++i) {
      late_fed.FeedStampedLate(Span<const Point>(&points[i], 1),
                               Span<const int64_t>(&stamps[i], 1));
    }
    late_fed.FlushLate();
    late_fed.Drain();
    EXPECT_EQ(late_fed.late_stats().late_dropped, 0u);
    EXPECT_EQ(late_fed.late_stats().released, points.size());

    std::vector<Point> sorted_points = points;
    std::vector<int64_t> sorted_stamps = stamps;
    ReorderStage::SortCanonical(&sorted_points, &sorted_stamps);
    auto strict = RobustL0SamplerSW::Create(LateOptions(5, lateness), 50)
                      .value();
    for (size_t i = 0; i < sorted_points.size(); ++i) {
      strict.Insert(sorted_points[i], sorted_stamps[i]);
    }

    // Snapshot bytes are bit-identical: the reorder stage and the event
    // watermark are scratch state, never serialized.
    std::string late_blob;
    std::string strict_blob;
    ASSERT_TRUE(SnapshotSamplerSW(late_fed.shard(0), &late_blob).ok());
    ASSERT_TRUE(SnapshotSamplerSW(strict, &strict_blob).ok());
    EXPECT_EQ(late_blob, strict_blob);

    // And so are the query draws (same rng stream on both sides).
    Xoshiro256pp rng_a(SplitMix64(77));
    Xoshiro256pp rng_b(SplitMix64(77));
    for (int q = 0; q < 16; ++q) {
      const auto a = late_fed.SampleLatest(&rng_a);
      const auto b = strict.SampleLatest(&rng_b);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_EQ(a->point, b->point);
        EXPECT_EQ(a->stream_index, b->stream_index);
      }
    }
  }
}

TEST(ReorderSamplerTest, WindowMembershipMatchesNaiveGroundTruth) {
  // Beyond-bound points included this time: the late-fed sampler's
  // window population must match the naive sampler fed the sorted
  // *survivors* (dropped points are out of both worlds by definition).
  Xoshiro256pp stream_rng(SplitMix64(31337));
  const int64_t lateness = 5;
  const int64_t window = 40;
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  int64_t base = 0;
  for (size_t i = 0; i < 800; ++i) {
    base += static_cast<int64_t>(stream_rng.NextBounded(3));
    if (stream_rng.NextBounded(32) == 0) base += 30;  // bursts
    const int64_t jitter =
        static_cast<int64_t>(stream_rng.NextBounded(17)) - 8;
    const size_t g = stream_rng.NextBounded(25);
    points.push_back(Point{10.0 * static_cast<double>(g)});
    stamps.push_back(base + jitter);
  }

  auto sampler =
      ShardedSwSamplerPool::Create(LateOptions(3, lateness), window, 1)
          .value();
  for (size_t i = 0; i < points.size(); ++i) {
    sampler.FeedStampedLate(Span<const Point>(&points[i], 1),
                            Span<const int64_t>(&stamps[i], 1));
  }
  sampler.FlushLate();
  sampler.Drain();
  const ReorderStats stats = sampler.late_stats();
  const ReferenceSplit ref = SplitByLateness(points, stamps, lateness);
  EXPECT_EQ(stats.late_dropped, ref.late.size());
  EXPECT_EQ(stats.released, ref.survivor_points.size());

  std::vector<Point> sorted_points = ref.survivor_points;
  std::vector<int64_t> sorted_stamps = ref.survivor_stamps;
  ReorderStage::SortCanonical(&sorted_points, &sorted_stamps);
  NaiveWindowSampler naive(1.0, window);
  for (size_t i = 0; i < sorted_points.size(); ++i) {
    naive.Insert(sorted_points[i], sorted_stamps[i]);
  }

  const int64_t now = sampler.now();
  EXPECT_EQ(now, *std::max_element(stamps.begin(), stamps.end()));
  EXPECT_EQ(sampler.shard(0).watermark(), now);
  const std::vector<SampleItem> accepted = sampler.MergedWindowItems(now);
  const size_t alive = naive.GroupsAlive(now);
  if (alive == 0) {
    EXPECT_TRUE(accepted.empty());
  } else {
    // Every surfaced member must carry an in-window stamp of a group
    // the ground truth considers alive (centers are 10 apart, so the
    // group id is just the coordinate).
    for (const SampleItem& item : accepted) {
      const int64_t stamp = sorted_stamps[item.stream_index];
      EXPECT_GT(stamp, now - window);
      EXPECT_LE(stamp, now);
    }
  }
  Xoshiro256pp rng(SplitMix64(9));
  const auto draw = sampler.SampleLatest(&rng);
  if (alive == 0) {
    EXPECT_FALSE(draw.has_value());
  }
}

// ---------------------------------------------------------------------
// Layer 4: watermark-stall edges.
// ---------------------------------------------------------------------

TEST(ReorderWatermarkTest, EventTimeAdvancesPastTheLastRelease) {
  // Window 50, lateness 10. A buffered-but-unreleased arrival still
  // advances event time via the watermark, expiring state that the
  // released prefix alone would keep alive.
  auto sampler =
      ShardedSwSamplerPool::Create(LateOptions(1, 10), 50, 1).value();
  Xoshiro256pp rng(SplitMix64(4));
  const auto offer = [&sampler](double x, int64_t stamp) {
    const Point p = P(x);
    sampler.FeedStampedLate(Span<const Point>(&p, 1),
                            Span<const int64_t>(&stamp, 1));
    sampler.Drain();
  };

  offer(1, 100);
  // Nothing released yet (frontier 90), but the watermark is 90.
  EXPECT_EQ(sampler.points_processed(), 0u);
  EXPECT_EQ(sampler.shard(0).watermark(), 90);
  EXPECT_EQ(sampler.now(), 90);
  EXPECT_FALSE(sampler.SampleLatest(&rng).has_value());

  offer(2, 200);
  // Frontier 190 releases the stamp-100 point; event time is now 190,
  // so its window (140, 190] has already expired it.
  EXPECT_EQ(sampler.points_processed(), 1u);
  EXPECT_EQ(sampler.shard(0).watermark(), 190);
  EXPECT_EQ(sampler.now(), 190);
  EXPECT_FALSE(sampler.SampleLatest(&rng).has_value());

  sampler.FlushLate();
  sampler.Drain();
  // The stamp-200 point lands; event time 200; the window holds it.
  EXPECT_EQ(sampler.shard(0).watermark(), 200);
  EXPECT_EQ(sampler.now(), 200);
  const auto draw = sampler.SampleLatest(&rng);
  ASSERT_TRUE(draw.has_value());
  EXPECT_EQ(draw->point, P(2));
}

TEST(ReorderWatermarkTest, EmptyPoolLanesLearnTheWatermark) {
  // 4 lanes, 2 released points: lanes 2 and 3 never see a point, but the
  // watermark chunks ride every lane — so even empty shards know how far
  // event time has progressed.
  auto pool =
      ShardedSwSamplerPool::Create(LateOptions(8, 10), 100, 4).value();
  const std::vector<Point> points = {P(1), P(2)};
  const std::vector<int64_t> stamps = {0, 1000};
  pool.FeedStampedLate(Span<const Point>(points),
                       Span<const int64_t>(stamps));
  pool.FlushLate();
  pool.Drain();
  EXPECT_EQ(pool.late_stats().released, 2u);
  size_t with_points = 0;
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(pool.shard(s).watermark(), 1000);
    with_points += pool.shard(s).points_processed() > 0 ? 1 : 0;
  }
  EXPECT_EQ(with_points, 2u);
}

}  // namespace
}  // namespace rl0
