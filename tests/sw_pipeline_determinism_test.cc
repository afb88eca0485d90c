// Window-semantics test battery for the sliding-window pipeline (the
// SW analogue of pipeline_determinism_test.cc).
//
// Three layers of bit-for-bit contracts:
//
//   1. Per-lane invariance: lane s of a windowed pool consumes the points
//      at *global* stream positions ≡ s (mod S), stamped with their
//      global position. Its input — including its window-expiry schedule
//      — depends only on (stream, S), never on how the feed was chunked,
//      how chunks straddle expiry boundaries, or how many producers fed.
//      Every lane must equal a pointwise reference sampler fed the same
//      substream in one call, field-for-field across all levels,
//      reservoirs included. This holds at every rate (split cascades
//      through the arena-internal PromoteInto are deterministic).
//
//   2. One-lane == pointwise: a single-lane pool is the pointwise
//      RobustL0SamplerSW, so any chunking must reproduce the pointwise
//      sampler bit-for-bit, query draws included.
//
//   3. Merged window view at rate 1: every merged item is the true latest
//      window point of a live group of the union stream (checked against
//      the exact windowed partition baseline), at most one item per
//      group, the newest arrival's group is always covered, and the
//      merged vector is invariant under re-chunking.
//
// Plus the refactor pin: the flat-index sampler (core/sw_group_table.h,
// PromoteInto) against the node-based LegacySwSampler, and the exact
// window-tracking guarantee of Algorithm 2 at rate 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "rl0/baseline/exact_partition.h"
#include "rl0/baseline/legacy_sw_sampler.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/core/worker_fleet.h"
#include "rl0/core/sw_fixed_sampler.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

SamplerOptions BaseOptions(uint64_t seed) {
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.expected_stream_length = 1 << 14;
  return opts;
}

/// A revisit stream with genuine expiry: `groups` centers 10 apart; after
/// `die_off · n` points only the upper half of the groups keeps arriving,
/// so the lower half expires out of any window ending near the stream's
/// end. Stamps are the stream indices.
std::vector<Point> RevisitStream(size_t n, size_t groups, uint64_t seed,
                                 double die_off = 0.5) {
  std::vector<Point> points;
  points.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed));
  const size_t cutoff = static_cast<size_t>(die_off * static_cast<double>(n));
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i < cutoff ? 0 : groups / 2;
    const size_t g = lo + static_cast<size_t>(rng.NextBounded(groups - lo));
    points.push_back(
        Point{10.0 * static_cast<double>(g) + 0.3 * (rng.NextDouble() - 0.5)});
  }
  return points;
}

bool SameRecord(const GroupRecord& a, const GroupRecord& b) {
  if (a.id != b.id || a.rep_index != b.rep_index ||
      a.rep_cell != b.rep_cell || a.accepted != b.accepted ||
      a.latest_stamp != b.latest_stamp || a.latest_index != b.latest_index) {
    return false;
  }
  if (a.rep != b.rep || a.latest != b.latest) return false;
  if (a.reservoir.size() != b.reservoir.size()) return false;
  for (size_t i = 0; i < a.reservoir.size(); ++i) {
    const auto& ca = a.reservoir[i];
    const auto& cb = b.reservoir[i];
    if (ca.priority != cb.priority || ca.stamp != cb.stamp ||
        ca.stream_index != cb.stream_index || ca.point != cb.point) {
      return false;
    }
  }
  return true;
}

/// Per-level group records sorted by id (canonical: storage order is an
/// implementation detail of both layouts).
template <typename Sampler>
std::vector<std::vector<GroupRecord>> LevelSnapshots(const Sampler& s) {
  std::vector<std::vector<GroupRecord>> out(s.num_levels());
  for (size_t l = 0; l < s.num_levels(); ++l) {
    s.level(l).SnapshotGroups(&out[l]);
    std::sort(out[l].begin(), out[l].end(),
              [](const GroupRecord& a, const GroupRecord& b) {
                return a.id < b.id;
              });
  }
  return out;
}

template <typename SamplerA, typename SamplerB>
void ExpectSameLevelState(const SamplerA& a, const SamplerB& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  const auto snap_a = LevelSnapshots(a);
  const auto snap_b = LevelSnapshots(b);
  for (size_t l = 0; l < snap_a.size(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    ASSERT_EQ(snap_a[l].size(), snap_b[l].size());
    for (size_t i = 0; i < snap_a[l].size(); ++i) {
      EXPECT_TRUE(SameRecord(snap_a[l][i], snap_b[l][i]))
          << "group " << i << " (id " << snap_a[l][i].id << " vs "
          << snap_b[l][i].id << ") differs";
    }
  }
}

/// Feeds `points` in randomized chunk sizes (deterministic per seed);
/// optionally drains after every chunk.
void FeedRandomChunks(ShardedSwSamplerPool* pool, Span<const Point> points,
                      uint64_t chunk_seed, size_t max_chunk,
                      bool drain_between = false) {
  Xoshiro256pp rng(chunk_seed);
  size_t offset = 0;
  while (offset < points.size()) {
    const size_t chunk = 1 + static_cast<size_t>(rng.NextBounded(max_chunk));
    pool->Feed(points.subspan(offset, chunk));
    offset += chunk;
    if (drain_between) pool->Drain();
  }
  pool->Drain();
}

TEST(SwPipelineDeterminismTest, OneLaneMatchesPointwiseAcrossChunkings) {
  const std::vector<Point> points = RevisitStream(3000, 120, 41);
  const int64_t window = 257;
  const SamplerOptions opts = BaseOptions(901);  // natural cap: splits run

  auto pointwise = RobustL0SamplerSW::Create(opts, window).value();
  for (const Point& p : points) pointwise.Insert(p);

  struct Chunking {
    uint64_t seed;
    size_t max_chunk;
    bool drain_between;
  };
  // max_chunk 1024 >> window: single chunks straddle several expiry
  // horizons; max_chunk 7: expiry boundaries straddle many chunks.
  for (const Chunking c : {Chunking{11, 7, false}, Chunking{12, 97, true},
                           Chunking{13, 1024, false}}) {
    SCOPED_TRACE(c.seed);
    auto pool = ShardedSwSamplerPool::Create(opts, window, 1).value();
    FeedRandomChunks(&pool, points, c.seed, c.max_chunk, c.drain_between);
    EXPECT_EQ(pool.points_processed(), points.size());
    EXPECT_EQ(pool.now(), static_cast<int64_t>(points.size()) - 1);
    ExpectSameLevelState(pool.shard(0), pointwise);
    EXPECT_EQ(pool.SpaceWords(), pointwise.SpaceWords());

    // Query parity: same state, same query randomness, same draw.
    Xoshiro256pp rng_pool(777), rng_ref(777);
    const auto from_pool = pool.SampleLatest(&rng_pool);
    const auto from_ref = pointwise.SampleLatest(&rng_ref);
    ASSERT_EQ(from_pool.has_value(), from_ref.has_value());
    if (from_pool.has_value()) {
      EXPECT_EQ(from_pool->stream_index, from_ref->stream_index);
      EXPECT_EQ(from_pool->point, from_ref->point);
    }
  }
}

TEST(SwPipelineDeterminismTest, PerLaneStateInvariantUnderRechunking) {
  const std::vector<Point> points = RevisitStream(3000, 120, 42);
  const int64_t window = 311;
  const SamplerOptions opts = BaseOptions(902);  // natural cap

  for (const size_t lanes : {2, 8}) {
    SCOPED_TRACE(lanes);
    // Reference per lane: the strided substream in one pointwise call.
    std::vector<RobustL0SamplerSW> refs;
    for (size_t s = 0; s < lanes; ++s) {
      refs.push_back(RobustL0SamplerSW::Create(opts, window).value());
      refs.back().InsertStrided(points, s, lanes, 0);
    }

    auto tiny = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunks(&tiny, points, 21, /*max_chunk=*/13);
    auto big = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunks(&big, points, 22, /*max_chunk=*/900,
                     /*drain_between=*/true);

    for (size_t s = 0; s < lanes; ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(tiny.shard(s).points_processed(),
                refs[s].points_processed());
      ExpectSameLevelState(tiny.shard(s), refs[s]);
      ExpectSameLevelState(big.shard(s), refs[s]);
    }
  }
}

TEST(SwPipelineDeterminismTest, MergedWindowItemsExactAndRechunkInvariant) {
  const std::vector<Point> points = RevisitStream(4000, 100, 43);
  const int64_t window = 701;
  SamplerOptions opts = BaseOptions(903);
  opts.accept_cap = 1 << 20;  // rate 1: no cascades anywhere
  const int64_t now = static_cast<int64_t>(points.size()) - 1;
  const WindowedGroupTruth truth =
      ExactWindowGroups(points, opts.alpha, window, now);
  ASSERT_GT(truth.live_groups.size(), 0u);
  ASSERT_LT(truth.live_groups.size(), truth.num_groups);  // some expired

  auto pointwise = RobustL0SamplerSW::Create(opts, window).value();
  for (const Point& p : points) pointwise.Insert(p);

  for (const size_t lanes : {1, 2, 8}) {
    SCOPED_TRACE(lanes);
    auto pool = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunks(&pool, points, 31, /*max_chunk=*/257);
    std::vector<SampleItem> merged = pool.MergedWindowItems(now);
    ASSERT_FALSE(merged.empty());

    std::set<uint32_t> reported;
    for (const SampleItem& item : merged) {
      // Every reported item is a genuine window point, bit-for-bit.
      ASSERT_LT(item.stream_index, points.size());
      const int64_t stamp = static_cast<int64_t>(item.stream_index);
      EXPECT_GT(stamp, now - window);
      EXPECT_EQ(item.point, points[item.stream_index]);
      // ... of a live group, at most one report per group. A lane
      // reports its *sub-view's* latest point of the group, which can
      // trail the union's latest when the lane owning the newest point
      // no longer tracks the group (Algorithm 3's lower-level pruning);
      // with one lane the view is the union and the latest is exact.
      const uint32_t group = truth.group_of[item.stream_index];
      EXPECT_TRUE(truth.IsLive(group));
      EXPECT_TRUE(reported.insert(group).second)
          << "group " << group << " reported twice";
      EXPECT_LE(item.stream_index, truth.latest_in_window[group]);
      if (lanes == 1) {
        EXPECT_EQ(item.stream_index, truth.latest_in_window[group]);
      }
    }
    // Lemma 2.10: the newest arrival's group is always tracked — by the
    // lane that owns the newest point, at that point — so the merged
    // latest-wins view reports it with the exact union latest.
    const uint32_t newest_group = truth.group_of[points.size() - 1];
    ASSERT_TRUE(reported.count(newest_group));
    for (const SampleItem& item : merged) {
      if (truth.group_of[item.stream_index] == newest_group) {
        EXPECT_EQ(item.stream_index, points.size() - 1);
      }
    }

    // Invariance under re-chunking (order included).
    auto pool2 = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunks(&pool2, points, 32, /*max_chunk=*/19,
                     /*drain_between=*/true);
    const std::vector<SampleItem> merged2 = pool2.MergedWindowItems(now);
    ASSERT_EQ(merged2.size(), merged.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged2[i].stream_index, merged[i].stream_index);
      EXPECT_EQ(merged2[i].point, merged[i].point);
    }

    // One lane is the pointwise sampler: the merged view must equal the
    // pointwise accepted-group union exactly.
    if (lanes == 1) {
      std::vector<SampleItem> reference;
      pointwise.AcceptedWindowItems(now, &reference);
      ASSERT_EQ(merged.size(), reference.size());
      for (size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].stream_index, reference[i].stream_index);
        EXPECT_EQ(merged[i].point, reference[i].point);
      }
    }
  }
}

/// Non-decreasing stamps with jitter gaps in {1..5} and, every
/// `burst_every` points, a jump past `burst` whole stamp units (set
/// burst > window to expire entire windows at once).
std::vector<int64_t> JitterStamps(size_t n, uint64_t seed,
                                  size_t burst_every, int64_t burst) {
  std::vector<int64_t> stamps;
  stamps.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed ^ 0x5354414DULL));
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    if (burst_every != 0 && i != 0 && i % burst_every == 0) {
      t += burst;
    } else {
      t += 1 + static_cast<int64_t>(rng.NextBounded(5));
    }
    stamps.push_back(t);
  }
  return stamps;
}

/// Feeds a stamped stream in randomized chunk sizes (deterministic per
/// seed), alternating the copy and the borrowed feed variants.
void FeedRandomChunksStamped(ShardedSwSamplerPool* pool,
                             Span<const Point> points,
                             Span<const int64_t> stamps, uint64_t chunk_seed,
                             size_t max_chunk, bool drain_between = false) {
  Xoshiro256pp rng(chunk_seed);
  size_t offset = 0;
  bool borrowed = false;
  while (offset < points.size()) {
    const size_t chunk = 1 + static_cast<size_t>(rng.NextBounded(max_chunk));
    const Span<const Point> p = points.subspan(offset, chunk);
    const Span<const int64_t> s = stamps.subspan(offset, chunk);
    if (borrowed) {
      pool->FeedBorrowedStamped(p, s);
    } else {
      pool->FeedStamped(p, s);
    }
    borrowed = !borrowed;
    offset += chunk;
    if (drain_between) pool->Drain();
  }
  pool->Drain();
}

TEST(SwPipelineDeterminismTest, TimeStampedOneLaneMatchesPointwise) {
  // The time-based pipeline's core contract: a one-lane pool fed stamped
  // chunks of any size — including chunks straddling stamp bursts that
  // expire whole windows — reproduces the pointwise explicit-stamp
  // sampler bit-for-bit, query draws included.
  const std::vector<Point> points = RevisitStream(3000, 120, 46);
  const int64_t window = 257;
  // Bursts of 3 windows every 500 points: whole windows expire inside a
  // single chunk.
  const std::vector<int64_t> stamps =
      JitterStamps(points.size(), 77, 500, 3 * window);
  const SamplerOptions opts = BaseOptions(906);  // natural cap: splits run

  auto pointwise = RobustL0SamplerSW::Create(opts, window).value();
  for (size_t i = 0; i < points.size(); ++i) {
    pointwise.Insert(points[i], stamps[i]);
  }

  struct Chunking {
    uint64_t seed;
    size_t max_chunk;
    bool drain_between;
  };
  for (const Chunking c : {Chunking{14, 7, false}, Chunking{15, 97, true},
                           Chunking{16, 1024, false}}) {
    SCOPED_TRACE(c.seed);
    auto pool = ShardedSwSamplerPool::Create(opts, window, 1).value();
    FeedRandomChunksStamped(&pool, points, stamps, c.seed, c.max_chunk,
                            c.drain_between);
    EXPECT_EQ(pool.points_processed(), points.size());
    EXPECT_EQ(pool.now(), stamps.back());  // time mode: now = last stamp
    ExpectSameLevelState(pool.shard(0), pointwise);
    EXPECT_EQ(pool.SpaceWords(), pointwise.SpaceWords());

    Xoshiro256pp rng_pool(778), rng_ref(778);
    const auto from_pool = pool.SampleLatest(&rng_pool);
    const auto from_ref = pointwise.SampleLatest(&rng_ref);
    ASSERT_EQ(from_pool.has_value(), from_ref.has_value());
    if (from_pool.has_value()) {
      EXPECT_EQ(from_pool->stream_index, from_ref->stream_index);
      EXPECT_EQ(from_pool->point, from_ref->point);
    }
  }
}

TEST(SwPipelineDeterminismTest, TimeStampedPerLaneInvariantUnderRechunking) {
  // Lane s of a stamped pool consumes the global residue class s (mod S)
  // with its explicit stamps; its state must equal a pointwise reference
  // fed the same stamped substream in one call, for any chunking.
  const std::vector<Point> points = RevisitStream(3000, 120, 47);
  const int64_t window = 311;
  const std::vector<int64_t> stamps =
      JitterStamps(points.size(), 78, 650, 2 * window + 11);
  const SamplerOptions opts = BaseOptions(907);  // natural cap

  for (const size_t lanes : {2, 8}) {
    SCOPED_TRACE(lanes);
    std::vector<RobustL0SamplerSW> refs;
    for (size_t s = 0; s < lanes; ++s) {
      refs.push_back(RobustL0SamplerSW::Create(opts, window).value());
      refs.back().InsertStridedStamped(points, stamps, s, lanes, 0);
    }

    auto tiny = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunksStamped(&tiny, points, stamps, 23, /*max_chunk=*/13);
    auto big = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunksStamped(&big, points, stamps, 24, /*max_chunk=*/900,
                            /*drain_between=*/true);

    for (size_t s = 0; s < lanes; ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(tiny.shard(s).points_processed(),
                refs[s].points_processed());
      EXPECT_EQ(tiny.shard(s).latest_stamp(), refs[s].latest_stamp());
      ExpectSameLevelState(tiny.shard(s), refs[s]);
      ExpectSameLevelState(big.shard(s), refs[s]);
    }
  }
}

TEST(SwPipelineDeterminismTest, TimeStampedMergedViewNeverReportsExpired) {
  // Merged-query window semantics in time mode: no reported item's stamp
  // may have left the window, at any lane count, and the merged view is
  // invariant under re-chunking of the stamped feed.
  const std::vector<Point> points = RevisitStream(4000, 100, 48);
  const int64_t window = 701;
  const std::vector<int64_t> stamps =
      JitterStamps(points.size(), 79, 900, 2 * window);
  SamplerOptions opts = BaseOptions(908);
  opts.accept_cap = 1 << 20;  // rate 1
  const int64_t now = stamps.back();

  for (const size_t lanes : {1, 2, 8}) {
    SCOPED_TRACE(lanes);
    auto pool = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunksStamped(&pool, points, stamps, 33, /*max_chunk=*/257);
    const std::vector<SampleItem> merged = pool.MergedWindowItems(now);
    ASSERT_FALSE(merged.empty());
    for (const SampleItem& item : merged) {
      ASSERT_LT(item.stream_index, points.size());
      EXPECT_GT(stamps[item.stream_index], now - window);
      EXPECT_LE(stamps[item.stream_index], now);
      EXPECT_EQ(item.point, points[item.stream_index]);
    }

    auto pool2 = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunksStamped(&pool2, points, stamps, 34, /*max_chunk=*/19,
                            /*drain_between=*/true);
    const std::vector<SampleItem> merged2 = pool2.MergedWindowItems(now);
    ASSERT_EQ(merged2.size(), merged.size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged2[i].stream_index, merged[i].stream_index);
    }
  }
}

TEST(SwPipelineDeterminismTest, UnifiedQueryPoolDedupesAndPassesThrough) {
  // The cross-shard query-pool fixes of this PR: (a) one lane consumes
  // no extra randomness and reproduces the pointwise WindowQueryPool
  // bit-for-bit; (b) with several lanes the merged pool holds at most
  // one entry per underlying group (α-proximity dedupe) and every entry
  // is a live window member; (c) the pool is invariant under re-chunking
  // for identical query randomness.
  const std::vector<Point> points = RevisitStream(3000, 120, 49);
  const int64_t window = 401;
  const SamplerOptions opts = BaseOptions(909);  // natural cap: deep levels
  const int64_t now = static_cast<int64_t>(points.size()) - 1;
  const WindowedGroupTruth truth =
      ExactWindowGroups(points, opts.alpha, window, now);

  auto pointwise = RobustL0SamplerSW::Create(opts, window).value();
  for (const Point& p : points) pointwise.Insert(p);

  for (const size_t lanes : {1, 2, 8}) {
    SCOPED_TRACE(lanes);
    auto pool = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunks(&pool, points, 35, /*max_chunk=*/300);

    Xoshiro256pp rng_a(4242);
    const std::vector<SampleItem> unified = pool.UnifiedQueryPool(now, &rng_a);
    ASSERT_FALSE(unified.empty());
    std::set<uint32_t> groups;
    for (const SampleItem& item : unified) {
      ASSERT_LT(item.stream_index, points.size());
      const uint32_t group = truth.group_of[item.stream_index];
      EXPECT_TRUE(truth.IsLive(group));
      EXPECT_TRUE(groups.insert(group).second)
          << "group " << group << " entered the unified pool twice";
    }

    if (lanes == 1) {
      Xoshiro256pp rng_b(4242);
      const std::vector<SampleItem> reference =
          pointwise.WindowQueryPool(now, &rng_b);
      ASSERT_EQ(unified.size(), reference.size());
      for (size_t i = 0; i < unified.size(); ++i) {
        EXPECT_EQ(unified[i].stream_index, reference[i].stream_index);
      }
      // ... and the draw after the pool build stays in lockstep too.
      EXPECT_EQ(rng_a(), rng_b());
    }

    // Re-chunk invariance with identical query randomness.
    auto pool2 = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    FeedRandomChunks(&pool2, points, 36, /*max_chunk=*/23,
                     /*drain_between=*/true);
    Xoshiro256pp rng_c(4242);
    const std::vector<SampleItem> unified2 =
        pool2.UnifiedQueryPool(now, &rng_c);
    ASSERT_EQ(unified2.size(), unified.size());
    for (size_t i = 0; i < unified.size(); ++i) {
      EXPECT_EQ(unified2[i].stream_index, unified[i].stream_index);
    }
  }
}

TEST(SwPipelineDeterminismTest, LegacyDifferentialPinsTheRefactor) {
  const std::vector<Point> points = RevisitStream(2500, 90, 44);
  const int64_t window = 199;

  struct Config {
    const char* name;
    size_t accept_cap;  // 0 = natural cap
    bool reservoir;
  };
  // Reservoir mode is pinned at rate 1 (no splits): across splits the
  // refactored hierarchy intentionally preserves reservoir coin streams
  // (PromoteInto) where the legacy path reseeds — decisions still match,
  // reservoir priorities legitimately do not.
  for (const Config c : {Config{"rate1", 1 << 20, false},
                         Config{"rate1+reservoir", 1 << 20, true},
                         Config{"natural-cap", 0, false}}) {
    SCOPED_TRACE(c.name);
    SamplerOptions opts = BaseOptions(904);
    opts.accept_cap = c.accept_cap;
    opts.random_representative = c.reservoir;

    auto flat = RobustL0SamplerSW::Create(opts, window).value();
    auto legacy = LegacySwSampler::Create(opts, window).value();
    for (const Point& p : points) {
      flat.Insert(p);
      legacy.Insert(p);
    }
    EXPECT_EQ(flat.error_count(), legacy.error_count());
    EXPECT_EQ(flat.stuck_split_count(), legacy.stuck_split_count());
    EXPECT_EQ(flat.SpaceWords(), legacy.SpaceWords());
    ExpectSameLevelState(flat, legacy);
  }
}

TEST(SwPipelineDeterminismTest, FixedRateLevelZeroTracksExactWindowGroups) {
  // Algorithm 2 at level 0 (rate 1) tracks *exactly* the live window
  // groups, each with its true latest point — the crisp rate-1 window
  // contract the flat group table must preserve, checked against the
  // exact windowed partition baseline at several cut points.
  const std::vector<Point> points = RevisitStream(1500, 60, 45);
  const int64_t window = 167;
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(905), 0, window)
          .value();
  size_t next = 0;
  for (const int64_t cut : {400, 900, 1499}) {
    for (; next <= static_cast<size_t>(cut); ++next) {
      sampler->Insert(points[next], static_cast<int64_t>(next));
    }
    const WindowedGroupTruth truth =
        ExactWindowGroups(points, 1.0, window, cut);
    std::vector<GroupRecord> groups;
    sampler->SnapshotGroups(&groups);
    std::set<std::pair<uint32_t, uint64_t>> tracked;
    for (const GroupRecord& g : groups) {
      EXPECT_TRUE(g.accepted);  // level 0 samples every cell
      tracked.insert({truth.group_of[g.latest_index], g.latest_index});
    }
    std::set<std::pair<uint32_t, uint64_t>> expected;
    for (uint32_t g : truth.live_groups) {
      expected.insert({g, truth.latest_in_window[g]});
    }
    EXPECT_EQ(tracked, expected) << "at cut " << cut;
  }
}

TEST(SwPipelineDeterminismTest, FleetModeBitIdenticalToDedicatedThreads) {
  // Lanes serviced by a shared WorkerFleet (the rl0_serve hosting mode)
  // must be observationally identical to dedicated per-lane threads:
  // which thread runs a lane's callback can never reach sampler state.
  // Two pools share one 2-thread fleet while a third runs dedicated
  // threads; same stream, different chunkings — per-shard level state,
  // snapshot bytes and query draws must all match.
  const auto points = RevisitStream(6000, 40, 404);
  SamplerOptions opts = BaseOptions(21);
  const int64_t window = 900;
  const size_t shards = 3;

  WorkerFleet fleet(2);
  IngestPool::Options fleet_pipe;
  fleet_pipe.fleet = &fleet;

  auto fleet_a =
      ShardedSwSamplerPool::Create(opts, window, shards, fleet_pipe);
  auto fleet_b =
      ShardedSwSamplerPool::Create(opts, window, shards, fleet_pipe);
  auto dedicated = ShardedSwSamplerPool::Create(opts, window, shards);
  ASSERT_TRUE(fleet_a.ok());
  ASSERT_TRUE(fleet_b.ok());
  ASSERT_TRUE(dedicated.ok());

  Span<const Point> span(points.data(), points.size());
  FeedRandomChunks(&fleet_a.value(), span, /*chunk_seed=*/7,
                   /*max_chunk=*/512);
  FeedRandomChunks(&fleet_b.value(), span, /*chunk_seed=*/1234,
                   /*max_chunk=*/63, /*drain_between=*/true);
  FeedRandomChunks(&dedicated.value(), span, /*chunk_seed=*/99,
                   /*max_chunk=*/2048);

  for (size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameLevelState(fleet_a.value().shard(s),
                         dedicated.value().shard(s));
    ExpectSameLevelState(fleet_b.value().shard(s),
                         dedicated.value().shard(s));
    std::string fleet_bytes, dedicated_bytes;
    ASSERT_TRUE(
        SnapshotSamplerSW(fleet_a.value().shard(s), &fleet_bytes).ok());
    ASSERT_TRUE(
        SnapshotSamplerSW(dedicated.value().shard(s), &dedicated_bytes)
            .ok());
    EXPECT_EQ(fleet_bytes, dedicated_bytes);
  }

  Xoshiro256pp rng_fleet(5), rng_dedicated(5);
  for (int q = 0; q < 8; ++q) {
    const auto a = fleet_a.value().SampleLatest(&rng_fleet);
    const auto b = dedicated.value().SampleLatest(&rng_dedicated);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->point, b->point);
      EXPECT_EQ(a->stream_index, b->stream_index);
    }
  }
}

TEST(SwPipelineDeterminismTest, FleetLosesNoWakeupsUnderBackpressure) {
  // Six lanes (two 3-shard pools) on a 2-thread fleet with one-chunk
  // queues, fed by two producer threads at once. Producers keep hitting
  // full queues, so a chunk's lanes are notified in pieces, while fleet
  // threads flip between idle and busy. A lost wakeup would leave a
  // queued chunk unrun and hang the next Drain; every Drain must return
  // and both pools must end bit-identical to dedicated threads.
  const auto points = RevisitStream(4000, 40, 505);
  SamplerOptions opts = BaseOptions(23);
  const int64_t window = 700;
  const size_t shards = 3;

  WorkerFleet fleet(2);
  IngestPool::Options fleet_pipe;
  fleet_pipe.fleet = &fleet;
  fleet_pipe.queue_capacity = 1;

  auto fleet_a =
      ShardedSwSamplerPool::Create(opts, window, shards, fleet_pipe);
  auto fleet_b =
      ShardedSwSamplerPool::Create(opts, window, shards, fleet_pipe);
  auto dedicated = ShardedSwSamplerPool::Create(opts, window, shards);
  ASSERT_TRUE(fleet_a.ok());
  ASSERT_TRUE(fleet_b.ok());
  ASSERT_TRUE(dedicated.ok());

  Span<const Point> span(points.data(), points.size());
  std::thread producer_a([&] {
    FeedRandomChunks(&fleet_a.value(), span, /*chunk_seed=*/11,
                     /*max_chunk=*/40, /*drain_between=*/true);
  });
  std::thread producer_b([&] {
    FeedRandomChunks(&fleet_b.value(), span, /*chunk_seed=*/12,
                     /*max_chunk=*/25);
  });
  producer_a.join();
  producer_b.join();
  FeedRandomChunks(&dedicated.value(), span, /*chunk_seed=*/13,
                   /*max_chunk=*/2048);

  for (size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    std::string dedicated_bytes;
    ASSERT_TRUE(
        SnapshotSamplerSW(dedicated.value().shard(s), &dedicated_bytes)
            .ok());
    for (ShardedSwSamplerPool* pool : {&fleet_a.value(), &fleet_b.value()}) {
      ExpectSameLevelState(pool->shard(s), dedicated.value().shard(s));
      std::string fleet_bytes;
      ASSERT_TRUE(SnapshotSamplerSW(pool->shard(s), &fleet_bytes).ok());
      EXPECT_EQ(fleet_bytes, dedicated_bytes);
    }
  }
}

}  // namespace
}  // namespace rl0
