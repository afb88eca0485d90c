// Unit tests for the duplicate-suppression front-end (core/dup_filter.h):
// the set-associative cache mechanics (store/lookup/evict), the
// caller-side epoch discipline, the disabled and compiled-out
// configurations, and the counter accounting surfaced through the
// samplers. The decision-identity contract itself — filter-on equals
// filter-off bit-for-bit — is pinned by the determinism and fuzz suites;
// this file covers the cache in isolation.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rl0/core/dup_filter.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/geom/point.h"

namespace rl0 {
namespace {

TEST(DupFilterTest, CompiledInMatchesBuildConfiguration) {
#if defined(RL0_NO_DUP_FILTER)
  EXPECT_FALSE(DupFilter::kCompiledIn);
#else
  EXPECT_TRUE(DupFilter::kCompiledIn);
#endif
}

TEST(DupFilterTest, DefaultAndDisabledFiltersAreInert) {
  DupFilter none;
  EXPECT_FALSE(none.enabled());
  EXPECT_FALSE(none.Lookup(42, Point{1.0, 2.0}).found);
  EXPECT_EQ(none.Store(42, 0, Point{1.0, 2.0}), nullptr);

  DupFilter off(/*dim=*/2, /*payload_len=*/1, /*enabled=*/false);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.Lookup(42, Point{1.0, 2.0}).found);
  EXPECT_EQ(off.Store(42, 0, Point{1.0, 2.0}), nullptr);
  // Everything the sampler processed counts as bypassed.
  const DupFilterStats stats = off.stats(/*points_processed=*/17);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bypassed, 17u);
}

TEST(DupFilterTest, StoreLookupRoundtrip) {
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  DupFilter filter(/*dim=*/3, /*payload_len=*/2, /*enabled=*/true);
  ASSERT_TRUE(filter.enabled());
  const Point p{1.5, -2.25, 3.0};

  uint32_t* payload = filter.Store(/*cell_key=*/99, /*epoch=*/7, p);
  ASSERT_NE(payload, nullptr);
  payload[0] = 11;
  payload[1] = 22;

  const DupFilter::View hit = filter.Lookup(99, p);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.epoch, 7u);
  EXPECT_EQ(hit.payload[0], 11u);
  EXPECT_EQ(hit.payload[1], 22u);

  // Same key, different bytes: the guard must reject.
  EXPECT_FALSE(filter.Lookup(99, Point{1.5, -2.25, 3.0000001}).found);
  // Different key entirely.
  EXPECT_FALSE(filter.Lookup(100, p).found);
}

TEST(DupFilterTest, LookupReportsEpochForCallerSideValidation) {
  // The filter deliberately does NOT validate epochs (the SW epoch is a
  // function of the payload); it hands the recorded epoch back and the
  // caller compares. A stale epoch must therefore still be *found*.
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  DupFilter filter(/*dim=*/1, /*payload_len=*/1, /*enabled=*/true);
  const Point p{4.0};
  filter.Store(5, /*epoch=*/3, p)[0] = 1;
  const DupFilter::View hit = filter.Lookup(5, p);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.epoch, 3u);  // caller checks this against generation()
  // Re-storing refreshes the epoch in place.
  filter.Store(5, /*epoch=*/9, p)[0] = 2;
  const DupFilter::View refreshed = filter.Lookup(5, p);
  ASSERT_TRUE(refreshed.found);
  EXPECT_EQ(refreshed.epoch, 9u);
  EXPECT_EQ(refreshed.payload[0], 2u);
}

TEST(DupFilterTest, SameCellPatternsShareASet) {
  // A perturbed arrival shares the exact repeat's cell key but not its
  // bytes; the two ways let both patterns stay resident instead of
  // evicting each other (the direct-mapped failure mode).
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  DupFilter filter(/*dim=*/1, /*payload_len=*/1, /*enabled=*/true);
  const Point hot{1.0}, noise{1.0000001};
  filter.Store(9, 0, hot)[0] = 1;
  filter.Store(9, 0, noise)[0] = 2;
  const DupFilter::View h = filter.Lookup(9, hot);
  const DupFilter::View n = filter.Lookup(9, noise);
  ASSERT_TRUE(h.found);
  ASSERT_TRUE(n.found);
  EXPECT_EQ(h.payload[0], 1u);
  EXPECT_EQ(n.payload[0], 2u);
}

TEST(DupFilterTest, SetEvictsLeastRecentlyUsedWay) {
  if (!DupFilter::kCompiledIn) GTEST_SKIP() << "front-end compiled out";
  // Find three keys mapping to the same set (same top 7 bits of the
  // multiplicative hash): the third store must evict the way the set
  // touched least recently, not the hottest entry.
  const auto set_of = [](uint64_t key) {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 57);
  };
  const uint64_t a = 1;
  uint64_t b = 2;
  while (set_of(b) != set_of(a)) ++b;
  uint64_t c = b + 1;
  while (set_of(c) != set_of(a)) ++c;

  DupFilter filter(/*dim=*/1, /*payload_len=*/1, /*enabled=*/true);
  const Point pa{1.0}, pb{2.0}, pc{3.0};
  filter.Store(a, 0, pa)[0] = 1;
  filter.Store(b, 0, pb)[0] = 2;
  ASSERT_TRUE(filter.Lookup(a, pa).found);  // marks a's way most-recent
  filter.Store(c, 0, pc)[0] = 3;
  EXPECT_TRUE(filter.Lookup(a, pa).found);   // survived: it was hot
  EXPECT_TRUE(filter.Lookup(c, pc).found);
  EXPECT_FALSE(filter.Lookup(b, pb).found);  // evicted as least-recent
}

TEST(DupFilterTest, StatsAccountingSplitsHitsMissesBypassed) {
  DupFilter filter(/*dim=*/1, /*payload_len=*/1, DupFilter::kCompiledIn);
  filter.CountHit();
  filter.CountHit();
  filter.CountMiss();
  const DupFilterStats stats = filter.stats(/*points_processed=*/10);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bypassed, 7u);

  DupFilterStats sum;
  sum += stats;
  sum += stats;
  EXPECT_EQ(sum.hits, 4u);
  EXPECT_EQ(sum.bypassed, 14u);
}

TEST(DupFilterTest, SamplerCountersReflectExactRepeats) {
  // End-to-end counter plumbing: exact repeats of a settled group set
  // must show up as hits in the sampler's filter_stats(), and a
  // --no-filter-style configuration reports pure bypass.
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 99;
  opts.expected_stream_length = 1024;
  auto on = RobustL0SamplerIW::Create(opts).value();
  SamplerOptions off_opts = opts;
  off_opts.dup_filter = false;
  auto off = RobustL0SamplerIW::Create(off_opts).value();

  const Point a{0.0, 0.0}, b{50.0, 50.0};
  for (int i = 0; i < 20; ++i) {
    on.Insert(i % 2 ? a : b);
    off.Insert(i % 2 ? a : b);
  }
  const DupFilterStats stats_on = on.filter_stats();
  const DupFilterStats stats_off = off.filter_stats();
  EXPECT_EQ(stats_on.hits + stats_on.misses + stats_on.bypassed, 20u);
  if (DupFilter::kCompiledIn) {
    // After both groups exist and their entries are re-armed, every
    // further exact repeat hits: 20 arrivals, 2 first-sightings, and 2
    // stale-epoch misses right after each Add bumps the generation.
    EXPECT_GT(stats_on.hits, 10u);
  } else {
    EXPECT_EQ(stats_on.bypassed, 20u);
  }
  EXPECT_EQ(stats_off.hits, 0u);
  EXPECT_EQ(stats_off.misses, 0u);
  EXPECT_EQ(stats_off.bypassed, 20u);
  // Counters are observability only: decisions are identical regardless.
  EXPECT_EQ(on.accept_size() + on.reject_size(),
            off.accept_size() + off.reject_size());
}

}  // namespace
}  // namespace rl0
