// Tests for RobustL0SamplerSW (paper Algorithms 3-5): the hierarchical
// sliding-window sampler. Covers the Lemma 2.10 non-emptiness guarantee,
// window correctness (no expired group is ever returned), per-level cap
// maintenance via Split/Merge cascades, uniformity over window groups,
// space bounds, and time-based windows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "rl0/baseline/naive_robust.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/metrics/distribution.h"

namespace rl0 {
namespace {

SamplerOptions BaseOptions(size_t dim, double alpha, uint64_t seed) {
  SamplerOptions opts;
  opts.dim = dim;
  opts.alpha = alpha;
  opts.seed = seed;
  opts.expected_stream_length = 1 << 16;
  return opts;
}

/// A stream of single-point groups: point i at coordinate 10·i, far apart.
Point Isolated(int i) { return Point{10.0 * static_cast<double>(i)}; }

TEST(SwSamplerTest, CreateValidates) {
  SamplerOptions bad;
  EXPECT_FALSE(RobustL0SamplerSW::Create(bad, 16).ok());
  EXPECT_FALSE(RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 1), 0).ok());
  EXPECT_FALSE(RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 1), -5).ok());
  EXPECT_TRUE(RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 1), 16).ok());
}

TEST(SwSamplerTest, LevelCountIsLogWindowPlusOne) {
  EXPECT_EQ(RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 1), 1)
                .value()
                .num_levels(),
            1u);
  EXPECT_EQ(RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 1), 16)
                .value()
                .num_levels(),
            5u);
  EXPECT_EQ(RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 1), 17)
                .value()
                .num_levels(),
            6u);
}

TEST(SwSamplerTest, EmptyWindowReturnsNullopt) {
  auto sampler = RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 2), 8).value();
  Xoshiro256pp rng(3);
  EXPECT_FALSE(sampler.Sample(0, &rng).has_value());
  sampler.Insert(Isolated(0), 0);
  EXPECT_TRUE(sampler.Sample(0, &rng).has_value());
  // Window slides past every point: empty again.
  EXPECT_FALSE(sampler.Sample(100, &rng).has_value());
}

TEST(SwSamplerTest, NonEmptyWindowAlwaysYieldsSample) {
  // Lemma 2.10: whenever the window holds at least one point, a sample
  // exists. Checked after every insertion across several seeds.
  for (uint64_t seed = 0; seed < 5; ++seed) {
    SamplerOptions opts = BaseOptions(1, 1.0, 40 + seed);
    opts.accept_cap = 8;  // small cap to force real split/merge traffic
    auto sampler = RobustL0SamplerSW::Create(opts, 64).value();
    Xoshiro256pp rng(seed);
    for (int i = 0; i < 500; ++i) {
      sampler.Insert(Isolated(i % 200), i);
      const auto sample = sampler.Sample(i, &rng);
      ASSERT_TRUE(sample.has_value()) << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(SwSamplerTest, SampleAlwaysFromAliveGroup) {
  // The returned point must belong to a group with a point in the window.
  SamplerOptions opts = BaseOptions(1, 1.0, 5);
  opts.accept_cap = 8;
  auto sampler = RobustL0SamplerSW::Create(opts, 32).value();
  NaiveWindowSampler naive(1.0, 32);
  Xoshiro256pp rng(6);
  std::vector<Point> stream;
  for (int i = 0; i < 400; ++i) stream.push_back(Isolated(i % 100));
  for (int i = 0; i < static_cast<int>(stream.size()); ++i) {
    sampler.Insert(stream[i], i);
    naive.Insert(stream[i], i);
    const auto sample = sampler.Sample(i, &rng);
    ASSERT_TRUE(sample.has_value());
    // The sampled point's group (identified by coordinate) must be alive:
    // some stream point within alpha of it must have a stamp in (i-32, i].
    bool alive = false;
    for (int j = std::max(0, i - 31); j <= i; ++j) {
      alive = alive || WithinDistance(stream[j], sample->point, 1.0);
    }
    EXPECT_TRUE(alive) << "i=" << i;
  }
}

TEST(SwSamplerTest, ExpiredGroupNeverReturned) {
  SamplerOptions opts = BaseOptions(1, 1.0, 7);
  auto sampler = RobustL0SamplerSW::Create(opts, 16).value();
  // Group 0 appears only at the start; groups 1..40 afterwards.
  sampler.Insert(Isolated(0), 0);
  for (int i = 1; i <= 40; ++i) sampler.Insert(Isolated(i), i);
  Xoshiro256pp rng(8);
  for (int q = 0; q < 200; ++q) {
    const auto sample = sampler.Sample(40, &rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_FALSE(WithinDistance(sample->point, Isolated(0), 1.0))
        << "expired group 0 sampled";
  }
}

TEST(SwSamplerTest, PerLevelAcceptCapsMaintained) {
  SamplerOptions opts = BaseOptions(1, 1.0, 9);
  opts.accept_cap = 8;
  auto sampler = RobustL0SamplerSW::Create(opts, 256).value();
  for (int i = 0; i < 2000; ++i) {
    sampler.Insert(Isolated(i), i);
    if (sampler.error_count() == 0 && sampler.stuck_split_count() == 0) {
      for (size_t l = 0; l < sampler.num_levels(); ++l) {
        ASSERT_LE(sampler.level(l).accept_size(), 8u)
            << "level " << l << " over cap at i=" << i;
      }
    }
  }
}

TEST(SwSamplerTest, UniformityOverWindowGroupsWithinConstantFactor) {
  // Window of 64 single-point groups; 4000 independent sampler instances.
  // Theorem 2.7 states exact uniformity, but the pseudocode's query-time
  // weighting (include level-ℓ points with probability R_ℓ/R_c) is exact
  // only for groups in the *interior* of a subwindow: the boundary groups
  // — the newest ~log w arrivals, which are accepted directly at their
  // hash level — are in their own subwindow's accept set with probability
  // 1 rather than 1/R_ℓ. Measured effect: a smooth recency bias from
  // ~0.7x (oldest) to ~2.4x (newest) of the uniform target, i.e. the
  // guarantee that actually holds is Θ(1/n) per group, mirroring the
  // paper's own relaxed guarantee (2) for general datasets. See
  // "Boundary-group bias" in docs/ARCHITECTURE.md; bench_sliding_window
  // plots the profile. This test asserts the Θ(1/n) band.
  const int window = 64;
  const int stream_len = 300;
  const int runs = 4000;
  SampleDistribution dist(window);
  for (int run = 0; run < runs; ++run) {
    SamplerOptions opts = BaseOptions(1, 1.0, 10000 + run);
    opts.accept_cap = 10;
    auto sampler = RobustL0SamplerSW::Create(opts, window).value();
    for (int i = 0; i < stream_len; ++i) sampler.Insert(Isolated(i), i);
    Xoshiro256pp rng(90000 + run);
    const auto sample = sampler.Sample(stream_len - 1, &rng);
    ASSERT_TRUE(sample.has_value());
    // Alive groups are stream positions stream_len-window .. stream_len-1;
    // map the sampled coordinate back to its position offset.
    const int pos = static_cast<int>(sample->point[0] / 10.0 + 0.5);
    const int offset = pos - (stream_len - window);
    ASSERT_GE(offset, 0);
    ASSERT_LT(offset, window);
    dist.Record(static_cast<uint32_t>(offset));
  }
  EXPECT_EQ(dist.ZeroGroups(), 0u);
  // Θ(1/n): every group within [1/4, 4] of the uniform frequency.
  const double expected =
      static_cast<double>(runs) / static_cast<double>(window);
  EXPECT_GT(static_cast<double>(dist.MinCount()), expected / 4.0);
  EXPECT_LT(static_cast<double>(dist.MaxCount()), expected * 4.0);
  EXPECT_LT(dist.StdDevNm(), 0.6);
  EXPECT_LT(dist.MaxDevNm(), 2.5);
}

TEST(SwSamplerTest, RecurringGroupStaysSampleable) {
  // One group keeps re-appearing while many others pass through; it must
  // remain sampleable the whole time.
  SamplerOptions opts = BaseOptions(1, 1.0, 11);
  auto sampler = RobustL0SamplerSW::Create(opts, 32).value();
  Xoshiro256pp rng(12);
  int hits = 0;
  int queries = 0;
  for (int i = 0; i < 600; ++i) {
    if (i % 8 == 0) {
      sampler.Insert(Point{0.0}, i);  // the recurring group
    } else {
      sampler.Insert(Isolated(100 + i), i);
    }
    if (i >= 100 && i % 10 == 0) {
      for (int q = 0; q < 100; ++q) {
        const auto sample = sampler.Sample(i, &rng);
        ASSERT_TRUE(sample.has_value());
        ++queries;
        hits += WithinDistance(sample->point, Point{0.0}, 1.0);
      }
    }
  }
  // The recurring group is one of ~29 alive groups. Its record is old
  // (tracked at a deep level most of the time), so the boundary recency
  // bias (docs/ARCHITECTURE.md) pushes it well below parity — empirically
  // the hit rate sits near 0.008 for any query seed or group-iteration
  // order. Assert the Θ(1) sampleability band with ≈3σ slack instead of
  // a knife-edge cut (the old 0.005 bound flipped on iteration-order
  // changes of the query pool).
  const double rate = static_cast<double>(hits) / queries;
  EXPECT_GT(rate, 0.004);
  EXPECT_LT(rate, 0.15);
}

TEST(SwSamplerTest, SpaceStaysPolylog) {
  // O(log w · log m) scaling: quadrupling the window must grow peak space
  // far slower than 4x (log w adds one or two levels), and the absolute
  // footprint stays below storing the raw window.
  SamplerOptions opts = BaseOptions(1, 1.0, 13);
  opts.accept_cap = 10;
  auto small = RobustL0SamplerSW::Create(opts, 256).value();
  auto large = RobustL0SamplerSW::Create(opts, 4096).value();
  for (int i = 0; i < 12000; ++i) {
    small.Insert(Isolated(i), i);
    large.Insert(Isolated(i), i);
  }
  EXPECT_LT(large.PeakSpaceWords(), 4096u * PointWords(1));
  EXPECT_LT(static_cast<double>(large.PeakSpaceWords()),
            2.5 * static_cast<double>(small.PeakSpaceWords()));
  // And per level the tracked groups stay bounded.
  for (size_t l = 0; l < large.num_levels(); ++l) {
    EXPECT_LE(large.level(l).group_count(), 30u * 10u) << "level " << l;
  }
}

TEST(SwSamplerTest, SequenceInsertStampsByArrival) {
  auto sampler =
      RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 14), 4).value();
  for (int i = 0; i < 10; ++i) sampler.Insert(Isolated(i));
  EXPECT_EQ(sampler.points_processed(), 10u);
  EXPECT_EQ(sampler.latest_stamp(), 9);
  Xoshiro256pp rng(15);
  // Only the last 4 single-point groups are alive.
  for (int q = 0; q < 100; ++q) {
    const auto sample = sampler.SampleLatest(&rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_GE(sample->point[0], 10.0 * 6);
  }
}

TEST(SwSamplerTest, TimeBasedWindowRespectsGaps) {
  auto sampler =
      RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 16), 10).value();
  sampler.Insert(Isolated(1), 100);
  sampler.Insert(Isolated(2), 104);
  sampler.Insert(Isolated(3), 118);  // first two are now expired
  Xoshiro256pp rng(17);
  for (int q = 0; q < 50; ++q) {
    const auto sample = sampler.Sample(118, &rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_TRUE(WithinDistance(sample->point, Isolated(3), 1.0));
  }
}

TEST(SwSamplerTest, DeterministicGivenSeed) {
  auto a = RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 18), 32).value();
  auto b = RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 18), 32).value();
  for (int i = 0; i < 200; ++i) {
    a.Insert(Isolated(i % 80), i);
    b.Insert(Isolated(i % 80), i);
  }
  for (size_t l = 0; l < a.num_levels(); ++l) {
    EXPECT_EQ(a.level(l).accept_size(), b.level(l).accept_size());
    EXPECT_EQ(a.level(l).group_count(), b.level(l).group_count());
  }
  Xoshiro256pp ra(19), rb(19);
  const auto sa = a.Sample(199, &ra);
  const auto sb = b.Sample(199, &rb);
  ASSERT_TRUE(sa.has_value() && sb.has_value());
  EXPECT_EQ(sa->point, sb->point);
}

TEST(SwSamplerTest, DeepestNonEmptyLevelGrowsWithGroups) {
  // More alive groups push occupancy to deeper levels (the F0-SW signal).
  SamplerOptions opts = BaseOptions(1, 1.0, 20);
  opts.accept_cap = 8;
  double deep_small = 0.0, deep_large = 0.0;
  const int seeds = 30;
  for (int seed = 0; seed < seeds; ++seed) {
    SamplerOptions o = opts;
    o.seed = 300 + seed;
    auto small = RobustL0SamplerSW::Create(o, 4096).value();
    for (int i = 0; i < 8; ++i) small.Insert(Isolated(i), i);
    deep_small +=
        static_cast<double>(small.DeepestNonEmptyLevel(7).value_or(0));
    o.seed = 600 + seed;
    auto large = RobustL0SamplerSW::Create(o, 4096).value();
    for (int i = 0; i < 2048; ++i) large.Insert(Isolated(i), i);
    deep_large +=
        static_cast<double>(large.DeepestNonEmptyLevel(2047).value_or(0));
  }
  EXPECT_GT(deep_large / seeds, deep_small / seeds + 3.0);
}

TEST(SwSamplerTest, StressTinyCapDoesNotCrash) {
  // Adversarial configuration: cap 2 with hundreds of window groups forces
  // constant cascades; the structure must stay usable and report its
  // error/stuck events rather than failing.
  SamplerOptions opts = BaseOptions(1, 1.0, 21);
  opts.accept_cap = 2;
  auto sampler = RobustL0SamplerSW::Create(opts, 256).value();
  Xoshiro256pp rng(22);
  for (int i = 0; i < 2000; ++i) {
    sampler.Insert(Isolated(i % 500), i);
    if (i % 50 == 0) {
      ASSERT_TRUE(sampler.Sample(i, &rng).has_value());
    }
  }
  SUCCEED() << "errors=" << sampler.error_count()
            << " stuck=" << sampler.stuck_split_count();
}

TEST(SwSamplerTest, SampleKReturnsDistinctAliveGroups) {
  SamplerOptions opts = BaseOptions(1, 1.0, 25);
  opts.k = 4;
  auto sampler = RobustL0SamplerSW::Create(opts, 32).value();
  for (int i = 0; i < 100; ++i) sampler.Insert(Isolated(i), i);
  // The unified pool is a random 1/R_c-rate subset and may transiently be
  // smaller than k; retrying with fresh query randomness redraws it (see
  // the SampleK contract).
  Xoshiro256pp rng(26);
  bool succeeded = false;
  for (int attempt = 0; attempt < 50 && !succeeded; ++attempt) {
    const auto result = sampler.SampleK(4, 99, &rng);
    if (!result.ok()) continue;
    succeeded = true;
    std::set<int> groups;
    for (const SampleItem& item : result.value()) {
      // Alive and distinct.
      EXPECT_GT(static_cast<int64_t>(item.stream_index), 99 - 32);
      groups.insert(static_cast<int>(item.point[0] / 10.0 + 0.5));
    }
    EXPECT_EQ(groups.size(), 4u);
  }
  EXPECT_TRUE(succeeded) << "pool never reached k across 50 redraws";
}

TEST(SwSamplerTest, SampleKFailsWhenWindowTooSmall) {
  auto sampler =
      RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 27), 4).value();
  sampler.Insert(Isolated(0), 0);
  sampler.Insert(Isolated(1), 1);
  Xoshiro256pp rng(28);
  const auto result = sampler.SampleK(10, 1, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SwSamplerTest, WindowOneDegeneratesToLatestPoint) {
  auto sampler =
      RobustL0SamplerSW::Create(BaseOptions(1, 1.0, 23), 1).value();
  Xoshiro256pp rng(24);
  for (int i = 0; i < 20; ++i) {
    sampler.Insert(Isolated(i), i);
    const auto sample = sampler.Sample(i, &rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_TRUE(WithinDistance(sample->point, Isolated(i), 1.0));
  }
}

}  // namespace
}  // namespace rl0
