// Tests for RobustL0SamplerIW (paper Algorithm 1): structural invariants,
// the rate-halving refilter (Definition 2.2), uniformity over groups,
// k-sampling, the reservoir variant, and the representatives-only replay
// equivalence used by the benchmark harness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "rl0/baseline/exact_partition.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/metrics/distribution.h"
#include "rl0/stream/dataset.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"

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

/// A small well-separated 2-d dataset: `groups` clusters on a coarse
/// lattice, `per_group` points each within alpha/2 of the center.
NoisyDataset SmallClusters(size_t groups, size_t per_group, double alpha,
                           uint64_t seed) {
  NoisyDataset out;
  out.name = "SmallClusters";
  out.dim = 2;
  out.alpha = alpha;
  out.beta = 4.0 * alpha;
  out.num_groups = groups;
  Xoshiro256pp rng(seed);
  const size_t cols = static_cast<size_t>(std::ceil(std::sqrt(groups)));
  std::vector<Point> centers;
  for (size_t g = 0; g < groups; ++g) {
    centers.push_back(Point{static_cast<double>(g % cols) * 10.0 * alpha,
                            static_cast<double>(g / cols) * 10.0 * alpha});
  }
  for (size_t g = 0; g < groups; ++g) {
    for (size_t i = 0; i < per_group; ++i) {
      Point p = centers[g];
      p[0] += 0.25 * alpha * (rng.NextDouble() - 0.5);
      p[1] += 0.25 * alpha * (rng.NextDouble() - 0.5);
      out.points.push_back(p);
      out.group_of.push_back(static_cast<uint32_t>(g));
    }
  }
  // Shuffle.
  for (size_t i = out.points.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(out.points[i - 1], out.points[j]);
    std::swap(out.group_of[i - 1], out.group_of[j]);
  }
  return out;
}

TEST(IwSamplerTest, CreateValidatesOptions) {
  SamplerOptions bad;
  EXPECT_FALSE(RobustL0SamplerIW::Create(bad).ok());
  EXPECT_TRUE(RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 1)).ok());
}

TEST(IwSamplerTest, EmptySamplerReturnsNullopt) {
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 1)).value();
  Xoshiro256pp rng(9);
  EXPECT_FALSE(sampler.Sample(&rng).has_value());
}

TEST(IwSamplerTest, FirstPointAlwaysAccepted) {
  // R is initialized to 1, so the very first point enters Sacc certainly.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto sampler =
        RobustL0SamplerIW::Create(BaseOptions(2, 1.0, seed)).value();
    sampler.Insert(Point{0.0, 0.0});
    EXPECT_EQ(sampler.accept_size(), 1u);
    Xoshiro256pp rng(seed);
    const auto sample = sampler.Sample(&rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->point, Point({0.0, 0.0}));
    EXPECT_EQ(sample->stream_index, 0u);
  }
}

TEST(IwSamplerTest, NearDuplicatesAreSkipped) {
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 3)).value();
  sampler.Insert(Point{0.0, 0.0});
  sampler.Insert(Point{0.1, 0.1});
  sampler.Insert(Point{-0.2, 0.3});
  EXPECT_EQ(sampler.accept_size() + sampler.reject_size(), 1u);
  EXPECT_EQ(sampler.points_processed(), 3u);
}

TEST(IwSamplerTest, ExactAlphaDistanceIsSameGroup) {
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(1, 1.0, 4)).value();
  sampler.Insert(Point{0.0});
  sampler.Insert(Point{1.0});  // d == alpha: near-duplicate (inclusive)
  EXPECT_EQ(sampler.accept_size() + sampler.reject_size(), 1u);
}

TEST(IwSamplerTest, FarPointsFormNewGroups) {
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(1, 1.0, 5)).value();
  sampler.Insert(Point{0.0});
  sampler.Insert(Point{10.0});
  sampler.Insert(Point{20.0});
  // All three are distinct groups; with the default cap they are all
  // candidates at level 0 and hence all accepted.
  EXPECT_EQ(sampler.accept_size(), 3u);
}

TEST(IwSamplerTest, AcceptCapNeverExceededAndAcceptNeverEmpty) {
  SamplerOptions opts = BaseOptions(2, 1.0, 6);
  opts.accept_cap = 16;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const NoisyDataset data = SmallClusters(400, 3, 1.0, 7);
  for (const Point& p : data.points) {
    sampler.Insert(p);
    EXPECT_LE(sampler.accept_size(), 16u);
    EXPECT_GE(sampler.accept_size(), 1u);
  }
  EXPECT_GT(sampler.level(), 0u);  // the cap must have forced doublings
}

TEST(IwSamplerTest, AcceptedRepsAreFirstPointsOfTheirGroups) {
  // Accepted representatives are always the true first point of their
  // group: a later point q can only be accepted if cell(q) is sampled,
  // but cell(q) ∈ adj(first point), so the first point would have been
  // stored (accepted or rejected) and q blocked. Rejected entries may
  // legitimately hold a non-first point when the group's first point was
  // ignored (no sampled cell near it) and a later point drifted within α
  // of a sampled cell — Srej is pure bookkeeping and is never sampled.
  SamplerOptions opts = BaseOptions(2, 1.0, 8);
  opts.accept_cap = 12;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const NoisyDataset data = SmallClusters(120, 5, 1.0, 9);
  // Ground truth: first stream index per group.
  std::map<uint32_t, uint64_t> first_of_group;
  for (size_t i = 0; i < data.points.size(); ++i) {
    first_of_group.emplace(data.group_of[i], i);
  }
  for (const Point& p : data.points) sampler.Insert(p);
  const std::vector<SampleItem> accepted = sampler.AcceptedRepresentatives();
  ASSERT_FALSE(accepted.empty());
  for (const SampleItem& item : accepted) {
    const uint32_t g = data.group_of[item.stream_index];
    EXPECT_EQ(item.stream_index, first_of_group.at(g))
        << "accepted representative is not the first point of group " << g;
  }
  // At most one stored representative per group, accepted or rejected.
  std::set<uint32_t> seen;
  std::vector<SampleItem> stored = accepted;
  const std::vector<SampleItem> rejected = sampler.RejectedRepresentatives();
  stored.insert(stored.end(), rejected.begin(), rejected.end());
  for (const SampleItem& item : stored) {
    EXPECT_TRUE(seen.insert(data.group_of[item.stream_index]).second);
  }
}

TEST(IwSamplerTest, Definition22HoldsAfterDoubling) {
  // After any number of rate halvings: accepted ⇔ own cell sampled at the
  // current level; rejected ⇒ own cell unsampled but a cell within alpha
  // of the representative is sampled.
  SamplerOptions opts = BaseOptions(2, 1.0, 10);
  opts.accept_cap = 8;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const NoisyDataset data = SmallClusters(300, 2, 1.0, 11);
  for (const Point& p : data.points) sampler.Insert(p);
  ASSERT_GT(sampler.level(), 0u);

  std::vector<uint64_t> adj;
  for (const SampleItem& item : sampler.AcceptedRepresentatives()) {
    EXPECT_TRUE(sampler.hasher().SampledAtLevel(
        sampler.grid().CellKeyOf(item.point), sampler.level()));
  }
  for (const SampleItem& item : sampler.RejectedRepresentatives()) {
    EXPECT_FALSE(sampler.hasher().SampledAtLevel(
        sampler.grid().CellKeyOf(item.point), sampler.level()));
    sampler.grid().AdjacentCells(item.point, opts.alpha, &adj);
    bool near = false;
    for (uint64_t key : adj) {
      near = near || sampler.hasher().SampledAtLevel(key, sampler.level());
    }
    EXPECT_TRUE(near);
  }
}

TEST(IwSamplerTest, RateMatchesGroupCountOrder) {
  // With n groups ≫ cap, R should settle near n/cap (within a constant).
  SamplerOptions opts = BaseOptions(2, 1.0, 12);
  opts.accept_cap = 16;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const size_t n = 1024;
  const NoisyDataset data = SmallClusters(n, 1, 1.0, 13);
  for (const Point& p : data.points) sampler.Insert(p);
  const double r = static_cast<double>(sampler.rate_reciprocal());
  const double ideal = static_cast<double>(n) / 16.0;
  EXPECT_GE(r, ideal / 8.0);
  EXPECT_LE(r, ideal * 8.0);
}

TEST(IwSamplerTest, DeterministicGivenSeeds) {
  const NoisyDataset data = SmallClusters(50, 4, 1.0, 14);
  auto s1 = RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 15)).value();
  auto s2 = RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 15)).value();
  for (const Point& p : data.points) {
    s1.Insert(p);
    s2.Insert(p);
  }
  EXPECT_EQ(s1.accept_size(), s2.accept_size());
  EXPECT_EQ(s1.level(), s2.level());
  const auto a = s1.Sample(uint64_t{77});
  const auto b = s2.Sample(uint64_t{77});
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->stream_index, b->stream_index);
}

TEST(IwSamplerTest, ReplayEquivalence) {
  // Feeding only the first point of each group (in order) yields exactly
  // the same accept/reject state as feeding the full stream — the
  // optimization the distribution benchmarks rely on (docs/BENCHMARKS.md,
  // "Paper-figure reproductions").
  const NoisyDataset data = SmallClusters(150, 6, 1.0, 16);
  const RepresentativeStream reps = ExtractRepresentatives(data);

  SamplerOptions opts = BaseOptions(2, 1.0, 17);
  opts.accept_cap = 12;
  auto full = RobustL0SamplerIW::Create(opts).value();
  auto replay = RobustL0SamplerIW::Create(opts).value();
  for (const Point& p : data.points) full.Insert(p);
  for (const Point& p : reps.points) replay.Insert(p);

  EXPECT_EQ(full.level(), replay.level());
  EXPECT_EQ(full.accept_size(), replay.accept_size());
  const auto points_of = [](const std::vector<SampleItem>& v) {
    std::vector<std::vector<double>> out;
    for (const auto& item : v) out.push_back(item.point.coords());
    std::sort(out.begin(), out.end());
    return out;
  };
  // The accept sets — what sampling draws from — must match exactly.
  EXPECT_EQ(points_of(full.AcceptedRepresentatives()),
            points_of(replay.AcceptedRepresentatives()));
  // The full stream may store extra *rejected* bookkeeping entries (later
  // points of ignored groups near sampled cells); every replay rejected
  // entry must appear in the full run, not vice versa.
  const auto full_rej = points_of(full.RejectedRepresentatives());
  for (const auto& coords : points_of(replay.RejectedRepresentatives())) {
    EXPECT_TRUE(std::binary_search(full_rej.begin(), full_rej.end(), coords));
  }
}

TEST(IwSamplerTest, UniformityAcrossGroups) {
  // 40 groups, 20000 independent sampler instances (fresh hash seeds):
  // each group should be sampled ~500 times. The noise floor for
  // stdDevNm at this run count is sqrt(39/20000) ≈ 0.044. The algorithm
  // is allowed to fail (empty accept set) with small probability after a
  // rate halving; such runs are counted and must stay rare.
  const size_t groups = 40;
  const NoisyDataset data = SmallClusters(groups, 3, 1.0, 18);
  const RepresentativeStream reps = ExtractRepresentatives(data);
  SampleDistribution dist(groups);
  const int runs = 20000;
  int empty_runs = 0;
  for (int run = 0; run < runs; ++run) {
    SamplerOptions opts = BaseOptions(2, 1.0, 1000 + run);
    opts.accept_cap = 12;
    auto sampler = RobustL0SamplerIW::Create(opts).value();
    for (const Point& p : reps.points) sampler.Insert(p);
    Xoshiro256pp rng(500000 + run);
    const auto sample = sampler.Sample(&rng);
    if (!sample.has_value()) {
      ++empty_runs;
      continue;
    }
    dist.Record(reps.group_of[sample->stream_index]);
  }
  EXPECT_LT(empty_runs, runs / 200);
  EXPECT_EQ(dist.ZeroGroups(), 0u);
  EXPECT_LT(dist.StdDevNm(), 0.1);
  EXPECT_LT(dist.MaxDevNm(), 0.25);
}

TEST(IwSamplerTest, SampleKWithoutReplacementDistinctGroups) {
  SamplerOptions opts = BaseOptions(2, 1.0, 19);
  opts.k = 5;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const NoisyDataset data = SmallClusters(60, 3, 1.0, 20);
  for (const Point& p : data.points) sampler.Insert(p);
  ASSERT_GE(sampler.accept_size(), 5u);
  Xoshiro256pp rng(21);
  const auto result = sampler.SampleK(5, &rng);
  ASSERT_TRUE(result.ok());
  std::set<uint32_t> sampled_groups;
  for (const SampleItem& item : result.value()) {
    sampled_groups.insert(data.group_of[item.stream_index]);
  }
  EXPECT_EQ(sampled_groups.size(), 5u);  // distinct groups
}

TEST(IwSamplerTest, SampleKFailsWhenNotEnoughGroups) {
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 22)).value();
  sampler.Insert(Point{0.0, 0.0});
  Xoshiro256pp rng(23);
  const auto result = sampler.SampleK(3, &rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IwSamplerTest, KOptionScalesAcceptCap) {
  SamplerOptions opts = BaseOptions(2, 1.0, 24);
  const size_t base_cap = opts.EffectiveAcceptCap();
  opts.k = 4;
  EXPECT_EQ(opts.EffectiveAcceptCap(), 4 * base_cap);
}

TEST(IwSamplerTest, ReservoirModeReturnsUniformPointWithinGroup) {
  // One group, 8 points: with the Section 2.3 reservoir variant each point
  // must be returned with probability ~1/8.
  const size_t points_in_group = 8;
  std::vector<Point> group;
  for (size_t i = 0; i < points_in_group; ++i) {
    group.push_back(
        Point{0.05 * static_cast<double>(i), 0.02 * static_cast<double>(i)});
  }
  SampleDistribution dist(points_in_group);
  const int runs = 20000;
  for (int run = 0; run < runs; ++run) {
    SamplerOptions opts = BaseOptions(2, 1.0, 3000 + run);
    opts.random_representative = true;
    auto sampler = RobustL0SamplerIW::Create(opts).value();
    for (const Point& p : group) sampler.Insert(p);
    Xoshiro256pp rng(7000 + run);
    const auto sample = sampler.Sample(&rng);
    ASSERT_TRUE(sample.has_value());
    dist.Record(static_cast<uint32_t>(sample->stream_index));
  }
  EXPECT_EQ(dist.ZeroGroups(), 0u);
  EXPECT_LT(dist.MaxDevNm(), 0.15);
}

TEST(IwSamplerTest, FixedModeAlwaysReturnsRepresentative) {
  std::vector<Point> group{Point{0.0, 0.0}, Point{0.1, 0.0},
                           Point{0.0, 0.1}};
  for (int run = 0; run < 50; ++run) {
    auto sampler =
        RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 100 + run)).value();
    for (const Point& p : group) sampler.Insert(p);
    Xoshiro256pp rng(run);
    const auto sample = sampler.Sample(&rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_EQ(sample->stream_index, 0u);  // always the first point
  }
}

TEST(IwSamplerTest, SpaceStaysLogarithmic) {
  SamplerOptions opts = BaseOptions(2, 1.0, 25);
  opts.accept_cap = 16;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const NoisyDataset data = SmallClusters(2000, 2, 1.0, 26);
  for (const Point& p : data.points) sampler.Insert(p);
  // Reps stored = accept + reject; both are O(cap) with the constant from
  // Lemma 2.6 (≤ 24x in the 2-d side=α/2 regime). Generous bound:
  EXPECT_LE(sampler.accept_size() + sampler.reject_size(), 50u * 16u);
  // Peak words must be far below storing all 2000 representatives.
  EXPECT_LT(sampler.PeakSpaceWords(),
            2000u * PointWords(2) / 2);
  EXPECT_GT(sampler.PeakSpaceWords(), 0u);
}

TEST(IwSamplerTest, PointsProcessedCounts) {
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(2, 1.0, 27)).value();
  for (int i = 0; i < 17; ++i) {
    sampler.Insert(Point{static_cast<double>(10 * i), 0.0});
  }
  EXPECT_EQ(sampler.points_processed(), 17u);
}

TEST(IwSamplerTest, HighDimGridSideIsDTimesAlpha) {
  SamplerOptions opts = BaseOptions(8, 0.25, 28);
  opts.side_mode = GridSideMode::kHighDim;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  EXPECT_DOUBLE_EQ(sampler.grid().side(), 8 * 0.25);
  SamplerOptions c = opts;
  c.side_mode = GridSideMode::kConstantDim;
  auto sampler2 = RobustL0SamplerIW::Create(c).value();
  EXPECT_DOUBLE_EQ(sampler2.grid().side(), 0.125);
}

TEST(IwSamplerTest, KWiseHashFamilyWorksEndToEnd) {
  SamplerOptions opts = BaseOptions(2, 1.0, 29);
  opts.hash_family = HashFamily::kKWisePoly;
  opts.kwise_k = 16;
  opts.accept_cap = 8;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const NoisyDataset data = SmallClusters(200, 3, 1.0, 30);
  for (const Point& p : data.points) sampler.Insert(p);
  EXPECT_GE(sampler.accept_size(), 1u);
  EXPECT_LE(sampler.accept_size(), 8u);
  Xoshiro256pp rng(31);
  EXPECT_TRUE(sampler.Sample(&rng).has_value());
}

}  // namespace
}  // namespace rl0
