// Metamorphic tests: transformations of the input that provably must not
// change the sampler's observable state, plus adversarial stream orders.
// These catch bugs that example-based tests miss because the expected
// output is defined relative to another run instead of hand-computed.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "rl0/core/iw_sampler.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/core/sw_fixed_sampler.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/stream/dataset.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/stream/window_stream.h"

namespace rl0 {
namespace {

SamplerOptions BaseOptions(uint64_t seed, size_t dim = 2) {
  SamplerOptions opts;
  opts.dim = dim;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.accept_cap = 12;
  opts.expected_stream_length = 1 << 14;
  return opts;
}

NoisyDataset MakeData(uint64_t seed, size_t groups = 80) {
  const BaseDataset base = RandomUniform(groups, 2, seed);
  NearDupOptions nd;
  nd.max_dups = 5;
  nd.seed = seed + 1;
  NoisyDataset data = MakeNearDuplicates(base, nd);
  // Rescale alpha into the tests' unit convention.
  for (Point& p : data.points) p = p * (1.0 / data.alpha);
  data.beta /= data.alpha;
  data.alpha = 1.0;
  return data;
}

std::vector<std::vector<double>> AcceptedSet(const RobustL0SamplerIW& s) {
  std::vector<std::vector<double>> out;
  for (const SampleItem& item : s.AcceptedRepresentatives()) {
    out.push_back(item.point.coords());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MetamorphicTest, ReinsertingSeenPointsIsANoOp) {
  const NoisyDataset data = MakeData(3);
  auto sampler = RobustL0SamplerIW::Create(BaseOptions(5)).value();
  for (const Point& p : data.points) sampler.Insert(p);
  const auto accepted = AcceptedSet(sampler);
  const uint32_t level = sampler.level();
  const size_t rejects = sampler.reject_size();
  // Re-insert every 3rd point again: every one is a member of an existing
  // candidate group or still ignored; nothing may change.
  for (size_t i = 0; i < data.points.size(); i += 3) {
    sampler.Insert(data.points[i]);
  }
  EXPECT_EQ(AcceptedSet(sampler), accepted);
  EXPECT_EQ(sampler.level(), level);
  EXPECT_EQ(sampler.reject_size(), rejects);
}

TEST(MetamorphicTest, ScaleInvariance) {
  // Scaling every coordinate and alpha by the same factor leaves the cell
  // structure (and hence every sampling decision) exactly unchanged: the
  // random offset is drawn as fraction*side, so it scales along.
  const NoisyDataset data = MakeData(7);
  for (const double scale : {0.001, 3.0, 1e6}) {
    SamplerOptions opts_a = BaseOptions(9);
    auto a = RobustL0SamplerIW::Create(opts_a).value();
    SamplerOptions opts_b = opts_a;
    opts_b.alpha = opts_a.alpha * scale;
    auto b = RobustL0SamplerIW::Create(opts_b).value();
    for (const Point& p : data.points) {
      a.Insert(p);
      b.Insert(p * scale);
    }
    EXPECT_EQ(a.level(), b.level()) << "scale=" << scale;
    EXPECT_EQ(a.accept_size(), b.accept_size()) << "scale=" << scale;
    EXPECT_EQ(a.reject_size(), b.reject_size()) << "scale=" << scale;
    // Accepted representatives map 1:1 through the scaling.
    const auto accepted_a = AcceptedSet(a);
    auto accepted_b = AcceptedSet(b);
    for (auto& coords : accepted_b) {
      for (double& c : coords) c /= scale;
    }
    std::sort(accepted_b.begin(), accepted_b.end());
    ASSERT_EQ(accepted_a.size(), accepted_b.size());
    for (size_t i = 0; i < accepted_a.size(); ++i) {
      for (size_t j = 0; j < accepted_a[i].size(); ++j) {
        EXPECT_NEAR(accepted_a[i][j], accepted_b[i][j],
                    1e-9 * std::max(1.0, std::abs(accepted_a[i][j])));
      }
    }
  }
}

TEST(MetamorphicTest, NonFirstPointOrderIrrelevant) {
  // With all representatives up front, permuting the remaining points
  // cannot change the accept/reject sets (they are all candidate-group
  // members and are skipped regardless of order).
  const NoisyDataset data = MakeData(11);
  const RepresentativeStream reps = ExtractRepresentatives(data);
  std::vector<Point> rest;
  {
    std::vector<bool> is_rep(data.points.size(), false);
    for (uint64_t idx : reps.stream_index) is_rep[idx] = true;
    for (size_t i = 0; i < data.points.size(); ++i) {
      if (!is_rep[i]) rest.push_back(data.points[i]);
    }
  }
  auto run = [&](const std::vector<Point>& tail) {
    auto sampler = RobustL0SamplerIW::Create(BaseOptions(13)).value();
    for (const Point& p : reps.points) sampler.Insert(p);
    for (const Point& p : tail) sampler.Insert(p);
    return std::make_tuple(AcceptedSet(sampler), sampler.level(),
                           sampler.reject_size());
  };
  const auto forward = run(rest);
  std::vector<Point> reversed(rest.rbegin(), rest.rend());
  const auto backward = run(reversed);
  Xoshiro256pp rng(15);
  std::vector<Point> shuffled = rest;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  const auto random_order = run(shuffled);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, random_order);
}

TEST(MetamorphicTest, AdversarialOrdersKeepInvariants) {
  const NoisyDataset data = MakeData(17, 150);
  std::vector<std::vector<Point>> orders;
  orders.push_back(data.points);  // shuffled (generator default)
  // Sorted by first coordinate (groups arrive in spatial order).
  std::vector<Point> sorted = data.points;
  std::sort(sorted.begin(), sorted.end(),
            [](const Point& a, const Point& b) { return a[0] < b[0]; });
  orders.push_back(sorted);
  // Reverse-sorted.
  std::vector<Point> reversed(sorted.rbegin(), sorted.rend());
  orders.push_back(reversed);
  // Bursts: all points of each group consecutively (no shuffle).
  for (const auto& order : orders) {
    auto sampler = RobustL0SamplerIW::Create(BaseOptions(19)).value();
    for (const Point& p : order) {
      sampler.Insert(p);
      ASSERT_LE(sampler.accept_size(), 12u);
      ASSERT_GE(sampler.accept_size(), 1u);
    }
    // One stored entry per group at most.
    EXPECT_LE(sampler.accept_size() + sampler.reject_size(),
              data.num_groups);
  }
}

TEST(MetamorphicTest, WindowPaddingDoesNotChangeAliveSampling) {
  // Appending points that immediately expire (stamps far in the past are
  // not allowed; instead: querying at `now` after inserting only expired-
  // by-now points) — the sample over the alive suffix stays valid.
  SamplerOptions opts = BaseOptions(21, 1);
  auto sampler = RobustL0SamplerSW::Create(opts, 8).value();
  for (int i = 0; i < 100; ++i) {
    sampler.Insert(Point{10.0 * i}, i);
  }
  Xoshiro256pp rng(23);
  for (int q = 0; q < 100; ++q) {
    const auto sample = sampler.Sample(99, &rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_GE(sample->point[0], 10.0 * 92);  // only the last 8 are alive
  }
}

/// Canonical view of a fixed-rate sampler's groups: every field except
/// the (arrival-order-dependent) group id, sorted.
std::vector<std::tuple<int64_t, uint64_t, uint64_t, bool, std::vector<double>,
                       std::vector<double>>>
CanonicalGroups(const SwFixedRateSampler& sampler) {
  std::vector<GroupRecord> groups;
  sampler.SnapshotGroups(&groups);
  std::vector<std::tuple<int64_t, uint64_t, uint64_t, bool,
                         std::vector<double>, std::vector<double>>>
      out;
  for (const GroupRecord& g : groups) {
    out.emplace_back(g.latest_stamp, g.latest_index, g.rep_index, g.accepted,
                     g.rep.coords(), g.latest.coords());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(MetamorphicTest, SwStampTiesPermutationInvariant) {
  // Time-based windows allow equal stamps. Permuting the arrival order
  // *within* a run of equal-stamp points of well-separated groups must
  // leave the fixed-rate sampler's state unchanged up to group-id
  // renumbering: each group's own subsequence is untouched, and
  // cross-group candidate lookups cannot match across a >α separation.
  // (The hierarchy is deliberately out of scope: its lower-level pruning
  // depends on intra-tie order by design.)
  SamplerOptions opts = BaseOptions(31, 1);
  auto a = SwFixedRateSampler::CreateStandalone(opts, 0, 40).value();
  auto b = SwFixedRateSampler::CreateStandalone(opts, 0, 40).value();

  Xoshiro256pp rng(32);
  int64_t stamp = 0;
  for (int run = 0; run < 120; ++run) {
    // A tie of 2-6 points from distinct groups at one stamp.
    const size_t tie = 2 + rng.NextBounded(5);
    std::vector<Point> batch;
    std::vector<size_t> groups_in_tie;
    for (size_t i = 0; i < tie; ++i) {
      size_t g;
      do {
        g = rng.NextBounded(25);
      } while (std::find(groups_in_tie.begin(), groups_in_tie.end(), g) !=
               groups_in_tie.end());
      groups_in_tie.push_back(g);
      batch.push_back(Point{10.0 * static_cast<double>(g) +
                            0.3 * (rng.NextDouble() - 0.5)});
    }
    for (const Point& p : batch) a->Insert(p, stamp);
    // Reversed tie order into b.
    for (size_t i = batch.size(); i-- > 0;) b->Insert(batch[i], stamp);
    stamp += static_cast<int64_t>(rng.NextBounded(15));
    ASSERT_EQ(CanonicalGroups(*a), CanonicalGroups(*b)) << "run " << run;
  }
}

TEST(MetamorphicTest, SwShrinkingWindowNeverResurrectsExpiredGroups) {
  // A group invisible under window W must stay invisible under any
  // W' < W: at rate 1 the live sets nest (latest stamp in (now-W', now]
  // implies latest stamp in (now-W, now]), and each surviving group
  // reports the same latest point under both windows.
  SamplerOptions opts = BaseOptions(33, 1);
  const int64_t wide_window = 200;
  const int64_t narrow_window = 50;
  auto wide =
      SwFixedRateSampler::CreateStandalone(opts, 0, wide_window).value();
  auto narrow =
      SwFixedRateSampler::CreateStandalone(opts, 0, narrow_window).value();

  Xoshiro256pp rng(34);
  int64_t stamp = 0;
  for (int i = 0; i < 600; ++i) {
    const size_t g = rng.NextBounded(40);
    const Point p{10.0 * static_cast<double>(g) +
                  0.3 * (rng.NextDouble() - 0.5)};
    wide->Insert(p, stamp);
    narrow->Insert(p, stamp);
    stamp += static_cast<int64_t>(rng.NextBounded(4));
    if (i % 20 != 19) continue;

    std::vector<GroupRecord> wide_groups, narrow_groups;
    wide->Expire(stamp);
    narrow->Expire(stamp);
    wide->SnapshotGroups(&wide_groups);
    narrow->SnapshotGroups(&narrow_groups);
    // Nesting by the group's latest point (group ids differ when a group
    // expired under W' and was re-established later).
    std::set<uint64_t> wide_latest;
    for (const GroupRecord& g2 : wide_groups) {
      wide_latest.insert(g2.latest_index);
    }
    for (const GroupRecord& g2 : narrow_groups) {
      EXPECT_TRUE(wide_latest.count(g2.latest_index))
          << "group alive under W'=" << narrow_window
          << " but resurrected relative to W=" << wide_window << " at i="
          << i;
      // And it is genuinely alive under the narrow window.
      EXPECT_GT(g2.latest_stamp, stamp - narrow_window);
    }
    EXPECT_LE(narrow_groups.size(), wide_groups.size());
  }
}

TEST(MetamorphicTest, SeedChangesDecisionsButNotUniverse) {
  // Different seeds give different accept subsets but identical candidate
  // universes at rate 1 (every group judged identically when R=1).
  const NoisyDataset data = MakeData(25, 30);
  SamplerOptions opts = BaseOptions(27);
  opts.accept_cap = 1000;  // keep R = 1
  auto a = RobustL0SamplerIW::Create(opts).value();
  opts.seed = 28;
  auto b = RobustL0SamplerIW::Create(opts).value();
  for (const Point& p : data.points) {
    a.Insert(p);
    b.Insert(p);
  }
  // At R=1 every group is accepted under any seed.
  EXPECT_EQ(a.accept_size(), 30u);
  EXPECT_EQ(b.accept_size(), 30u);
  EXPECT_EQ(AcceptedSet(a), AcceptedSet(b));
}

// ---------------------------------------------------------------------
// Bounded-lateness arrival-order invariance (core/reorder_buffer.h).
//
// The reorder stage's contract: for ANY arrival order in which every
// stamp runs at most `allowed_lateness` behind the running maximum, the
// released sequence — and hence all downstream per-lane state, coin
// streams, and snapshot bytes — is bit-identical to feeding the
// canonically sorted stream through the strict path. The in-bound
// arrival orders are generated by DisorderWithinBound/DisorderSkewed
// (provably bounded; pinned in tests/reorder_test.cc) under varying
// seeds.
// ---------------------------------------------------------------------

namespace {

/// A time-stamped revisit stream over near-duplicate groups.
std::vector<StampedPoint> LatenessStream(size_t n, uint64_t seed) {
  const NoisyDataset data = MakeData(seed, 40);
  std::vector<StampedPoint> out;
  Xoshiro256pp rng(SplitMix64(seed + 100));
  int64_t now = 0;
  for (size_t i = 0; i < n; ++i) {
    now += 1 + static_cast<int64_t>(rng.NextBounded(3));
    StampedPoint sp;
    sp.point = data.points[rng.NextBounded(data.points.size())];
    sp.stamp = now;
    out.push_back(sp);
  }
  return out;
}

SamplerOptions LatenessOptions(uint64_t seed, int64_t lateness) {
  SamplerOptions opts = BaseOptions(seed);
  opts.allowed_lateness = lateness;
  return opts;
}

}  // namespace

TEST(MetamorphicTest, SwArrivalOrderWithinBoundIsInvariantSerial) {
  constexpr int64_t kLateness = 32;
  constexpr int64_t kWindow = 64;
  const std::vector<StampedPoint> stream = LatenessStream(1200, 41);
  std::vector<Point> sorted_points;
  std::vector<int64_t> sorted_stamps;
  SplitStamped(stream, &sorted_points, &sorted_stamps);
  ReorderStage::SortCanonical(&sorted_points, &sorted_stamps);

  // Strict reference: the canonically sorted stream, strict inserts.
  auto reference =
      RobustL0SamplerSW::Create(LatenessOptions(43, kLateness), kWindow)
          .value();
  for (size_t i = 0; i < sorted_points.size(); ++i) {
    reference.Insert(sorted_points[i], sorted_stamps[i]);
  }
  std::string reference_blob;
  ASSERT_TRUE(SnapshotSamplerSW(reference, &reference_blob).ok());
  std::vector<SampleItem> reference_accepted;
  reference.AcceptedWindowItems(reference.latest_stamp(),
                                &reference_accepted);

  for (int perm = 0; perm < 5; ++perm) {
    SCOPED_TRACE("permutation " + std::to_string(perm));
    const std::vector<StampedPoint> arrival =
        perm % 2 == 0 ? DisorderWithinBound(stream, kLateness, 500 + perm)
                      : DisorderSkewed(stream, kLateness, 500 + perm);
    std::vector<Point> points;
    std::vector<int64_t> stamps;
    SplitStamped(arrival, &points, &stamps);

    // The pool's reorder stage is the only bounded-lateness front end;
    // one lane sees the whole released stream, arrival by arrival.
    auto late_fed = ShardedSwSamplerPool::Create(
                        LatenessOptions(43, kLateness), kWindow, 1)
                        .value();
    for (size_t i = 0; i < points.size(); ++i) {
      late_fed.FeedStampedLate(Span<const Point>(&points[i], 1),
                               Span<const int64_t>(&stamps[i], 1));
    }
    late_fed.FlushLate();
    late_fed.Drain();
    EXPECT_EQ(late_fed.late_stats().late_dropped, 0u);

    // Snapshot bytes: bit-identical state (reservoirs, coin streams,
    // stamp lists — everything serialized).
    std::string blob;
    ASSERT_TRUE(SnapshotSamplerSW(late_fed.shard(0), &blob).ok());
    EXPECT_EQ(blob, reference_blob);

    // Accepted window set and reservoir-backed draws.
    std::vector<SampleItem> accepted;
    late_fed.shard(0).AcceptedWindowItems(late_fed.shard(0).watermark(),
                                          &accepted);
    ASSERT_EQ(accepted.size(), reference_accepted.size());
    for (size_t i = 0; i < accepted.size(); ++i) {
      EXPECT_EQ(accepted[i].point, reference_accepted[i].point);
      EXPECT_EQ(accepted[i].stream_index,
                reference_accepted[i].stream_index);
    }
    Xoshiro256pp rng_a(SplitMix64(7));
    Xoshiro256pp rng_b(SplitMix64(7));
    for (int q = 0; q < 8; ++q) {
      const auto a = late_fed.SampleLatest(&rng_a);
      const auto b = reference.SampleLatest(&rng_b);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_EQ(a->point, b->point);
        EXPECT_EQ(a->stream_index, b->stream_index);
      }
    }
  }
}

TEST(MetamorphicTest, SwArrivalOrderWithinBoundIsInvariantSharded) {
  constexpr int64_t kLateness = 24;
  constexpr int64_t kWindow = 96;
  const std::vector<StampedPoint> stream = LatenessStream(900, 47);
  std::vector<Point> sorted_points;
  std::vector<int64_t> sorted_stamps;
  SplitStamped(stream, &sorted_points, &sorted_stamps);
  ReorderStage::SortCanonical(&sorted_points, &sorted_stamps);

  Xoshiro256pp chunk_rng(SplitMix64(321));
  for (const size_t lanes : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    // Strict reference pool: the sorted stream in one stamped feed.
    auto reference =
        ShardedSwSamplerPool::Create(LatenessOptions(49, kLateness), kWindow,
                                     lanes)
            .value();
    reference.FeedStamped(Span<const Point>(sorted_points),
                          Span<const int64_t>(sorted_stamps));
    reference.Drain();
    std::vector<std::string> reference_blobs(lanes);
    for (size_t s = 0; s < lanes; ++s) {
      ASSERT_TRUE(
          SnapshotSamplerSW(reference.shard(s), &reference_blobs[s]).ok());
    }

    for (int perm = 0; perm < 3; ++perm) {
      SCOPED_TRACE("permutation " + std::to_string(perm));
      const std::vector<StampedPoint> arrival =
          DisorderWithinBound(stream, kLateness, 900 + perm);
      std::vector<Point> points;
      std::vector<int64_t> stamps;
      SplitStamped(arrival, &points, &stamps);

      auto pool = ShardedSwSamplerPool::Create(LatenessOptions(49, kLateness),
                                               kWindow, lanes)
                      .value();
      // Random chunking of the late feed: chunk boundaries must not
      // matter either.
      const Span<const Point> all_points(points);
      const Span<const int64_t> all_stamps(stamps);
      size_t offset = 0;
      while (offset < points.size()) {
        const size_t len = 1 + chunk_rng.NextBounded(257);
        pool.FeedStampedLate(all_points.subspan(offset, len),
                             all_stamps.subspan(offset, len));
        offset += len;
      }
      pool.FlushLate();
      pool.Drain();
      EXPECT_EQ(pool.late_stats().late_dropped, 0u);
      EXPECT_EQ(pool.late_stats().released, points.size());

      for (size_t s = 0; s < lanes; ++s) {
        SCOPED_TRACE("shard " + std::to_string(s));
        std::string blob;
        ASSERT_TRUE(SnapshotSamplerSW(pool.shard(s), &blob).ok());
        EXPECT_EQ(blob, reference_blobs[s]);
      }
      Xoshiro256pp rng_a(SplitMix64(11));
      Xoshiro256pp rng_b(SplitMix64(11));
      for (int q = 0; q < 8; ++q) {
        const auto a = pool.SampleLatest(&rng_a);
        const auto b = reference.SampleLatest(&rng_b);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          EXPECT_EQ(a->point, b->point);
          EXPECT_EQ(a->stream_index, b->stream_index);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rl0
