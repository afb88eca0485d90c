// Standing-query battery for the tenant registry (serve/registry.h):
// subscriptions fire at positions that are a deterministic function of
// the fed stream — invariant under feed chunking — in all three stamp
// modes; digest items are always live window members (never expired
// groups); churn alerts measure drift from the last alerted baseline;
// and sampler state survives a checkpoint/recover cycle byte-for-byte
// while subscriptions (scratch state) do not.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "rl0/core/sharded_pool.h"
#include "rl0/serve/protocol.h"
#include "rl0/serve/registry.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace serve {
namespace {

CreateParams SeqParams(size_t dim, int64_t window, uint64_t seed) {
  CreateParams p;
  p.dim = dim;
  p.alpha = 0.5;
  p.window = window;
  p.seed = seed;
  p.expected_m = 1 << 14;
  return p;
}

Command SubscribeCmd(QueryKind kind, uint64_t every, int queries = 1,
                     double threshold = 0.0) {
  Command cmd;
  cmd.type = CommandType::kSubscribe;
  cmd.query = kind;
  cmd.every = every;
  cmd.queries = queries;
  cmd.threshold = threshold;
  return cmd;
}

std::vector<Point> Ramp(size_t n, double scale = 1.0) {
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p(1);
    p[0] = scale * static_cast<double>(i);
    points.push_back(std::move(p));
  }
  return points;
}

/// The at= label of an EVENT block's head line.
int64_t EventAt(const std::string& block) {
  const size_t pos = block.find("at=");
  EXPECT_NE(pos, std::string::npos) << block;
  if (pos == std::string::npos) return -1;
  return std::atoll(block.c_str() + pos + 3);
}

TEST(StandingQueryTest, SequenceDigestFiresAtEveryCrossing) {
  TenantRegistry registry(TenantRegistry::Options{});
  ASSERT_TRUE(registry.Create("t", SeqParams(1, 100, 3)).ok());

  std::vector<std::string> blocks;
  auto sub = registry.Subscribe(
      "t", SubscribeCmd(QueryKind::kDigest, 10), 1,
      [&](const std::string& block) {
        blocks.push_back(block);
        return true;
      });
  ASSERT_TRUE(sub.ok());

  // 35 points in ragged chunks: crossings at counts 10, 20, 30 →
  // evaluated at now = 9, 19, 29.
  const auto points = Ramp(35);
  ASSERT_TRUE(registry
                  .Feed("t", std::vector<Point>(points.begin(),
                                                points.begin() + 7))
                  .ok());
  ASSERT_TRUE(registry
                  .Feed("t", std::vector<Point>(points.begin() + 7,
                                                points.begin() + 16))
                  .ok());
  ASSERT_TRUE(registry
                  .Feed("t", std::vector<Point>(points.begin() + 16,
                                                points.end()))
                  .ok());

  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(EventAt(blocks[0]), 9);
  EXPECT_EQ(EventAt(blocks[1]), 19);
  EXPECT_EQ(EventAt(blocks[2]), 29);
  for (const std::string& block : blocks) {
    EXPECT_NE(block.find("EVENT t "), std::string::npos);
    EXPECT_NE(block.find(" digest "), std::string::npos);
    EXPECT_NE(block.find("ITEM "), std::string::npos);
    EXPECT_EQ(block.rfind("END\n"), block.size() - 4);
  }
}

TEST(StandingQueryTest, FiringPositionsAndItemsInvariantUnderChunking) {
  // The same stream fed as one slab vs. point-by-point produces the
  // same EVENT blocks, byte for byte (chunking-invariance surfaced at
  // the protocol level).
  const auto points = Ramp(50);
  std::vector<std::string> slab_blocks;
  std::vector<std::string> dribble_blocks;

  for (int variant = 0; variant < 2; ++variant) {
    auto& blocks = variant == 0 ? slab_blocks : dribble_blocks;
    TenantRegistry registry(TenantRegistry::Options{});
    ASSERT_TRUE(registry.Create("t", SeqParams(1, 100, 3)).ok());
    ASSERT_TRUE(registry
                    .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 8, 2),
                               1,
                               [&](const std::string& block) {
                                 blocks.push_back(block);
                                 return true;
                               })
                    .ok());
    if (variant == 0) {
      ASSERT_TRUE(registry.Feed("t", points).ok());
    } else {
      for (const Point& p : points) {
        ASSERT_TRUE(registry.Feed("t", {p}).ok());
      }
    }
  }
  EXPECT_EQ(slab_blocks, dribble_blocks);
  ASSERT_EQ(slab_blocks.size(), 6u);  // crossings at 8,16,...,48
  EXPECT_EQ(EventAt(slab_blocks[0]), 7);
  EXPECT_EQ(EventAt(slab_blocks[5]), 47);
}

TEST(StandingQueryTest, TimeModeFiresAtStampCrossings) {
  TenantRegistry registry(TenantRegistry::Options{});
  CreateParams params = SeqParams(1, 1000, 5);
  params.mode = TenantMode::kTime;
  ASSERT_TRUE(registry.Create("t", params).ok());

  std::vector<int64_t> fired;
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 100), 1,
                             [&](const std::string& block) {
                               fired.push_back(EventAt(block));
                               return true;
                             })
                  .ok());

  // Stamps jump over trigger positions: the trigger fires at the first
  // stamp ≥ the crossing, evaluated at that stamp.
  const auto points = Ramp(6);
  ASSERT_TRUE(registry
                  .FeedStamped("t", points,
                               {10, 90, 130, 220, 390, 640})
                  .ok());
  // Crossings: 100 → fires at stamp 130; 200 → 220; 300/400 → one fire
  // at 390? No: 300 ≤ 390 fires at 390, then next_fire advances past
  // 390 to 400; 400 ≤ 640 fires at 640, advancing past 640 to 700.
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0], 130);
  EXPECT_EQ(fired[1], 220);
  EXPECT_EQ(fired[2], 390);
  EXPECT_EQ(fired[3], 640);
}

TEST(StandingQueryTest, TimeModeHugeStampJumpIsCheapAndStaysAligned) {
  // Regression: trigger catch-up used to advance next_fire by `every`
  // one multiple at a time, so an epoch-nanosecond jump over a small
  // cadence spun ~1e16 iterations under the tenant mutex. The jump must
  // cost O(1) and land on the next absolute multiple of `every`.
  TenantRegistry registry(TenantRegistry::Options{});
  CreateParams params = SeqParams(1, 1000, 5);
  params.mode = TenantMode::kTime;
  ASSERT_TRUE(registry.Create("t", params).ok());

  std::vector<int64_t> fired;
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 100), 1,
                             [&](const std::string& block) {
                               fired.push_back(EventAt(block));
                               return true;
                             })
                  .ok());

  constexpr int64_t kEpochNs = 1'700'000'000'000'000'000;
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {10}).ok());
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {kEpochNs}).ok());
  // One fire per crossing batch, at the jump stamp.
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], kEpochNs);
  // next_fire realigned to the next absolute multiple after the jump:
  // kEpochNs + 50 stays below it, kEpochNs + 100 crosses.
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {kEpochNs + 50}).ok());
  ASSERT_EQ(fired.size(), 1u);
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {kEpochNs + 100}).ok());
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], kEpochNs + 100);
}

TEST(StandingQueryTest, TriggerArithmeticSaturatesNearInt64Max) {
  // Regression: next-fire computation could signed-overflow (UB) when
  // the tenant clock and `every` were both large-but-valid; it must
  // saturate instead — a trigger past INT64_MAX simply never fires.
  TenantRegistry registry(TenantRegistry::Options{});
  CreateParams params = SeqParams(1, 1000, 5);
  params.mode = TenantMode::kTime;
  ASSERT_TRUE(registry.Create("t", params).ok());

  constexpr int64_t kBig = int64_t{6'000'000'000'000'000'000};  // 6e18
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {kBig}).ok());

  std::vector<int64_t> fired;
  // clock/every + 1 == 2 and 2 * 5e18 overflows int64: Subscribe must
  // park this trigger at INT64_MAX, not wrap it negative.
  ASSERT_TRUE(
      registry
          .Subscribe("t",
                     SubscribeCmd(QueryKind::kDigest,
                                  uint64_t{5'000'000'000'000'000'000}),
                     1,
                     [&](const std::string& block) {
                       fired.push_back(EventAt(block));
                       return true;
                     })
          .ok());
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {kBig + 10}).ok());
  EXPECT_TRUE(fired.empty());

  // FireDue's catch-up saturates too: a small cadence crossed within
  // `every` of INT64_MAX fires at the crossing, then parks forever.
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 100), 1,
                             [&](const std::string& block) {
                               fired.push_back(EventAt(block));
                               return true;
                             })
                  .ok());
  const int64_t near_max = std::numeric_limits<int64_t>::max() - 5;
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(1), {near_max}).ok());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], near_max);
  ASSERT_TRUE(registry
                  .FeedStamped("t", Ramp(1),
                               {std::numeric_limits<int64_t>::max() - 1})
                  .ok());
  EXPECT_EQ(fired.size(), 1u);
}

TEST(StandingQueryTest, LateModeTriggersFollowReleaseFrontierAndFlush) {
  TenantRegistry registry(TenantRegistry::Options{});
  CreateParams params = SeqParams(1, 1000, 5);
  params.mode = TenantMode::kLate;
  params.lateness = 100;
  ASSERT_TRUE(registry.Create("t", params).ok());

  std::vector<int64_t> fired;
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 50), 1,
                             [&](const std::string& block) {
                               fired.push_back(EventAt(block));
                               return true;
                             })
                  .ok());

  // Stamps reach 120, but the release frontier trails by the lateness
  // bound (100): only releases up to ~20 — no trigger yet.
  const auto points = Ramp(4);
  ASSERT_TRUE(
      registry.FeedStamped("t", points, {80, 40, 120, 100}).ok());
  EXPECT_TRUE(fired.empty());

  // FLUSH releases everything: the frontier jumps to 120, crossing the
  // triggers at 50 and 100 — one fire per crossing batch (the skipped
  // boundary does not replay), labelled with the frontier.
  ASSERT_TRUE(registry.Flush("t").ok());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 120);

  // The next boundary (150) is still pending. Feeding stamps up to 280
  // advances the release frontier to 280 - lateness = 180, crossing it
  // (fire at 180); the final FLUSH pushes the frontier to 280, crossing
  // the rearmed boundary at 200 (fire at 280).
  ASSERT_TRUE(registry.FeedStamped("t", Ramp(2), {200, 280}).ok());
  ASSERT_TRUE(registry.Flush("t").ok());
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[1], 180);
  EXPECT_EQ(fired[2], 280);
}

TEST(StandingQueryTest, FeedStampedRejectsStampCountMismatch) {
  // A direct library caller can hand FeedStamped one stamp per point or
  // not; with a subscription, the trigger loop reads a stamp per point.
  // A mismatch must be refused before the CVM or the pool sees a point.
  for (const TenantMode mode : {TenantMode::kTime, TenantMode::kLate}) {
    SCOPED_TRACE(mode == TenantMode::kTime ? "time" : "late");
    TenantRegistry registry(TenantRegistry::Options{});
    CreateParams params = SeqParams(1, 1000, 5);
    params.mode = mode;
    if (mode == TenantMode::kLate) params.lateness = 10;
    ASSERT_TRUE(registry.Create("t", params).ok());
    std::vector<int64_t> fired;
    ASSERT_TRUE(registry
                    .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 5), 1,
                               [&](const std::string& block) {
                                 fired.push_back(EventAt(block));
                                 return true;
                               })
                    .ok());

    const Status fewer = registry.FeedStamped("t", Ramp(3), {10, 20});
    EXPECT_EQ(fewer.code(), StatusCode::kInvalidArgument);
    const Status more = registry.FeedStamped("t", Ramp(2), {10, 20, 30});
    EXPECT_EQ(more.code(), StatusCode::kInvalidArgument);
    const Status none = registry.FeedStamped("t", {}, {10});
    EXPECT_EQ(none.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(fired.empty());
    auto f0 = registry.F0Line("t");
    ASSERT_TRUE(f0.ok());
    EXPECT_NE(f0.value().find("observed=0"), std::string::npos)
        << f0.value();

    // The tenant is untouched and still serves a well-formed batch.
    ASSERT_TRUE(registry.FeedStamped("t", Ramp(2), {10, 20}).ok());
    ASSERT_TRUE(registry.Flush("t").ok());
    EXPECT_FALSE(fired.empty());
  }
}

TEST(StandingQueryTest, DigestItemsAreNeverExpired) {
  // Tight window over a drifting stream: every ITEM a digest reports
  // must come from inside the window at its fire position.
  TenantRegistry registry(TenantRegistry::Options{});
  const int64_t kWindow = 40;
  ASSERT_TRUE(registry.Create("t", SeqParams(1, kWindow, 9)).ok());

  std::vector<std::string> blocks;
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 25, 3),
                             1,
                             [&](const std::string& block) {
                               blocks.push_back(block);
                               return true;
                             })
                  .ok());

  Xoshiro256pp rng(17);
  std::vector<Point> points;
  for (size_t i = 0; i < 400; ++i) {
    Point p(1);
    // Drifting clusters so old groups genuinely expire.
    p[0] = 10.0 * static_cast<double>(i / 20) + 0.2 * rng.NextDouble();
    points.push_back(std::move(p));
  }
  for (size_t off = 0; off < points.size(); off += 33) {
    const size_t end = std::min(points.size(), off + 33);
    ASSERT_TRUE(
        registry
            .Feed("t", std::vector<Point>(points.begin() + off,
                                          points.begin() + end))
            .ok());
  }

  ASSERT_EQ(blocks.size(), 16u);  // 400 / 25
  for (const std::string& block : blocks) {
    const int64_t at = EventAt(block);
    // Every ITEM line carries "# stream position P": P must lie within
    // the window (at - W, at].
    size_t pos = 0;
    int items = 0;
    while ((pos = block.find("# stream position ", pos)) !=
           std::string::npos) {
      const long long p = std::atoll(block.c_str() + pos + 18);
      EXPECT_GT(p, at - kWindow) << block;
      EXPECT_LE(p, at) << block;
      ++items;
      pos += 18;
    }
    EXPECT_EQ(items, 3) << block;  // q=3, and the window is never empty
  }
}

TEST(StandingQueryTest, F0EventsReportTheCvmWatermark) {
  TenantRegistry registry(TenantRegistry::Options{});
  ASSERT_TRUE(registry.Create("t", SeqParams(1, 1000, 3)).ok());

  std::vector<std::string> blocks;
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kF0, 20), 1,
                             [&](const std::string& block) {
                               blocks.push_back(block);
                               return true;
                             })
                  .ok());
  ASSERT_TRUE(registry.Feed("t", Ramp(60)).ok());
  ASSERT_EQ(blocks.size(), 3u);
  for (const std::string& block : blocks) {
    EXPECT_NE(block.find("DATA f0_exact="), std::string::npos) << block;
    EXPECT_NE(block.find("observed="), std::string::npos) << block;
  }
  // Small stream, default capacity: CVM is still exact — the last
  // watermark observed 60 arrivals.
  EXPECT_NE(blocks[2].find("observed=60"), std::string::npos) << blocks[2];
}

TEST(StandingQueryTest, ChurnAlertsOnDriftFromLastAlertedBaseline) {
  TenantRegistry registry(TenantRegistry::Options{});
  ASSERT_TRUE(registry.Create("t", SeqParams(1, 10000, 3)).ok());

  std::vector<std::string> blocks;
  ASSERT_TRUE(registry
                  .Subscribe("t",
                             SubscribeCmd(QueryKind::kChurn, 50, 1,
                                          /*threshold=*/0.5),
                             1,
                             [&](const std::string& block) {
                               blocks.push_back(block);
                               return true;
                             })
                  .ok());

  // First 50 points: 50 distinct values → first evaluation seeds the
  // baseline silently (no alert).
  ASSERT_TRUE(registry.Feed("t", Ramp(50)).ok());
  EXPECT_EQ(blocks.size(), 0u);

  // Next 50 repeat one value: distinct count barely moves → no alert.
  std::vector<Point> flat(50, Ramp(1)[0]);
  ASSERT_TRUE(registry.Feed("t", flat).ok());
  EXPECT_EQ(blocks.size(), 0u);

  // Then 100 fresh distinct values → ≥50% drift from the baseline →
  // alerts fire.
  ASSERT_TRUE(registry.Feed("t", Ramp(100, 1e6)).ok());
  ASSERT_GE(blocks.size(), 1u);
  EXPECT_NE(blocks[0].find(" churn "), std::string::npos);
  EXPECT_NE(blocks[0].find("DATA "), std::string::npos);
}

TEST(StandingQueryTest, UnsubscribeAndDropOwnerStopDelivery) {
  TenantRegistry registry(TenantRegistry::Options{});
  ASSERT_TRUE(registry.Create("t", SeqParams(1, 100, 3)).ok());

  int count_a = 0;
  int count_b = 0;
  auto sub_a = registry.Subscribe("t", SubscribeCmd(QueryKind::kDigest, 10),
                                  /*owner=*/1, [&](const std::string&) {
                                    ++count_a;
                                    return true;
                                  });
  auto sub_b = registry.Subscribe("t", SubscribeCmd(QueryKind::kDigest, 10),
                                  /*owner=*/2, [&](const std::string&) {
                                    ++count_b;
                                    return true;
                                  });
  ASSERT_TRUE(sub_a.ok());
  ASSERT_TRUE(sub_b.ok());

  ASSERT_TRUE(registry.Feed("t", Ramp(10)).ok());
  EXPECT_EQ(count_a, 1);
  EXPECT_EQ(count_b, 1);

  ASSERT_TRUE(registry.Unsubscribe("t", sub_a.value()).ok());
  registry.DropOwner(2);
  ASSERT_TRUE(registry.Feed("t", Ramp(20)).ok());
  EXPECT_EQ(count_a, 1);
  EXPECT_EQ(count_b, 1);

  // A sink returning false also permanently drops its subscription.
  int count_c = 0;
  ASSERT_TRUE(registry
                  .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 10), 3,
                             [&](const std::string&) {
                               ++count_c;
                               return false;
                             })
                  .ok());
  ASSERT_TRUE(registry.Feed("t", Ramp(30)).ok());
  EXPECT_EQ(count_c, 1);
  ASSERT_TRUE(registry.Feed("t", Ramp(10)).ok());
  EXPECT_EQ(count_c, 1);
}

TEST(StandingQueryTest, SamplerStateSurvivesCheckpointRecover) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("rl0_sq_ckpt_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);

  TenantRegistry::Options options;
  options.checkpoint_root = root;
  Xoshiro256pp rng(99);
  std::vector<Point> points;
  for (size_t i = 0; i < 2000; ++i) {
    Point p(2);
    p[0] = 10.0 * static_cast<double>(rng.NextBounded(40)) +
           0.3 * rng.NextDouble();
    p[1] = p[0];
    points.push_back(std::move(p));
  }

  std::vector<std::string> before;
  {
    TenantRegistry registry(options);
    CreateParams params = SeqParams(2, 300, 7);
    params.checkpoint = true;
    params.checkpoint_every = 512;
    ASSERT_TRUE(registry.Create("t", params).ok());
    // A live subscription rides along; it must not corrupt checkpoints.
    ASSERT_TRUE(registry
                    .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 100),
                               1, [](const std::string&) { return true; })
                    .ok());
    ASSERT_TRUE(registry.Feed("t", points).ok());
    auto sampled = registry.Sample("t", 5, false, 0);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    before = sampled.value();
    ASSERT_TRUE(registry.Close("t").ok());
  }

  {
    TenantRegistry registry(options);
    CreateParams params = SeqParams(2, 300, 7);
    params.checkpoint = true;
    params.recover = true;
    ASSERT_TRUE(registry.Create("t", params).ok());
    auto sampled = registry.Sample("t", 5, false, 0);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    // Bit-identical draws: the recovered pool is the pre-close pool.
    EXPECT_EQ(sampled.value(), before);

    // The recovered tenant keeps working: feeding continues the stream
    // and new triggers fire from the recovered position.
    std::vector<std::string> blocks;
    ASSERT_TRUE(registry
                    .Subscribe("t", SubscribeCmd(QueryKind::kDigest, 500),
                               1,
                               [&](const std::string& block) {
                                 blocks.push_back(block);
                                 return true;
                               })
                    .ok());
    ASSERT_TRUE(
        registry
            .Feed("t", std::vector<Point>(points.begin(),
                                          points.begin() + 600))
            .ok());
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(EventAt(blocks[0]), 2499);  // crossing at count 2500
    ASSERT_TRUE(registry.Close("t").ok());
  }
  std::filesystem::remove_all(root);
}

TEST(StandingQueryTest, RecoverRejectsCreateLinesThatContradictTheCheckpoint) {
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("rl0_sq_mismatch_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(root);

  TenantRegistry::Options options;
  options.checkpoint_root = root;
  TenantRegistry registry(options);
  CreateParams late = SeqParams(2, 300, 7);
  late.mode = TenantMode::kLate;
  late.lateness = 12;
  late.shards = 2;
  late.checkpoint = true;
  late.checkpoint_every = 64;

  // Pair-swapped stamps: every batch is disordered within the bound.
  const auto swapped = [](int64_t first, size_t n) {
    std::vector<int64_t> stamps;
    for (size_t i = 0; i < n; ++i) {
      stamps.push_back(first + 4 * static_cast<int64_t>(i ^ 1));
    }
    return stamps;
  };
  std::vector<Point> points;
  for (size_t i = 0; i < 200; ++i) {
    Point p(2);
    p[0] = 10.0 * static_cast<double>(i % 30);
    p[1] = p[0];
    points.push_back(std::move(p));
  }
  ASSERT_TRUE(registry.Create("t", late).ok());
  ASSERT_TRUE(registry.FeedStamped("t", points, swapped(0, 200)).ok());
  ASSERT_TRUE(registry.Flush("t").ok());
  auto sampled = registry.Sample("t", 5, false, 0);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  const std::vector<std::string> before = sampled.value();
  ASSERT_TRUE(registry.Close("t").ok());

  const std::vector<std::pair<const char*, void (*)(CreateParams*)>>
      mismatches = {
          {"dim", [](CreateParams* p) { p->dim = 3; }},
          {"alpha", [](CreateParams* p) { p->alpha = 0.25; }},
          {"metric", [](CreateParams* p) { p->metric = Metric::kL1; }},
          {"seed", [](CreateParams* p) { p->seed = 8; }},
          {"m", [](CreateParams* p) { p->expected_m = 1 << 15; }},
          {"k", [](CreateParams* p) { p->k = 2; }},
          {"reservoir", [](CreateParams* p) { p->reservoir = true; }},
          {"window", [](CreateParams* p) { p->window = 301; }},
          {"shards", [](CreateParams* p) { p->shards = 3; }},
          {"mode", [](CreateParams* p) { p->mode = TenantMode::kSequence; }},
          {"lateness", [](CreateParams* p) { p->lateness = 13; }},
      };
  for (const auto& [field, mutate] : mismatches) {
    SCOPED_TRACE(field);
    CreateParams params = late;
    params.recover = true;
    mutate(&params);
    const Status status = registry.Create("t", params);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find(field), std::string::npos)
        << status.ToString();
    // No tenant was registered, and the registry keeps serving.
    EXPECT_EQ(registry.tenant_count(), 0u);
    EXPECT_FALSE(registry.Sample("t", 1, false, 0).ok());
    EXPECT_TRUE(registry.StatsLines("").ok());
  }

  // every= and filter= may differ; the restored pool is the closed one.
  CreateParams params = late;
  params.recover = true;
  params.checkpoint_every = 0;
  params.filter = false;
  ASSERT_TRUE(registry.Create("t", params).ok());
  sampled = registry.Sample("t", 5, false, 0);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  EXPECT_EQ(sampled.value(), before);
  // The checkpointed lateness bound is back in force: more within-bound
  // disorder is reordered, not dropped.
  ASSERT_TRUE(registry.FeedStamped("t", points, swapped(800, 200)).ok());
  auto stats = registry.StatsLines("t");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  EXPECT_NE(stats.value()[0].find("late_dropped=0"), std::string::npos)
      << stats.value()[0];
  ASSERT_TRUE(registry.Close("t").ok());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace serve
}  // namespace rl0
