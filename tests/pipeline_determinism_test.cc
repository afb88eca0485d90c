// Determinism of the persistent ingestion pipeline (extends
// ingest_determinism_test.cc to the IngestPool-backed Feed/Drain path).
//
// The pipeline's contract has two layers:
//
//   1. Per-shard invariance: shard s consumes the points at *global*
//      stream positions ≡ s (mod S), so its input subsequence — and its
//      whole decision trajectory, including rate halvings — depends only
//      on (stream, S). Feeding in any chunking, with any interleaving of
//      Drain calls, must leave every shard in bit-identical state. This
//      holds at every rate, not just rate 1.
//
//   2. Merged-vs-pointwise: at rate 1 (accept cap above the group count)
//      judging is shard-independent, so the sharded-then-merged accept
//      and reject sets must reproduce the pointwise sampler's decisions
//      bit-for-bit, for any worker count and any chunking.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rl0/core/dup_filter.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

struct Workload {
  const char* name;
  NoisyDataset data;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  const auto add = [&out](const char* name, BaseDataset base, uint64_t seed) {
    NearDupOptions nd;
    nd.max_dups = 20;
    nd.seed = seed;
    out.push_back(Workload{name, MakeNearDuplicates(base, nd)});
  };
  add("Rand5", Rand5(), 21);
  add("Yacht", YachtLike(), 22);
  add("Rand20", Rand20(), 23);
  return out;
}

SamplerOptions BaseOptions(const NoisyDataset& data, uint64_t seed) {
  SamplerOptions opts;
  opts.dim = data.dim;
  opts.alpha = data.alpha;
  opts.seed = seed;
  opts.side_mode = GridSideMode::kHighDim;
  opts.expected_stream_length = data.size();
  return opts;
}

void ExpectSameItems(const std::vector<SampleItem>& got,
                     const std::vector<SampleItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].stream_index, want[i].stream_index);
    EXPECT_EQ(got[i].point, want[i].point);
  }
}

/// Feeds `points` in randomized chunk sizes (deterministic per seed);
/// optionally drains after every chunk.
void FeedRandomChunks(ShardedSamplerPool* pool, Span<const Point> points,
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

/// An exact-duplicate-heavy stream: `groups` well-separated centers,
/// each arrival is (with probability 0.8) a byte-identical repeat of a
/// center — the regime the duplicate-suppression front-end caches — and
/// otherwise a fresh within-alpha perturbation.
std::vector<Point> DupHeavyStream(size_t n, size_t groups, uint64_t seed) {
  Xoshiro256pp rng(SplitMix64(seed));
  std::vector<Point> centers;
  for (size_t g = 0; g < groups; ++g) {
    centers.push_back(Point{7.0 * static_cast<double>(g),
                            -3.0 * static_cast<double>(g)});
  }
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p = centers[rng.NextBounded(groups)];
    if (rng.NextDouble() >= 0.8) {
      p[0] += 0.2 * (rng.NextDouble() - 0.5);
      p[1] += 0.2 * (rng.NextDouble() - 0.5);
    }
    out.push_back(p);
  }
  return out;
}

TEST(PipelineDeterminismTest, DupFilterOnOffBitIdentical) {
  // The front-end's decision-identity contract: with the filter on,
  // accepted decisions AND all RNG consumption must be bit-identical to
  // the filter-off run. Reservoir mode makes the RNG half observable —
  // the duplicate-loss path draws a reservoir coin per arrival, so any
  // extra or missing draw desynchronizes every later sample point.
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 611;
  opts.expected_stream_length = 4096;
  opts.random_representative = true;
  SamplerOptions off_opts = opts;
  off_opts.dup_filter = false;

  auto on = RobustL0SamplerIW::Create(opts).value();
  auto off = RobustL0SamplerIW::Create(off_opts).value();
  const std::vector<Point> stream = DupHeavyStream(4000, 40, 612);
  for (const Point& p : stream) {
    on.Insert(p);
    off.Insert(p);
  }

  EXPECT_EQ(on.level(), off.level());
  ExpectSameItems(on.AcceptedRepresentatives(),
                  off.AcceptedRepresentatives());
  ExpectSameItems(on.RejectedRepresentatives(),
                  off.RejectedRepresentatives());

  // Coin-stream identity: identical external query RNGs must draw
  // identical samples (the per-group sample points reflect every
  // internal reservoir coin consumed during ingestion).
  Xoshiro256pp rng_on(77), rng_off(77);
  for (int q = 0; q < 20; ++q) {
    const auto sample_on = on.Sample(&rng_on);
    const auto sample_off = off.Sample(&rng_off);
    ASSERT_EQ(sample_on.has_value(), sample_off.has_value());
    if (sample_on.has_value()) {
      EXPECT_EQ(sample_on->point, sample_off->point);
      EXPECT_EQ(sample_on->stream_index, sample_off->stream_index);
    }
  }

  // The filter is scratch state: snapshots must be byte-identical.
  std::string bytes_on, bytes_off;
  ASSERT_TRUE(SnapshotSampler(on, &bytes_on).ok());
  ASSERT_TRUE(SnapshotSampler(off, &bytes_off).ok());
  EXPECT_EQ(bytes_on, bytes_off);

  // The comparison is only meaningful if the replay path actually ran.
  if (DupFilter::kCompiledIn) {
    EXPECT_GT(on.filter_stats().hits, 0u);
  }
  EXPECT_EQ(off.filter_stats().hits, 0u);
  EXPECT_EQ(off.filter_stats().bypassed, off.points_processed());
}

TEST(PipelineDeterminismTest, DupFilterOnOffBitIdenticalSharded) {
  // Per-lane filters through the pipeline: every shard's state must be
  // bit-identical with the front-end on or off, under chunked feeding.
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 613;
  opts.expected_stream_length = 4096;
  SamplerOptions off_opts = opts;
  off_opts.dup_filter = false;
  const std::vector<Point> stream = DupHeavyStream(4000, 40, 614);
  const size_t shards = 3;

  auto pool_on = ShardedSamplerPool::Create(opts, shards).value();
  auto pool_off = ShardedSamplerPool::Create(off_opts, shards).value();
  FeedRandomChunks(&pool_on, stream, 881, /*max_chunk=*/97);
  FeedRandomChunks(&pool_off, stream, 882, /*max_chunk=*/41);

  for (size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(pool_on.shard(s).level(), pool_off.shard(s).level());
    ExpectSameItems(pool_on.shard(s).AcceptedRepresentatives(),
                    pool_off.shard(s).AcceptedRepresentatives());
    ExpectSameItems(pool_on.shard(s).RejectedRepresentatives(),
                    pool_off.shard(s).RejectedRepresentatives());
  }
  if (DupFilter::kCompiledIn) {
    EXPECT_GT(pool_on.FilterStats().hits, 0u);
  }
  EXPECT_EQ(pool_off.FilterStats().hits, 0u);
}

TEST(PipelineDeterminismTest, FeedMatchesPointwiseAcrossWorkerCounts) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    SamplerOptions opts = BaseOptions(w.data, 501);
    // Rate pinned at 1: merged decisions must be bit-identical to the
    // pointwise sampler (see ingest_determinism_test for why coarser
    // rates only guarantee distributional equality after a merge).
    opts.accept_cap = 1 << 20;
    auto pointwise = RobustL0SamplerIW::Create(opts).value();
    for (const Point& p : w.data.points) pointwise.Insert(p);
    ASSERT_EQ(pointwise.level(), 0u);

    uint64_t chunk_seed = 9000;
    for (size_t workers : {1, 2, 8}) {
      SCOPED_TRACE(workers);
      auto pool = ShardedSamplerPool::Create(opts, workers).value();
      FeedRandomChunks(&pool, w.data.points, ++chunk_seed,
                       /*max_chunk=*/97);
      EXPECT_EQ(pool.points_processed(), w.data.points.size());
      auto merged = pool.Merged().value();
      EXPECT_EQ(merged.level(), 0u);
      ExpectSameItems(merged.AcceptedRepresentatives(),
                      pointwise.AcceptedRepresentatives());
      ExpectSameItems(merged.RejectedRepresentatives(),
                      pointwise.RejectedRepresentatives());
    }
  }
}

TEST(PipelineDeterminismTest, PerShardStateInvariantUnderRechunking) {
  // The global-residue partition makes every shard's input independent of
  // chunk boundaries — per-shard states must match bit-for-bit even at a
  // natural accept cap, where rates rise and refilters run.
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const SamplerOptions opts = BaseOptions(w.data, 502);
    const size_t shards = 3;

    auto whole = ShardedSamplerPool::Create(opts, shards).value();
    whole.ConsumeParallel(w.data.points);

    auto tiny = ShardedSamplerPool::Create(opts, shards).value();
    FeedRandomChunks(&tiny, w.data.points, 777, /*max_chunk=*/13);

    auto big = ShardedSamplerPool::Create(opts, shards).value();
    FeedRandomChunks(&big, w.data.points, 778, /*max_chunk=*/1000,
                     /*drain_between=*/true);

    for (size_t s = 0; s < shards; ++s) {
      SCOPED_TRACE(s);
      EXPECT_EQ(tiny.shard(s).level(), whole.shard(s).level());
      EXPECT_EQ(tiny.shard(s).points_processed(),
                whole.shard(s).points_processed());
      ExpectSameItems(tiny.shard(s).AcceptedRepresentatives(),
                      whole.shard(s).AcceptedRepresentatives());
      ExpectSameItems(tiny.shard(s).RejectedRepresentatives(),
                      whole.shard(s).RejectedRepresentatives());
      ExpectSameItems(big.shard(s).AcceptedRepresentatives(),
                      whole.shard(s).AcceptedRepresentatives());
      ExpectSameItems(big.shard(s).RejectedRepresentatives(),
                      whole.shard(s).RejectedRepresentatives());
    }
  }
}

TEST(PipelineDeterminismTest, FeedVariantsAgree) {
  // Copying Feed and zero-copy FeedBorrowed must produce identical shard
  // states.
  const Workload w = Workloads()[1];
  const SamplerOptions opts = BaseOptions(w.data, 504);
  const size_t shards = 2;

  auto copied = ShardedSamplerPool::Create(opts, shards).value();
  auto borrowed = ShardedSamplerPool::Create(opts, shards).value();
  const Span<const Point> all(w.data.points);
  const size_t chunk = 101;
  for (size_t offset = 0; offset < all.size(); offset += chunk) {
    const Span<const Point> piece = all.subspan(offset, chunk);
    copied.Feed(piece);
    borrowed.FeedBorrowed(piece);
  }
  copied.Drain();
  borrowed.Drain();
  for (size_t s = 0; s < shards; ++s) {
    SCOPED_TRACE(s);
    ExpectSameItems(borrowed.shard(s).AcceptedRepresentatives(),
                    copied.shard(s).AcceptedRepresentatives());
  }
}

TEST(PipelineDeterminismTest, MergedQuiescedAfterDrainEqualsMerged) {
  const Workload w = Workloads()[0];
  SamplerOptions opts = BaseOptions(w.data, 505);
  opts.accept_cap = 1 << 20;
  auto pool = ShardedSamplerPool::Create(opts, 3).value();
  pool.Feed(w.data.points);
  pool.Drain();
  auto merged = pool.Merged().value();
  auto quiesced = pool.MergedQuiesced().value();
  ExpectSameItems(quiesced.AcceptedRepresentatives(),
                  merged.AcceptedRepresentatives());
  ExpectSameItems(quiesced.RejectedRepresentatives(),
                  merged.RejectedRepresentatives());
}

}  // namespace
}  // namespace rl0
