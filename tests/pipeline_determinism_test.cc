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

#include "rl0/core/iw_sampler.h"
#include "rl0/core/sharded_pool.h"
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
