// Concurrency stress for the persistent ingestion pipeline. Run under
// ThreadSanitizer in CI (see .github/workflows/ci.yml, job `tsan`): the
// assertions here check exactly-once accounting; TSan checks the
// happens-before edges of the queue handoffs, the Drain barrier and the
// quiesced merge/snapshot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rl0/core/ingest_pool.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/util/bounded_queue.h"

namespace rl0 {
namespace {

NoisyDataset StressData(uint64_t seed, size_t groups) {
  const BaseDataset base = RandomUniform(groups, 3, seed, "Stress");
  NearDupOptions nd;
  nd.max_dups = 12;
  nd.seed = seed + 1;
  return MakeNearDuplicates(base, nd);
}

SamplerOptions StressOptions(const NoisyDataset& data, uint64_t seed) {
  SamplerOptions opts;
  opts.dim = data.dim;
  opts.alpha = data.alpha;
  opts.seed = seed;
  opts.side_mode = GridSideMode::kHighDim;
  opts.expected_stream_length = data.size();
  return opts;
}

TEST(PipelineStressTest, MultiProducerFeedCountsEveryPointExactlyOnce) {
  const NoisyDataset data = StressData(61, 80);
  SamplerOptions opts = StressOptions(data, 62);
  opts.accept_cap = 1 << 20;  // rate 1: merged must cover every group
  IngestPool::Options pipeline;
  pipeline.queue_capacity = 2;  // small window: exercise backpressure
  auto pool = ShardedSamplerPool::Create(opts, 4, pipeline).value();

  const size_t producers = 4;
  const Span<const Point> all(data.points);
  const size_t slice = all.size() / producers;
  std::vector<std::thread> feeders;
  for (size_t t = 0; t < producers; ++t) {
    const size_t begin = t * slice;
    const size_t count = t + 1 == producers ? all.size() - begin : slice;
    feeders.emplace_back([&pool, all, begin, count] {
      // Many small chunks per producer: chunk interleaving across
      // producers is scheduler-dependent, totals must not be.
      const size_t chunk = 37;
      for (size_t offset = 0; offset < count; offset += chunk) {
        const size_t n = offset + chunk > count ? count - offset : chunk;
        pool.Feed(all.subspan(begin + offset, n));
      }
    });
  }
  for (std::thread& f : feeders) f.join();
  pool.Drain();

  EXPECT_EQ(pool.points_fed(), data.points.size());
  EXPECT_EQ(pool.points_processed(), data.points.size());
  // Chunk order is nondeterministic, but at rate 1 the merged accept set
  // still holds exactly one representative per group.
  auto merged = pool.Merged().value();
  EXPECT_EQ(merged.level(), 0u);
  EXPECT_EQ(merged.accept_size(), data.num_groups);
}

TEST(PipelineStressTest, ConcurrentDrainAndQuiescedSnapshot) {
  const NoisyDataset data = StressData(71, 60);
  SamplerOptions opts = StressOptions(data, 72);
  auto pool = ShardedSamplerPool::Create(opts, 3).value();

  std::atomic<bool> feeding{true};
  const Span<const Point> all(data.points);

  std::vector<std::thread> feeders;
  for (size_t t = 0; t < 2; ++t) {
    const size_t begin = t * (all.size() / 2);
    const size_t count = t == 0 ? all.size() / 2 : all.size() - begin;
    feeders.emplace_back([&pool, all, begin, count] {
      const size_t chunk = 53;
      for (size_t offset = 0; offset < count; offset += chunk) {
        const size_t n = offset + chunk > count ? count - offset : chunk;
        pool.Feed(all.subspan(begin + offset, n));
      }
    });
  }

  // Drainers: Drain is a barrier on everything fed before the call and
  // must be safe from any number of threads, concurrently with feeding.
  std::vector<std::thread> drainers;
  for (int t = 0; t < 2; ++t) {
    drainers.emplace_back([&pool, &feeding] {
      while (feeding.load(std::memory_order_relaxed)) {
        pool.Drain();
      }
    });
  }

  // Snapshotter: MergedQuiesced pauses the workers between chunks, so a
  // consistent (prefix-per-shard) merged sampler can be checkpointed
  // while the stream is still flowing.
  std::thread snapshotter([&pool, &feeding] {
    int round_trips = 0;
    while (feeding.load(std::memory_order_relaxed) || round_trips == 0) {
      auto merged = pool.MergedQuiesced();
      ASSERT_TRUE(merged.ok());
      std::string blob;
      ASSERT_TRUE(SnapshotSampler(merged.value(), &blob).ok());
      auto restored = RestoreSampler(blob);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(restored.value().accept_size(), merged.value().accept_size());
      ++round_trips;
    }
    EXPECT_GT(round_trips, 0);
  });

  for (std::thread& f : feeders) f.join();
  feeding.store(false, std::memory_order_relaxed);
  for (std::thread& d : drainers) d.join();
  snapshotter.join();

  pool.Drain();
  EXPECT_EQ(pool.points_processed(), data.points.size());
}

TEST(PipelineStressTest, SwPoolConcurrentDrainAndQuiescedSnapshot) {
  // The windowed pool under the same contention pattern: multi-producer
  // feeding, concurrent Drain barriers, and a snapshotter that samples
  // the live window and checkpoints a shard (SnapshotSamplerSW) while
  // the workers are paused between chunks. Stamps are global stream
  // positions, so totals — and each lane's trajectory — must come out
  // scheduler-independent. Runs under TSan in CI.
  const NoisyDataset data = StressData(91, 60);
  SamplerOptions opts = StressOptions(data, 92);
  const int64_t window = static_cast<int64_t>(data.size() / 3);
  IngestPool::Options pipeline;
  pipeline.queue_capacity = 2;  // exercise backpressure
  auto pool = ShardedSwSamplerPool::Create(opts, window, 3, pipeline).value();

  std::atomic<bool> feeding{true};
  const Span<const Point> all(data.points);

  std::vector<std::thread> feeders;
  for (size_t t = 0; t < 2; ++t) {
    const size_t begin = t * (all.size() / 2);
    const size_t count = t == 0 ? all.size() / 2 : all.size() - begin;
    feeders.emplace_back([&pool, all, begin, count] {
      const size_t chunk = 53;
      for (size_t offset = 0; offset < count; offset += chunk) {
        const size_t n = offset + chunk > count ? count - offset : chunk;
        pool.Feed(all.subspan(begin + offset, n));
      }
    });
  }

  std::vector<std::thread> drainers;
  for (int t = 0; t < 2; ++t) {
    drainers.emplace_back([&pool, &feeding] {
      while (feeding.load(std::memory_order_relaxed)) {
        pool.Drain();
      }
    });
  }

  std::thread snapshotter([&pool, &feeding] {
    int round_trips = 0;
    Xoshiro256pp rng(93);
    while (feeding.load(std::memory_order_relaxed) || round_trips == 0) {
      // A quiesced live-window sample (each shard at its own prefix)...
      (void)pool.SampleQuiesced(&rng);
      // ...and a quiesced checkpoint of shard 0 that must round-trip.
      std::string blob;
      Status status = Status::OK();
      uint64_t processed_at_pause = 0;
      pool.QuiescedRun([&pool, &blob, &status, &processed_at_pause] {
        processed_at_pause = pool.shard(0).points_processed();
        status = SnapshotSamplerSW(pool.shard(0), &blob);
      });
      ASSERT_TRUE(status.ok());
      auto restored = RestoreSamplerSW(blob);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(restored.value().points_processed(), processed_at_pause);
      ++round_trips;
    }
    EXPECT_GT(round_trips, 0);
  });

  for (std::thread& f : feeders) f.join();
  feeding.store(false, std::memory_order_relaxed);
  for (std::thread& d : drainers) d.join();
  snapshotter.join();

  pool.Drain();
  EXPECT_EQ(pool.points_fed(), data.points.size());
  EXPECT_EQ(pool.points_processed(), data.points.size());
  // After the barrier the merged window view is live and non-empty.
  EXPECT_FALSE(pool.MergedWindowItems(pool.now()).empty());
}

TEST(PipelineStressTest, SwPoolConcurrentStampedFeedAndQuiescedSnapshot) {
  // The stamped-chunk (time-based) pipeline under contention: one
  // time-ordered producer (explicit stamps must be monotone in enqueue
  // order, so a single source feeds — the realistic shape of an
  // event-time stream), concurrent Drain barriers, and a snapshotter
  // that samples the live window (SampleQuiesced) and checkpoints a
  // shard (SnapshotSamplerSW) while the workers are paused between
  // chunks. The stamp arrays ride the chunks, so totals — and each
  // lane's trajectory — must come out scheduler-independent. Runs under
  // TSan in CI (job `tsan` matches pipeline_stress).
  const NoisyDataset data = StressData(101, 60);
  SamplerOptions opts = StressOptions(data, 102);
  std::vector<int64_t> stamps;
  stamps.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    stamps.push_back(static_cast<int64_t>(3 * i + (i % 2)));
  }
  const int64_t window = static_cast<int64_t>(data.size());  // time units
  IngestPool::Options pipeline;
  pipeline.queue_capacity = 2;  // exercise backpressure
  auto pool = ShardedSwSamplerPool::Create(opts, window, 3, pipeline).value();

  std::atomic<bool> feeding{true};
  const Span<const Point> all(data.points);
  const Span<const int64_t> all_stamps(stamps);

  std::thread feeder([&pool, all, all_stamps] {
    const size_t chunk = 53;
    for (size_t offset = 0; offset < all.size(); offset += chunk) {
      const size_t n =
          offset + chunk > all.size() ? all.size() - offset : chunk;
      pool.FeedStamped(all.subspan(offset, n), all_stamps.subspan(offset, n));
    }
  });

  std::vector<std::thread> drainers;
  for (int t = 0; t < 2; ++t) {
    drainers.emplace_back([&pool, &feeding] {
      while (feeding.load(std::memory_order_relaxed)) {
        pool.Drain();
      }
    });
  }

  std::thread snapshotter([&pool, &feeding] {
    int round_trips = 0;
    Xoshiro256pp rng(103);
    while (feeding.load(std::memory_order_relaxed) || round_trips == 0) {
      (void)pool.SampleQuiesced(&rng);
      std::string blob;
      Status status = Status::OK();
      uint64_t processed_at_pause = 0;
      pool.QuiescedRun([&pool, &blob, &status, &processed_at_pause] {
        processed_at_pause = pool.shard(0).points_processed();
        status = SnapshotSamplerSW(pool.shard(0), &blob);
      });
      ASSERT_TRUE(status.ok());
      auto restored = RestoreSamplerSW(blob);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(restored.value().points_processed(), processed_at_pause);
      ++round_trips;
    }
    EXPECT_GT(round_trips, 0);
  });

  feeder.join();
  feeding.store(false, std::memory_order_relaxed);
  for (std::thread& d : drainers) d.join();
  snapshotter.join();

  pool.Drain();
  EXPECT_EQ(pool.points_fed(), data.points.size());
  EXPECT_EQ(pool.points_processed(), data.points.size());
  EXPECT_EQ(pool.now(), stamps.back());
  // After the barrier the merged window view is live and non-empty, and
  // no reported member's stamp has expired.
  const std::vector<SampleItem> merged = pool.MergedWindowItems(pool.now());
  ASSERT_FALSE(merged.empty());
  for (const SampleItem& item : merged) {
    ASSERT_LT(item.stream_index, stamps.size());
    EXPECT_GT(stamps[item.stream_index], pool.now() - window);
  }
}

TEST(PipelineStressTest, SwPoolMultiProducerLateFeedAccountsEveryPoint) {
  // The bounded-lateness front-end under contention: several producers
  // feed disordered stamped slices through FeedStampedLate (the pool's
  // reorder stage serializes the offer → release → watermark pump),
  // concurrent Drain barriers, and a snapshotter that samples and
  // checkpoints a quiesced shard mid-stream. Producer interleaving is
  // scheduler-dependent, so points of a slow producer may land beyond
  // the bound — they are dropped but never silently lost: after
  // FlushLate + Drain, released + dropped must reconcile exactly with
  // the input size, whatever the schedule. Runs under TSan in CI (job
  // `tsan` matches pipeline_stress).
  const NoisyDataset data = StressData(151, 60);
  SamplerOptions opts = StressOptions(data, 152);
  opts.allowed_lateness = 64;
  std::vector<int64_t> stamps;
  stamps.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    // A jittered clock: stamps run up to 32 time units behind 2·i, so a
    // single-producer arrival order stays within the 64-unit bound and
    // only cross-producer interleaving can push points beyond it.
    stamps.push_back(static_cast<int64_t>(2 * i) -
                     static_cast<int64_t>(SplitMix64(i) % 33));
  }
  int64_t max_stamp = stamps[0];
  for (int64_t s : stamps) max_stamp = std::max(max_stamp, s);
  const int64_t window = static_cast<int64_t>(2 * data.size());
  IngestPool::Options pipeline;
  pipeline.queue_capacity = 2;  // exercise backpressure
  auto pool = ShardedSwSamplerPool::Create(opts, window, 3, pipeline).value();

  std::atomic<bool> feeding{true};
  const Span<const Point> all(data.points);
  const Span<const int64_t> all_stamps(stamps);

  const size_t producers = 4;
  const size_t slice = all.size() / producers;
  std::vector<std::thread> feeders;
  for (size_t t = 0; t < producers; ++t) {
    const size_t begin = t * slice;
    const size_t count = t + 1 == producers ? all.size() - begin : slice;
    feeders.emplace_back([&pool, all, all_stamps, begin, count] {
      const size_t chunk = 47;
      for (size_t offset = begin; offset < begin + count; offset += chunk) {
        const size_t n = std::min(chunk, begin + count - offset);
        pool.FeedStampedLate(all.subspan(offset, n),
                             all_stamps.subspan(offset, n));
      }
    });
  }

  std::vector<std::thread> drainers;
  for (int t = 0; t < 2; ++t) {
    drainers.emplace_back([&pool, &feeding] {
      while (feeding.load(std::memory_order_relaxed)) {
        pool.Drain();
      }
    });
  }

  std::thread snapshotter([&pool, &feeding] {
    int round_trips = 0;
    Xoshiro256pp rng(153);
    while (feeding.load(std::memory_order_relaxed) || round_trips == 0) {
      (void)pool.SampleQuiesced(&rng);
      std::string blob;
      Status status = Status::OK();
      uint64_t processed_at_pause = 0;
      pool.QuiescedRun([&pool, &blob, &status, &processed_at_pause] {
        processed_at_pause = pool.shard(0).points_processed();
        status = SnapshotSamplerSW(pool.shard(0), &blob);
      });
      ASSERT_TRUE(status.ok());
      auto restored = RestoreSamplerSW(blob);
      ASSERT_TRUE(restored.ok());
      EXPECT_EQ(restored.value().points_processed(), processed_at_pause);
      ++round_trips;
    }
    EXPECT_GT(round_trips, 0);
  });

  for (std::thread& f : feeders) f.join();
  feeding.store(false, std::memory_order_relaxed);
  for (std::thread& d : drainers) d.join();
  snapshotter.join();

  pool.FlushLate();
  pool.Drain();
  const ReorderStats stats = pool.late_stats();
  EXPECT_EQ(stats.offered, data.size());
  EXPECT_EQ(stats.buffered, 0u);
  EXPECT_EQ(stats.released + stats.late_dropped, data.size());
  EXPECT_EQ(pool.points_processed(), stats.released);
  EXPECT_EQ(pool.now(), max_stamp);
}

TEST(PipelineStressTest, StopWithBacklogProcessesEverything) {
  // Destroying the pool (Stop) must consume the queued backlog, not drop
  // it: feeding then immediately destructing loses nothing.
  const NoisyDataset data = StressData(81, 40);
  SamplerOptions opts = StressOptions(data, 82);
  uint64_t processed = 0;
  {
    IngestPool::Options pipeline;
    pipeline.queue_capacity = 2;
    auto pool = ShardedSamplerPool::Create(opts, 2, pipeline).value();
    const Span<const Point> all(data.points);
    const size_t chunk = 64;
    for (size_t offset = 0; offset < all.size(); offset += chunk) {
      pool.Feed(all.subspan(offset, chunk));
    }
    pool.Drain();
    processed = pool.points_processed();
  }  // ~ShardedSamplerPool -> IngestPool::Stop
  EXPECT_EQ(processed, data.points.size());
}

TEST(PipelineStressTest, BoundedQueueMultiProducerExactlyOnce) {
  BoundedQueue<int> queue(3);
  const int producers = 4;
  const int per_producer = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < producers; ++t) {
    workers.emplace_back([&queue, t] {
      for (int i = 0; i < per_producer; ++i) {
        ASSERT_TRUE(queue.Push(t * per_producer + i));
      }
    });
  }
  std::vector<char> seen(producers * per_producer, 0);
  std::thread consumer([&queue, &seen] {
    int item;
    while (queue.Pop(&item)) {
      ASSERT_GE(item, 0);
      ASSERT_LT(item, static_cast<int>(seen.size()));
      seen[item] += 1;
    }
  });
  for (std::thread& w : workers) w.join();
  queue.Close();
  consumer.join();
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "item " << i;
  }
}

TEST(PipelineStressTest, BoundedQueueCloseDrainsThenStops) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.Push(1));
  EXPECT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_FALSE(queue.Push(3));
  EXPECT_FALSE(queue.TryPush(4));
  int item = 0;
  EXPECT_TRUE(queue.Pop(&item));
  EXPECT_EQ(item, 1);
  EXPECT_TRUE(queue.Pop(&item));
  EXPECT_EQ(item, 2);
  EXPECT_FALSE(queue.Pop(&item));  // closed and drained
}

}  // namespace
}  // namespace rl0
