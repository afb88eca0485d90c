// Ingestion-throughput benchmark for the arena/flat-index refactor.
//
// Measures points/sec over paper-style noisy streams across dims
// {2, 5, 20} for three ingestion paths:
//
//   legacy  — LegacyL0SamplerIW: the pre-refactor map-based layout
//             (unordered_map + unordered_multimap, heap Point per rep),
//             point-at-a-time;
//   arena   — RobustL0SamplerIW::Insert: the RepTable/PointStore layout,
//             point-at-a-time;
//   batch   — RobustL0SamplerIW::InsertBatch: same layout, contiguous
//             chunk ingestion (the preferred single-thread path);
//   pool    — ShardedSamplerPool (4 shards) fed in 4096-point chunks
//             through the persistent IngestPool pipeline, then Drain and
//             Merged(): the timing ends at a query-ready merged sampler
//             (the preferred multi-shard path; pool_speedup is over
//             batch, the serial path the pool parallelises);
//   swpool  — ShardedSwSamplerPool (4 lanes, window 8192) fed the same
//             chunks: the sliding-window mode of the pipeline (see
//             bench_window for the flat-vs-legacy window index sweep).
//
// All three make bit-identical sampling decisions (pinned by
// tests/ingest_determinism_test.cc), so the comparison is pure layout.
//
// Output: a human-readable table on stderr and a JSON document on stdout
// (pipe to BENCH_ingest.json to track the trajectory across PRs):
//   RL0_REPEATS  overrides the per-path repeat count (default 3).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "rl0/baseline/legacy_iw_sampler.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/geom/distance_kernels.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"

namespace {

using rl0::LegacyL0SamplerIW;
using rl0::NoisyDataset;
using rl0::ShardedSamplerPool;
using rl0::ShardedSwSamplerPool;
using rl0::Point;
using rl0::RobustL0SamplerIW;
using rl0::SamplerOptions;

struct PathResult {
  double points_per_sec = 0.0;
  size_t accept_size = 0;  // keeps the work observable
};

size_t ObservableState(const LegacyL0SamplerIW& s) { return s.accept_size(); }
size_t ObservableState(const RobustL0SamplerIW& s) { return s.accept_size(); }
size_t ObservableState(const ShardedSamplerPool& s) { return s.SpaceWords(); }
size_t ObservableState(const ShardedSwSamplerPool& s) { return s.SpaceWords(); }

template <typename MakeSampler, typename Feed>
double TimeOnce(const NoisyDataset& data, int rep, MakeSampler make_sampler,
                Feed feed) {
  auto sampler = make_sampler(rep);
  const auto start = std::chrono::steady_clock::now();
  feed(&sampler);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Keep the final state observable so the loop cannot be optimized away.
  if (ObservableState(sampler) == data.size()) {
    std::fprintf(stderr, "(full accept)\n");  // keep stdout JSON-clean
  }
  return static_cast<double>(data.size()) / seconds;
}

NoisyDataset IngestStream(size_t dim, uint64_t seed) {
  const rl0::BaseDataset base = rl0::RandomUniform(
      1000, dim, seed, "Ingest" + std::to_string(dim));
  rl0::NearDupOptions nd;
  nd.max_dups = 100;  // paper-scale duplication: ~50k-point streams
  nd.seed = seed + 1;
  return rl0::MakeNearDuplicates(base, nd);
}

}  // namespace

int main() {
  const int repeats = rl0::bench::EnvRepeats(3);
  const uint64_t seed = 20180618;  // the paper's PODS year + month + day
  const unsigned cores = std::thread::hardware_concurrency();

  // Machine facts ride with the numbers so BENCH_ingest.json
  // trajectories are comparable across machines: the distance-kernel
  // dispatch path (avx2 vs scalar) changes single-thread throughput, the
  // core count bounds what the pool rows can show (see docs/BENCHMARKS.md).
  std::printf("{\n  \"bench\": \"ingest\",\n  \"repeats\": %d,\n"
              "  \"dispatch\": \"%s\",\n  \"cores\": %u,\n"
              "  \"workloads\": [\n",
              repeats, rl0::DistanceKernelDispatch(), cores);
  std::fprintf(stderr,
               "%-10s %8s %9s | %12s %12s %12s %12s %12s | %8s %8s %8s\n",
               "workload", "dim", "points", "legacy p/s", "arena p/s",
               "batch p/s", "pool p/s", "swpool p/s", "arena x", "batch x",
               "pool/batch");

  bool first = true;
  for (size_t dim : {2, 5, 20}) {
    const NoisyDataset data = IngestStream(dim, 77 + dim);
    const SamplerOptions opts = rl0::bench::PaperSamplerOptions(data, seed);

    // Interleave the three paths across repeats (best-of): a CPU hiccup
    // hits one repeat of one path, not a whole path's measurement.
    PathResult legacy, arena, batch, pool, swpool;
    size_t merged_accepts = 0;  // keeps the pool row's merge observable
    for (int rep = 0; rep < repeats; ++rep) {
      legacy.points_per_sec = std::max(
          legacy.points_per_sec,
          TimeOnce(
              data, rep,
              [&](int r) {
                SamplerOptions o = opts;
                o.seed = seed + r;
                return LegacyL0SamplerIW::Create(o).value();
              },
              [&](LegacyL0SamplerIW* s) {
                for (const Point& p : data.points) s->Insert(p);
              }));
      arena.points_per_sec = std::max(
          arena.points_per_sec,
          TimeOnce(
              data, rep,
              [&](int r) {
                SamplerOptions o = opts;
                o.seed = seed + r;
                return RobustL0SamplerIW::Create(o).value();
              },
              [&](RobustL0SamplerIW* s) {
                for (const Point& p : data.points) s->Insert(p);
              }));
      batch.points_per_sec = std::max(
          batch.points_per_sec,
          TimeOnce(
              data, rep,
              [&](int r) {
                SamplerOptions o = opts;
                o.seed = seed + r;
                return RobustL0SamplerIW::Create(o).value();
              },
              [&](RobustL0SamplerIW* s) { s->InsertBatch(data.points); }));
      pool.points_per_sec = std::max(
          pool.points_per_sec,
          TimeOnce(
              data, rep,
              [&](int r) {
                SamplerOptions o = opts;
                o.seed = seed + r;
                return ShardedSamplerPool::Create(o, 4).value();
              },
              [&](ShardedSamplerPool* s) {
                const rl0::Span<const rl0::Point> all(data.points);
                for (size_t off = 0; off < all.size(); off += 4096) {
                  s->FeedBorrowed(all.subspan(off, 4096));
                }
                s->Drain();
                merged_accepts = s->Merged().value().accept_size();
              }));
      swpool.points_per_sec = std::max(
          swpool.points_per_sec,
          TimeOnce(
              data, rep,
              [&](int r) {
                SamplerOptions o = opts;
                o.seed = seed + r;
                return ShardedSwSamplerPool::Create(o, 8192, 4).value();
              },
              [&](ShardedSwSamplerPool* s) {
                const rl0::Span<const rl0::Point> all(data.points);
                for (size_t off = 0; off < all.size(); off += 4096) {
                  s->FeedBorrowed(all.subspan(off, 4096));
                }
                s->Drain();
              }));
    }

    const double arena_x = arena.points_per_sec / legacy.points_per_sec;
    const double batch_x = batch.points_per_sec / legacy.points_per_sec;
    const double pool_x = pool.points_per_sec / batch.points_per_sec;
    if (merged_accepts == data.size()) {
      std::fprintf(stderr, "(full accept)\n");  // keep stdout JSON-clean
    }
    std::fprintf(stderr,
                 "%-10s %8zu %9zu | %12.0f %12.0f %12.0f %12.0f %12.0f | "
                 "%7.2fx %7.2fx %7.2fx\n",
                 data.name.c_str(), dim, data.size(), legacy.points_per_sec,
                 arena.points_per_sec, batch.points_per_sec,
                 pool.points_per_sec, swpool.points_per_sec, arena_x,
                 batch_x, pool_x);
    std::printf(
        "%s    {\"workload\": \"%s\", \"dim\": %zu, \"points\": %zu,\n"
        "     \"legacy_points_per_sec\": %.0f,\n"
        "     \"arena_points_per_sec\": %.0f,\n"
        "     \"batch_points_per_sec\": %.0f,\n"
        "     \"pool_points_per_sec\": %.0f,\n"
        "     \"sw_pool_points_per_sec\": %.0f,\n"
        "     \"arena_speedup\": %.3f, \"batch_speedup\": %.3f, "
        "\"pool_speedup\": %.3f%s}",
        first ? "" : ",\n", data.name.c_str(), dim, data.size(),
        legacy.points_per_sec, arena.points_per_sec, batch.points_per_sec,
        pool.points_per_sec, swpool.points_per_sec, arena_x, batch_x,
        pool_x,
        // One core starves the pool lanes: pool_speedup then measures
        // pipeline overhead, not parallelism, and comparison summaries
        // must skip the row (see docs/BENCHMARKS.md).
        cores == 1 ? ", \"overhead_only\": true" : "");
    first = false;
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
