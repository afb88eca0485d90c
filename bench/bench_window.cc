// Sliding-window ingestion throughput: flat group index vs the legacy
// node-based index, windowed pipeline scaling, and the time-based
// (explicit-stamp) paths.
//
// Sequence-based paths over a paper-style ~50k-point noisy stream with
// a window of 8192 positions:
//
//   legacy — LegacySwSampler: the pre-refactor hierarchy (unordered_map
//            groups, unordered_multimap cell index, std::map expiry
//            order; split promotion through materialized GroupRecords),
//            point-at-a-time;
//   flat   — RobustL0SamplerSW: the SwGroupTable layout (flat slot
//            columns, open-addressing cell index, intrusive stamp list,
//            arena-internal PromoteInto), point-at-a-time;
//   pool S — ShardedSwSamplerPool with S ∈ {1, 2, 4, 8} persistent lanes
//            fed 2048-point borrowed chunks + one final Drain.
//
// Time-based paths over the same stream carrying explicit stamps
// (inter-arrival gaps uniform in {1..3}; window scaled by the mean gap
// so both models cover a comparable point population):
//
//   tflat   — RobustL0SamplerSW::Insert(p, stamp), point-at-a-time;
//   tpool S — the pool fed 2048-point borrowed stamped chunks
//             (FeedBorrowedStamped), S ∈ {1, 4}.
//
// Bounded-lateness scenario rows (core/reorder_buffer.h) price the
// reorder front-end: the same stamped stream disordered within a
// lateness bound, fed through the pool's reorder stage
// (FeedStampedLate, the only bounded-lateness front end), against the
// canonically sorted stream fed strict to the same pool (sorted p/s —
// the work the reorder stage saves the caller):
//
//   late-jitter — uniform jitter disorder within bound 128 (clock skew
//                 across sources), 1-lane pool;
//   late-skew   — heavy-tailed disorder within bound 1024 (rare
//                 stragglers near the bound), 1-lane pool;
//   late-bursty — a bursty stream (whole-window stamp leaps) disordered
//                 within bound 128, 4-lane pool with watermark
//                 broadcasts.
//
// legacy and flat make bit-identical sampling decisions (pinned by
// tests/sw_pipeline_determinism_test.cc), so that column pair is pure
// layout; the pool rows show windowed pipeline scaling, and the tpool
// rows price the stamp arrays riding the chunks.
//
// Output: a human-readable table on stderr and ONE LINE of JSON on
// stdout. Append per PR:   ./build/bench_window >> BENCH_window.json
// (one JSON document per line, newest last). RL0_REPEATS overrides the
// per-path repeat count (default 3, best-of).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "rl0/baseline/legacy_sw_sampler.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/stream/window_stream.h"

namespace {

using rl0::LegacySwSampler;
using rl0::NoisyDataset;
using rl0::Point;
using rl0::RobustL0SamplerSW;
using rl0::SamplerOptions;
using rl0::ShardedSwSamplerPool;
using rl0::Span;

constexpr int64_t kWindow = 8192;

NoisyDataset WindowStream(size_t dim, uint64_t seed) {
  const rl0::BaseDataset base = rl0::RandomUniform(
      1000, dim, seed, "Window" + std::to_string(dim));
  rl0::NearDupOptions nd;
  nd.max_dups = 100;  // paper-scale duplication: ~50k-point stream
  nd.seed = seed + 1;
  return rl0::MakeNearDuplicates(base, nd);
}

template <typename Run>
double BestOf(int repeats, size_t points, Run run) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const size_t observable = run(rep);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (observable == 0) {
      std::fprintf(stderr, "(empty sampler)\n");  // keep stdout clean
    }
    best = std::max(best, static_cast<double>(points) / seconds);
  }
  return best;
}

}  // namespace

int main() {
  const int repeats = rl0::bench::EnvRepeats(3);
  const uint64_t seed = 20180618;

  // Pool rows only show lane parallelism when cores are available; the
  // core count is recorded so the JSONL trajectory stays interpretable
  // across machines (a 1-core container measures pipeline overhead).
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("{\"bench\": \"window\", \"repeats\": %d, \"window\": %lld, "
              "\"cores\": %u, \"rows\": [",
              repeats, static_cast<long long>(kWindow), cores);
  std::fprintf(stderr,
               "%-10s %4s %8s | %12s %12s %8s | %10s %10s %10s %10s "
               "| %10s %10s %10s\n",
               "workload", "dim", "points", "legacy p/s", "flat p/s",
               "flat x", "pool1 p/s", "pool2 p/s", "pool4 p/s",
               "pool8 p/s", "tflat p/s", "tpool1 p/s", "tpool4 p/s");

  bool first = true;
  for (size_t dim : {2, 5}) {
    const NoisyDataset data = WindowStream(dim, 77 + dim);
    const SamplerOptions opts = rl0::bench::PaperSamplerOptions(data, seed);

    const double legacy = BestOf(repeats, data.size(), [&](int rep) {
      SamplerOptions o = opts;
      o.seed = seed + rep;
      auto sampler = LegacySwSampler::Create(o, kWindow).value();
      for (const Point& p : data.points) sampler.Insert(p);
      return sampler.SpaceWords();
    });
    const double flat = BestOf(repeats, data.size(), [&](int rep) {
      SamplerOptions o = opts;
      o.seed = seed + rep;
      auto sampler = RobustL0SamplerSW::Create(o, kWindow).value();
      for (const Point& p : data.points) sampler.Insert(p);
      return sampler.SpaceWords();
    });
    double pool_rate[4] = {0, 0, 0, 0};
    const size_t lane_counts[4] = {1, 2, 4, 8};
    for (int i = 0; i < 4; ++i) {
      pool_rate[i] = BestOf(repeats, data.size(), [&](int rep) {
        SamplerOptions o = opts;
        o.seed = seed + rep;
        auto pool =
            ShardedSwSamplerPool::Create(o, kWindow, lane_counts[i]).value();
        const Span<const Point> all(data.points);
        for (size_t off = 0; off < all.size(); off += 2048) {
          pool.FeedBorrowed(all.subspan(off, 2048));
        }
        pool.Drain();
        return pool.SpaceWords();
      });
    }
    // Time-based rows: explicit stamps with mean gap 2 (uniform {1..3});
    // the window spans the same expected point population as kWindow.
    const std::vector<rl0::StampedPoint> stamped =
        rl0::TimeStampedBursty(data, 3, 0, 0, seed + dim);
    std::vector<Point> tpoints;
    std::vector<int64_t> tstamps;
    rl0::SplitStamped(stamped, &tpoints, &tstamps);
    const int64_t time_window = kWindow * 2;
    const double tflat = BestOf(repeats, data.size(), [&](int rep) {
      SamplerOptions o = opts;
      o.seed = seed + rep;
      auto sampler = RobustL0SamplerSW::Create(o, time_window).value();
      for (size_t i = 0; i < tpoints.size(); ++i) {
        sampler.Insert(tpoints[i], tstamps[i]);
      }
      return sampler.SpaceWords();
    });
    double tpool_rate[2] = {0, 0};
    const size_t tlane_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      tpool_rate[i] = BestOf(repeats, data.size(), [&](int rep) {
        SamplerOptions o = opts;
        o.seed = seed + rep;
        auto pool =
            ShardedSwSamplerPool::Create(o, time_window, tlane_counts[i])
                .value();
        const Span<const Point> all(tpoints);
        const Span<const int64_t> stamps(tstamps);
        for (size_t off = 0; off < all.size(); off += 2048) {
          pool.FeedBorrowedStamped(all.subspan(off, 2048),
                                   stamps.subspan(off, 2048));
        }
        pool.Drain();
        return pool.SpaceWords();
      });
    }

    // Bounded-lateness scenarios (see file comment). Each measures the
    // disordered stream through the reorder front-end against the
    // canonically sorted stream fed strict — same points, same window.
    struct LateScenario {
      const char* name;
      std::vector<rl0::StampedPoint> stream;
      int64_t bound;
      size_t lanes;
    };
    const std::vector<rl0::StampedPoint> bursty =
        rl0::TimeStampedBursty(data, 3, 2048, time_window / 2, seed + dim);
    const LateScenario scenarios[3] = {
        {"late-jitter", rl0::DisorderWithinBound(stamped, 128, seed + dim),
         128, 1},
        {"late-skew", rl0::DisorderSkewed(stamped, 1024, seed + dim), 1024,
         1},
        {"late-bursty", rl0::DisorderWithinBound(bursty, 128, seed + dim + 1),
         128, 4},
    };
    struct LateResult {
      double sorted_rate = 0.0;
      double late_rate = 0.0;
      rl0::ReorderStats stats;
    };
    LateResult late_results[3];
    for (int s = 0; s < 3; ++s) {
      const LateScenario& sc = scenarios[s];
      std::vector<Point> lpoints;
      std::vector<int64_t> lstamps;
      rl0::SplitStamped(sc.stream, &lpoints, &lstamps);
      std::vector<Point> spoints = lpoints;
      std::vector<int64_t> sstamps = lstamps;
      rl0::ReorderStage::SortCanonical(&spoints, &sstamps);
      late_results[s].sorted_rate =
          BestOf(repeats, data.size(), [&](int rep) -> size_t {
            SamplerOptions o = opts;
            o.seed = seed + rep;
            auto pool =
                ShardedSwSamplerPool::Create(o, time_window, sc.lanes)
                    .value();
            const Span<const Point> all(spoints);
            const Span<const int64_t> stamps(sstamps);
            for (size_t off = 0; off < all.size(); off += 2048) {
              pool.FeedBorrowedStamped(all.subspan(off, 2048),
                                       stamps.subspan(off, 2048));
            }
            pool.Drain();
            return pool.SpaceWords();
          });
      late_results[s].late_rate =
          BestOf(repeats, data.size(), [&](int rep) -> size_t {
            SamplerOptions o = opts;
            o.seed = seed + rep;
            o.allowed_lateness = sc.bound;
            auto pool =
                ShardedSwSamplerPool::Create(o, time_window, sc.lanes)
                    .value();
            const Span<const Point> all(lpoints);
            const Span<const int64_t> stamps(lstamps);
            for (size_t off = 0; off < all.size(); off += 2048) {
              pool.FeedStampedLate(all.subspan(off, 2048),
                                   stamps.subspan(off, 2048));
            }
            pool.FlushLate();
            pool.Drain();
            late_results[s].stats = pool.late_stats();
            return pool.SpaceWords();
          });
    }

    const double flat_x = flat / legacy;
    std::fprintf(stderr,
                 "%-10s %4zu %8zu | %12.0f %12.0f %7.2fx | %10.0f %10.0f "
                 "%10.0f %10.0f | %10.0f %10.0f %10.0f\n",
                 data.name.c_str(), dim, data.size(), legacy, flat, flat_x,
                 pool_rate[0], pool_rate[1], pool_rate[2], pool_rate[3],
                 tflat, tpool_rate[0], tpool_rate[1]);
    std::printf(
        "%s{\"workload\": \"%s\", \"dim\": %zu, \"points\": %zu, "
        "\"legacy_points_per_sec\": %.0f, \"flat_points_per_sec\": %.0f, "
        "\"flat_speedup\": %.3f, \"pool1_points_per_sec\": %.0f, "
        "\"pool2_points_per_sec\": %.0f, \"pool4_points_per_sec\": %.0f, "
        "\"pool8_points_per_sec\": %.0f, "
        "\"time_flat_points_per_sec\": %.0f, "
        "\"time_pool1_points_per_sec\": %.0f, "
        "\"time_pool4_points_per_sec\": %.0f%s}",
        first ? "" : ", ", data.name.c_str(), dim, data.size(), legacy, flat,
        flat_x, pool_rate[0], pool_rate[1], pool_rate[2], pool_rate[3],
        tflat, tpool_rate[0], tpool_rate[1],
        // Marks the pool columns only: flat_speedup is serial-vs-serial
        // and stays comparable on any core count.
        cores == 1 ? ", \"overhead_only\": true" : "");
    first = false;
    for (int s = 0; s < 3; ++s) {
      const LateScenario& sc = scenarios[s];
      const LateResult& lr = late_results[s];
      std::fprintf(stderr,
                   "  %-12s lateness=%-5lld lanes=%zu | sorted %10.0f p/s | "
                   "late %10.0f p/s (%.2fx) dropped=%llu\n",
                   sc.name, static_cast<long long>(sc.bound), sc.lanes,
                   lr.sorted_rate, lr.late_rate,
                   lr.late_rate / lr.sorted_rate,
                   static_cast<unsigned long long>(lr.stats.late_dropped));
      std::printf(
          ", {\"workload\": \"%s\", \"scenario\": \"%s\", \"dim\": %zu, "
          "\"points\": %zu, \"lateness\": %lld, \"lanes\": %zu, "
          "\"pool_sorted_points_per_sec\": %.0f, "
          "\"pool_late_points_per_sec\": %.0f, "
          "\"pool_late_relative\": %.3f, \"late_dropped\": %llu%s}",
          data.name.c_str(), sc.name, dim, sc.stream.size(),
          static_cast<long long>(sc.bound), sc.lanes, lr.sorted_rate,
          lr.late_rate, lr.late_rate / lr.sorted_rate,
          static_cast<unsigned long long>(lr.stats.late_dropped),
          // Every scenario is a pool row; on one core it only prices
          // pipeline + reorder overhead.
          cores == 1 ? ", \"overhead_only\": true" : "");
    }
  }
  std::printf("]}\n");
  return 0;
}
