// End-to-end run of the offline workload: the paper's algorithm alone,
// in process. One feeder thread streams each job — one segment of the
// stream — into a fresh IW ShardedSamplerPool (one lane per core) in
// borrowed chunks, and ends the job with Drain + Merged() + draws; an
// open-loop poller thread queries the live pool with MergedQuiesced() +
// Sample on a Poisson schedule. Jobs cycle through the segments, and a pass
// over all of them is the unit throughput is measured on.

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "client.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/util/rng.h"
#include "runs.h"

namespace rl0bench {

namespace {

constexpr int kSetups = 101;

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// An accepted set in a comparable form: (stream index, coordinates).
std::vector<std::pair<uint64_t, std::vector<double>>> AcceptedSet(
    const rl0::RobustL0SamplerIW& sampler) {
  std::vector<std::pair<uint64_t, std::vector<double>>> out;
  for (const rl0::SampleItem& item : sampler.AcceptedRepresentatives()) {
    out.emplace_back(item.stream_index, item.point.coords());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

RunOutcome RunOffline(const Workload& w, const RunConfig& cfg) {
  RunOutcome out;
  const rl0::SamplerOptions& opts = w.iw_options;
  const size_t segments = w.points.size() / w.segment;
  auto segment = [&](size_t k) {
    return rl0::Span<const rl0::Point>(w.points.data() + k * w.segment, w.segment);
  };

  // Reference: one serial sampler per segment.
  std::vector<std::vector<std::pair<uint64_t, std::vector<double>>>> expected;
  for (size_t k = 0; k < segments; ++k) {
    auto serial = rl0::RobustL0SamplerIW::Create(opts).value();
    serial.InsertBatch(segment(k));
    expected.push_back(AcceptedSet(serial));
    if (serial.rate_reciprocal() != 1) out.Fail("serial sampler left rate 1");
  }

  const uint64_t rss_before = SelfRssBytes();
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    auto pool = rl0::ShardedSamplerPool::Create(opts, w.lanes);
    setups.push_back(SecondsBetween(start, Clock::now()));
    if (!pool.ok()) {
      out.Fail("pool Create: " + pool.status().ToString());
      return out;
    }
  }

  // The poller reaches the live pool through `current` (null between
  // jobs); the feeder clears it before a pool is destroyed.
  std::mutex pool_mu;
  rl0::ShardedSamplerPool* current = nullptr;
  bool stop = false;
  std::vector<double> query_ms, lag_ms;
  uint64_t queries = 0, query_failures = 0, skipped = 0, rss_peak = rss_before;
  std::thread poller([&] {
    rl0::Xoshiro256pp rng(rl0::SplitMix64(opts.seed ^ 0x706f6c6cULL));
    PoissonSchedule schedule(Clock::now(), w.query_hz,
                             rl0::SplitMix64(opts.seed ^ kPollerSeedSalt));
    for (;;) {
      const Clock::time_point due = schedule.Next();
      std::this_thread::sleep_until(due);
      rss_peak = std::max(rss_peak, SelfRssBytes());
      std::lock_guard<std::mutex> lock(pool_mu);
      if (stop) return;
      if (current == nullptr) {
        ++skipped;
        continue;
      }
      lag_ms.push_back(Millis(Clock::now() - due));
      ++queries;
      auto merged = current->MergedQuiesced();
      // A pause before any lane consumed a point merges an empty prefix,
      // whose empty answer is correct.
      if (!merged.ok() || (merged.value().points_processed() > 0 &&
                           !merged.value().Sample(&rng).has_value())) {
        ++query_failures;
        continue;
      }
      query_ms.push_back(Millis(Clock::now() - due));
    }
  });

  std::vector<double> ack_ms, pass_rates;
  double pass_seconds = 0.0;
  uint64_t points = 0, jobs = 0, feeds = 0, draw_failures = 0;
  rl0::Xoshiro256pp rng(rl0::SplitMix64(opts.seed ^ 0x64726177ULL));
  const Clock::time_point run_start = Clock::now();
  while (jobs % segments != 0 ||
         (jobs == 0 || SecondsBetween(run_start, Clock::now()) < cfg.seconds)) {
    const rl0::Span<const rl0::Point> all = segment(jobs % segments);
    auto pool = rl0::ShardedSamplerPool::Create(opts, w.lanes).value();
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      current = &pool;
    }
    const Clock::time_point start = Clock::now();
    for (size_t off = 0; off < all.size(); off += w.chunk) {
      const Clock::time_point call = Clock::now();
      pool.FeedBorrowed(all.subspan(off, std::min(w.chunk, all.size() - off)));
      ack_ms.push_back(Millis(Clock::now() - call));
      ++feeds;
    }
    pool.Drain();
    auto merged = pool.Merged();
    for (int q = 0; merged.ok() && q < w.final_draws; ++q) {
      if (!merged.value().Sample(&rng).has_value()) ++draw_failures;
    }
    pass_seconds += SecondsBetween(start, Clock::now());
    points += all.size();
    if ((jobs + 1) % segments == 0) {
      pass_rates.push_back(static_cast<double>(w.points.size()) / pass_seconds);
      pass_seconds = 0.0;
    }
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      current = nullptr;
    }
    if (!merged.ok()) {
      out.Fail("Merged: " + merged.status().ToString());
      break;
    }
    if (AcceptedSet(merged.value()) != expected[jobs % segments] ||
        merged.value().rate_reciprocal() != 1) {
      out.Fail("job " + std::to_string(jobs) +
               ": merged accepted set differs from the serial InsertBatch");
    }
    ++jobs;
  }
  {
    std::lock_guard<std::mutex> lock(pool_mu);
    stop = true;
  }
  poller.join();

  out.attempted = feeds + jobs * static_cast<uint64_t>(w.final_draws) + queries;
  out.failed = draw_failures + query_failures;
  Metrics& m = out.metrics;
  m.Set("setup_s", Median(setups), "s");
  // The median pass: one slow stretch of a shared host moves it little.
  m.Set("ingest_pts_per_s", Median(pass_rates), "1/s");
  m.Set("feed_ack_p50_ms", Quantile(ack_ms, 0.5), "ms");
  // Tails as a multiple of the median, as on the served workloads.
  m.Set("feed_ack_p99_to_p50", BlockTailRatio(ack_ms, kAckBlock, 0.99), "ratio");
  m.Set("query_p90_to_p50", BlockTailRatio(query_ms, kQueryBlock, 0.9), "ratio");
  m.Set("peak_rss_mb", static_cast<double>(rss_peak - rss_before) / 1e6, "MB");
  // Reported, not bounded, as on the served workloads.
  out.Note("query_p50_ms", Quantile(query_ms, 0.5));
  out.Note("feed_ack_p90_ms", Quantile(ack_ms, 0.9));
  out.Note("feed_ack_p99_ms", Quantile(ack_ms, 0.99));
  out.Note("query_p90_ms", Quantile(query_ms, 0.9));
  out.Note("query_p99_ms", Quantile(query_ms, 0.99));
  out.Note("jobs", static_cast<double>(jobs));
  out.Note("points", static_cast<double>(points));
  out.Note("passes", pass_rates.size());
  out.Note("lanes", static_cast<double>(w.lanes));
  out.Note("setup_samples", setups.size());
  out.Note("feed_ack_samples", ack_ms.size());
  out.Note("query_samples", query_ms.size());
  out.Note("queries_skipped_between_jobs", static_cast<double>(skipped));
  out.Note("poller_lag_p50_ms", Quantile(lag_ms, 0.5));
  out.Note("poller_lag_p99_ms", Quantile(lag_ms, 0.99));
  out.Note("poller_lag_max_ms", Quantile(lag_ms, 1.0));
  return out;
}

}  // namespace rl0bench
