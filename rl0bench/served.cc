// End-to-end run of a served workload.
//
// One client process drives an rl0_serve child over its unix socket with
// three threads on separate connections: the closed-loop feeder (this
// thread), and the open-loop SAMPLE poller's sender and receiver. A late
// tenant adds a fourth thread draining its digest subscription. Work is
// cut into jobs: each job CREATEs the tenant, feeds the whole pre-encoded
// stream, FLUSHes, checks its answers and CLOSEs the tenant; jobs repeat
// until the measured time is up, so every job is checked against the
// same reference and the server's memory high-water mark is one job's.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "rl0/core/sharded_pool.h"
#include "rl0/serve/protocol.h"
#include "rl0/util/rng.h"
#include "runs.h"
#include "session.h"

namespace rl0bench {

namespace {

constexpr int kSetups = 11;
constexpr double kQueryTimeoutS = 10.0;

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Open-loop SAMPLE poller on its own connection. The sender issues
/// queries on a Poisson schedule whatever the server does, and the
/// receiver times each answer from the query's due time, so a stall is
/// charged to every query it delays. Queries due while no tenant is ready
/// are skipped (between jobs).
class Poller {
 public:
  Poller(std::unique_ptr<Conn> conn, double hz, uint64_t seed,
         Counters* counters)
      : conn_(std::move(conn)), hz_(hz), seed_(seed), counters_(counters) {}

  ~Poller() { Stop(); }

  void Start() {
    sender_ = std::thread([this] { SendLoop(); });
    receiver_ = std::thread([this] { ReceiveLoop(); });
  }

  /// Opens or closes the tenant to queries; closing waits until every
  /// query already sent has its answer.
  void SetReady(bool ready) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_ = ready;
    if (!ready) cv_.wait(lock, [this] { return outstanding_.empty(); });
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    if (sender_.joinable()) sender_.join();
    if (receiver_.joinable()) receiver_.join();
  }

  // Read after Stop().
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  uint64_t skipped = 0;

 private:
  void SendLoop() {
    const std::string query = std::string("SAMPLE ") + kTenant + " q=1\n";
    PoissonSchedule schedule(Clock::now(), hz_, seed_);
    for (;;) {
      const Clock::time_point due = schedule.Next();
      std::this_thread::sleep_until(due);
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || dead_) return;
      if (!ready_) {
        ++skipped;
        continue;
      }
      lag_ms.push_back(Millis(Clock::now() - due));
      ++counters_->attempted;
      if (!conn_->Send(query)) {
        ++counters_->failed;
        dead_ = true;
        cv_.notify_all();
        return;
      }
      outstanding_.push_back(due);
      cv_.notify_all();
    }
  }

  void ReceiveLoop() {
    std::string status;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !outstanding_.empty() || stop_ || dead_; });
        if (outstanding_.empty()) return;
      }
      const Conn::Read r = conn_->ReadResponse(nullptr, &status, kQueryTimeoutS);
      const Clock::time_point done = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      if (r != Conn::Read::kLine) {
        // A lost answer desynchronises the connection: every query still
        // waiting counts as failed and polling ends.
        counters_->failed += outstanding_.size();
        outstanding_.clear();
        dead_ = true;
        cv_.notify_all();
        return;
      }
      if (status.compare(0, 2, "OK") == 0) {
        latency_ms.push_back(Millis(done - outstanding_.front()));
      } else {
        ++counters_->failed;
      }
      outstanding_.pop_front();
      cv_.notify_all();
    }
  }

  std::unique_ptr<Conn> conn_;
  const double hz_;
  const uint64_t seed_;
  Counters* counters_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool ready_ = false;  // guarded by mu_
  bool stop_ = false;   // guarded by mu_
  bool dead_ = false;   // guarded by mu_
  std::deque<Clock::time_point> outstanding_;  // due times, guarded by mu_
  std::thread sender_;
  std::thread receiver_;
};

/// "late_dropped=<n>" from a STATS line; -1 when absent.
long long LateDropped(const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    const size_t at = line.find(" late_dropped=");
    if (at != std::string::npos) return std::stoll(line.substr(at + 14));
  }
  return -1;
}

}  // namespace

std::vector<std::string> ExpectedSampleLines(const Workload& w) {
  const rl0::SamplerOptions opts = TenantSamplerOptions(w.create);
  auto pool = rl0::ShardedSwSamplerPool::Create(opts, w.create.window,
                                                w.create.shards)
                  .value();
  const bool late = !w.sorted_points.empty();
  const std::vector<rl0::Point>& pts = late ? w.sorted_points : w.points;
  for (size_t off = 0; off < pts.size(); off += w.chunk) {
    const size_t n = std::min(w.chunk, pts.size() - off);
    if (late) {
      pool.FeedStamped(rl0::Span<const rl0::Point>(pts.data() + off, n),
                       rl0::Span<const int64_t>(w.sorted_stamps.data() + off, n));
    } else {
      pool.Feed(rl0::Span<const rl0::Point>(pts.data() + off, n));
    }
  }
  pool.Drain();
  rl0::Xoshiro256pp rng(rl0::SplitMix64(w.create.seed ^ rl0::serve::kQuerySeedSalt));
  std::vector<std::string> lines;
  for (int q = 0; q < w.final_draws; ++q) {
    const auto s = pool.SampleLatest(&rng);
    lines.push_back(s.has_value() ? "ITEM " + rl0::serve::FormatSampleLine(
                                                  s->point, s->stream_index)
                                  : "ITEM none");
  }
  return lines;
}

RunOutcome RunServed(const Workload& w, const RunConfig& cfg) {
  RunOutcome out;
  Counters n;
  const std::vector<std::string> expected = ExpectedSampleLines(w);
  const std::string tenant = kTenant;
  const std::string final_sample =
      "SAMPLE " + tenant + " q=" + std::to_string(w.final_draws) + "\n";
  std::string error;

  // Set-up is measured several times (fresh server each) and reported as
  // the median; the last server carries the measured phase.
  std::vector<double> setups;
  std::unique_ptr<ServedSession> session;
  for (int i = 0; i < kSetups; ++i) {
    session.reset();
    session = std::make_unique<ServedSession>();
    double seconds = 0.0;
    if (!session->Start(w, cfg.serve_binary, &n, &seconds, &error)) {
      out.Fail("server set-up: " + error);
      return out;
    }
    setups.push_back(seconds);
  }

  auto poll_conn = Conn::Connect(kSocketPath, &error);
  if (poll_conn == nullptr) {
    out.Fail("poller connect: " + error);
    return out;
  }
  Poller poller(std::move(poll_conn), w.query_hz,
                rl0::SplitMix64(w.create.seed ^ kPollerSeedSalt), &n);
  std::unique_ptr<SubscriberReader> subscriber;
  if (w.digest_every > 0) {
    auto sub_conn = Conn::Connect(kSocketPath, &error);
    if (sub_conn == nullptr) {
      out.Fail("subscriber connect: " + error);
      return out;
    }
    subscriber = std::make_unique<SubscriberReader>(std::move(sub_conn));
  }
  const std::string subscribe = "SUBSCRIBE " + tenant + " digest every=" +
                                std::to_string(w.digest_every) + "\n";

  std::vector<double> ack_ms, job_rates;
  uint64_t points = 0, jobs = 0;
  poller.Start();
  const Clock::time_point run_start = Clock::now();
  // Each job: [CREATE] [SUBSCRIBE] FEED... FLUSH | checks | CLOSE.
  auto job = [&]() -> bool {
    if (jobs > 0 && !session->RoundTrip(w.create_line, nullptr, &error)) return false;
    if (subscriber != nullptr && !subscriber->RoundTrip(subscribe, &n, &error)) {
      return false;
    }
    const uint64_t events_before = subscriber ? subscriber->events() : 0;
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < w.feed_lines.size(); ++i) {
      const Clock::time_point sent = Clock::now();
      if (!session->RoundTrip(w.feed_lines[i], nullptr, &error)) return false;
      ack_ms.push_back(Millis(Clock::now() - sent));
      if (i == 0) poller.SetReady(true);
    }
    if (!session->RoundTrip("FLUSH " + tenant + "\n", nullptr, &error)) return false;
    job_rates.push_back(static_cast<double>(w.points.size()) /
                        SecondsBetween(start, Clock::now()));
    points += w.points.size();
    poller.SetReady(false);

    std::vector<std::string> items;
    if (!session->RoundTrip(final_sample, &items, &error)) return false;
    if (items != expected) {
      out.Fail("job " + std::to_string(jobs) +
               ": final SAMPLE differs from the direct pool replay");
    }
    if (subscriber != nullptr) {
      std::vector<std::string> stats;
      if (!session->RoundTrip("STATS " + tenant + "\n", &stats, &error)) return false;
      if (LateDropped(stats) != 0) out.Fail("late_dropped is not 0");
      // PING's answer queues behind every EVENT the job fired.
      if (!subscriber->RoundTrip("PING\n", &n, &error)) return false;
      const uint64_t events = subscriber->events() - events_before;
      if (events != w.expected_events) {
        out.Fail("EVENT count " + std::to_string(events) + " != expected " +
                 std::to_string(w.expected_events));
      }
    }
    if (!session->RoundTrip("CLOSE " + tenant + "\n", nullptr, &error)) return false;
    std::error_code ec;
    std::filesystem::remove_all(ServedSession::TenantCheckpointDir(), ec);
    ++jobs;
    return true;
  };
  while (jobs == 0 || SecondsBetween(run_start, Clock::now()) < cfg.seconds) {
    if (!job()) {
      out.Fail("job " + std::to_string(jobs) + ": " + error);
      poller.SetReady(false);
      break;
    }
  }
  poller.Stop();
  const double peak_rss = static_cast<double>(session->server()->PeakRssBytes());
  subscriber.reset();
  session.reset();

  out.attempted = n.attempted;
  out.failed = n.failed;
  Metrics& m = out.metrics;
  m.Set("setup_s", Median(setups), "s");
  // The median job: one slow stretch of a shared host moves it little.
  m.Set("ingest_pts_per_s", Median(job_rates), "1/s");
  m.Set("feed_ack_p50_ms", Quantile(ack_ms, 0.5), "ms");
  // Tails as a multiple of the median: on a shared host the tail in ms
  // swings with the host's speed and bursts; the ms values are reported.
  m.Set("feed_ack_p99_to_p50", BlockTailRatio(ack_ms, kAckBlock, 0.99), "ratio");
  m.Set("query_p90_to_p50", BlockTailRatio(poller.latency_ms, kQueryBlock, 0.9),
        "ratio");
  m.Set("peak_rss_mb", peak_rss / 1e6, "MB");
  // A served SAMPLE waits for the tenant lock and a Drain of the lanes, so
  // its median follows their scheduling and moved by up to a quarter
  // between runs of the same code: it is reported, not bounded.
  out.Note("query_p50_ms", Quantile(poller.latency_ms, 0.5));
  out.Note("feed_ack_p90_ms", Quantile(ack_ms, 0.9));
  out.Note("feed_ack_p99_ms", Quantile(ack_ms, 0.99));
  out.Note("query_p90_ms", Quantile(poller.latency_ms, 0.9));
  out.Note("query_p99_ms", Quantile(poller.latency_ms, 0.99));
  out.Note("jobs", static_cast<double>(jobs));
  out.Note("points", static_cast<double>(points));
  out.Note("setup_samples", setups.size());
  out.Note("feed_ack_samples", ack_ms.size());
  out.Note("query_samples", poller.latency_ms.size());
  out.Note("queries_skipped_between_jobs", static_cast<double>(poller.skipped));
  out.Note("poller_lag_p50_ms", Quantile(poller.lag_ms, 0.5));
  out.Note("poller_lag_p99_ms", Quantile(poller.lag_ms, 0.99));
  out.Note("poller_lag_max_ms", Quantile(poller.lag_ms, 1.0));
  return out;
}

}  // namespace rl0bench
