// Traced run: per-layer metrics.
//
// The workload's generated inputs are replayed through each layer's
// public entry point, with a span around every call, opened from this
// file. A served workload also makes one socket pass per repetition
// against a real rl0_serve child (closed loop, no poller), which gives
// the per-point socket time the serve.* layers decompose:
//
//   socket  = server.self + protocol.parse + registry.feed
//   registry.feed = registry.self + cvm.add + sharded_pool.feed
//                   [+ reorder_buffer.offer + checkpoint journal + cuts]
//
// Each self time is the residual of its span total minus the totals of
// the layers it calls, replayed on the same inputs; server.self is thus
// the part of the socket time no traced layer accounts for. Layers a
// workload never runs report 0. Repetitions run until the measured time
// is up and every metric is the median over them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "rl0/core/checkpoint.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/geom/distance_kernels.h"
#include "rl0/geom/point_store.h"
#include "rl0/grid/random_grid.h"
#include "rl0/serve/cvm.h"
#include "rl0/serve/protocol.h"
#include "rl0/serve/registry.h"
#include "rl0/util/rng.h"
#include "runs.h"
#include "session.h"

namespace rl0bench {

namespace {

using rl0::Point;
using PointSpan = rl0::Span<const Point>;
using StampSpan = rl0::Span<const int64_t>;
using Values = std::map<std::string, double>;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.socket_ns_per_pt", "ns/pt"},
    {"serve.server.self_ns_per_pt", "ns/pt"},
    {"serve.server.wire_bytes_per_pt", "B/pt"},
    {"serve.protocol.parse_ns_per_pt", "ns/pt"},
    {"serve.registry.feed_ns_per_pt", "ns/pt"},
    {"serve.registry.self_ns_per_pt", "ns/pt"},
    {"serve.registry.sample_us", "us"},
    {"serve.cvm.add_ns_per_pt", "ns/pt"},
    {"serve.checkpointer.bytes_written_per_pt", "B/pt"},
    {"serve.checkpointer.dir_bytes", "B"},
    {"core.checkpoint.journal_ns_per_pt", "ns/pt"},
    {"core.checkpoint.journal_bytes_per_pt", "B/pt"},
    {"core.checkpoint.full_cut_ms", "ms"},
    {"core.checkpoint.delta_cut_ms", "ms"},
    {"core.reorder_buffer.offer_ns_per_pt", "ns/pt"},
    {"core.reorder_buffer.peak_words", "words"},
    {"core.sharded_pool.feed_ns_per_pt", "ns/pt"},
    {"core.sharded_pool.feed_ns_per_pt_1lane", "ns/pt"},
    {"core.sharded_pool.sample_us", "us"},
    {"core.sharded_pool.merge_ms", "ms"},
    {"core.sharded_pool.quiesce_us", "us"},
    {"core.sw_sampler.insert_ns_per_pt", "ns/pt"},
    {"core.sw_sampler.space_words", "words"},
    {"core.iw_sampler.insert_ns_per_pt", "ns/pt"},
    {"core.iw_sampler.space_words", "words"},
    {"core.dup_filter.hit_ratio", "ratio"},
    {"core.dup_filter.lookups", "count"},
    {"grid.adjacent_cells_ns_per_pt", "ns/pt"},
    {"grid.cells_per_pt", "cells/pt"},
    {"geom.distance_ns_per_pair", "ns/pair"},
    {"trace.overhead_share", "ratio"},
};

constexpr int kSampleCalls = 200;
constexpr int kMergeCalls = 5;
constexpr size_t kDistanceCandidates = 16;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Times `fn` `calls` times; median in microseconds.
template <typename Fn>
double MedianMicros(int calls, Fn fn) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    us.push_back(Micros(Clock::now() - start));
  }
  return Median(us);
}

/// Calls `probe` about once per millisecond on its own thread until
/// destroyed; keeps each call's latency.
class Prober {
 public:
  template <typename Fn>
  explicit Prober(Fn probe)
      : thread_([this, probe] {
          while (!stop_) {
            const Clock::time_point start = Clock::now();
            probe();
            us_.push_back(Micros(Clock::now() - start));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  /// Stops the thread; the median latency of its calls.
  double Finish() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return Median(us_);
  }
  ~Prober() { Finish(); }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> us_;
  std::thread thread_;  // last: starts after the fields it uses
};

/// A stream cut into the workload's feed chunks.
struct Chunked {
  PointSpan points;
  StampSpan stamps;  // empty when unstamped
  size_t chunk;
  size_t count() const { return (points.size() + chunk - 1) / chunk; }
  PointSpan pts(size_t i) const { return points.subspan(i * chunk, chunk); }
  StampSpan st(size_t i) const { return stamps.subspan(i * chunk, chunk); }
};

/// One repetition of every replay the workload's layers need.
class Repetition {
 public:
  Repetition(const Workload& w, RunOutcome* out)
      : w_(w),
        out_(out),
        late_(!w.sorted_points.empty()),
        opts_(w.served ? TenantSamplerOptions(w.create) : w.iw_options),
        // Strict-feed layers (pool, sampler, grid) see the canonically
        // sorted stream on the late workload: what the reorder stage
        // hands them.
        feed_{PointSpan(late_ ? w.sorted_points : w.points),
              StampSpan(late_ ? w.sorted_stamps : w.stamps), w.chunk},
        n_(static_cast<double>(w.points.size())) {}

  Values Run(ServedSession* session, SubscriberReader* subscriber,
             Counters* counters, bool create_tenant,
             const std::vector<std::string>& expected);

 private:
  double PerPoint(const char* span) const {
    return static_cast<double>(tracer_.Get(span).total_ns) / n_;
  }
  /// Offline streams are independent segments, one pool or sampler each.
  size_t Segments() const { return w_.points.size() / w_.segment; }
  Chunked Segment(size_t k) const {
    return {PointSpan(w_.points).subspan(k * w_.segment, w_.segment), StampSpan(),
            w_.chunk};
  }
  double MeanMillis(const char* span) const {
    const Tracer::Totals t = tracer_.Get(span);
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / t.count / 1e6;
  }

  void Socket(ServedSession* session, SubscriberReader* subscriber,
              Counters* counters, bool create_tenant,
              const std::vector<std::string>& expected);
  std::vector<rl0::serve::Command> Parse();
  void Registry(std::vector<rl0::serve::Command> commands,
                const std::vector<std::string>& expected);
  void Cvm();
  void SwPool(size_t shards, const char* span);
  void IwPool(size_t lanes, const char* span);
  void SerialSampler();
  void ReorderJournalAndCuts();
  void Grid();
  void Distance();

  const Workload& w_;
  RunOutcome* out_;
  const bool late_;
  const rl0::SamplerOptions opts_;
  const Chunked feed_;
  const double n_;
  Tracer tracer_;
  Values v_;
};

void Repetition::Socket(ServedSession* session, SubscriberReader* subscriber,
                        Counters* counters, bool create_tenant,
                        const std::vector<std::string>& expected) {
  const std::string tenant = kTenant;
  std::string error;
  auto fail = [&](const std::string& what) { out_->Fail("socket pass: " + what + ": " + error); };
  if (create_tenant && !session->RoundTrip(w_.create_line, nullptr, &error)) {
    return fail("CREATE");
  }
  if (subscriber != nullptr &&
      !subscriber->RoundTrip("SUBSCRIBE " + tenant + " digest every=" +
                                 std::to_string(w_.digest_every) + "\n",
                             counters, &error)) {
    return fail("SUBSCRIBE");
  }
  Conn* feeder = session->feeder();
  auto sent = [&] {
    return feeder->bytes_sent() + (subscriber ? subscriber->conn()->bytes_sent() : 0);
  };
  auto received = [&] {
    return feeder->bytes_received() +
           (subscriber ? subscriber->conn()->bytes_received() : 0);
  };
  const uint64_t wchar0 = session->server()->WriteCallBytes();
  const uint64_t sent0 = sent(), received0 = received();
  for (const std::string& line : w_.feed_lines) {
    Span span(&tracer_, "serve.socket");
    if (!session->RoundTrip(line, nullptr, &error)) return fail("FEED");
  }
  {
    Span span(&tracer_, "serve.socket");
    if (!session->RoundTrip("FLUSH " + tenant + "\n", nullptr, &error)) {
      return fail("FLUSH");
    }
  }
  // Everything the server wrote that did not go to a client socket went
  // to its checkpoint files.
  const double socket_out = static_cast<double>(received() - received0);
  v_["serve.server.wire_bytes_per_pt"] =
      (static_cast<double>(sent() - sent0) + socket_out) / n_;
  v_["serve.checkpointer.bytes_written_per_pt"] =
      (static_cast<double>(session->server()->WriteCallBytes() - wchar0) - socket_out) / n_;
  v_["serve.checkpointer.dir_bytes"] =
      static_cast<double>(DirectoryBytes(ServedSession::TenantCheckpointDir()));
  v_["serve.socket_ns_per_pt"] = PerPoint("serve.socket");

  std::vector<std::string> items;
  if (!session->RoundTrip("SAMPLE " + tenant + " q=" +
                              std::to_string(w_.final_draws) + "\n",
                          &items, &error)) {
    return fail("SAMPLE");
  }
  if (items != expected) out_->Fail("socket pass: final SAMPLE differs from the direct pool replay");
  if (!session->RoundTrip("CLOSE " + tenant + "\n", nullptr, &error)) return fail("CLOSE");
  std::error_code ec;
  std::filesystem::remove_all(ServedSession::TenantCheckpointDir(), ec);
}

std::vector<rl0::serve::Command> Repetition::Parse() {
  std::vector<rl0::serve::Command> commands;
  rl0::serve::LineDecoder decoder(size_t{1} << 20);
  std::string line;
  for (const std::string& wire : w_.feed_lines) {
    Span span(&tracer_, "serve.protocol.parse");
    decoder.Append(wire.data(), wire.size());
    decoder.Next(&line);
    auto parsed = rl0::serve::ParseCommand(line);
    if (!parsed.ok()) {
      out_->Fail("parse replay: " + parsed.status().ToString());
      return {};
    }
    commands.push_back(std::move(parsed).value());
  }
  v_["serve.protocol.parse_ns_per_pt"] = PerPoint("serve.protocol.parse");
  return commands;
}

void Repetition::Registry(std::vector<rl0::serve::Command> commands,
                          const std::vector<std::string>& expected) {
  const std::string replay_root = "replay_ckpt";
  std::error_code ec;
  std::filesystem::remove_all(replay_root, ec);
  {
    rl0::serve::TenantRegistry::Options ro;
    ro.fleet_threads = std::max(1u, std::thread::hardware_concurrency());
    ro.checkpoint_root = replay_root;
    rl0::serve::TenantRegistry registry(ro);
    if (!registry.Create(kTenant, w_.create).ok()) {
      out_->Fail("registry replay: CREATE failed");
      return;
    }
    uint64_t events = 0;
    if (w_.digest_every > 0) {
      auto sub = rl0::serve::ParseCommand(std::string("SUBSCRIBE ") + kTenant +
                                          " digest every=" +
                                          std::to_string(w_.digest_every));
      auto id = registry.Subscribe(kTenant, sub.value(), 1,
                                   [&events](const std::string&) {
                                     ++events;
                                     return true;
                                   });
      if (!id.ok()) out_->Fail("registry replay: SUBSCRIBE failed");
    }
    for (rl0::serve::Command& cmd : commands) {
      Span span(&tracer_, "serve.registry.feed");
      const rl0::Status s =
          late_ ? registry.FeedStamped(kTenant, std::move(cmd.points),
                                       std::move(cmd.stamps))
                : registry.Feed(kTenant, std::move(cmd.points));
      if (!s.ok()) {
        out_->Fail("registry replay: " + s.ToString());
        return;
      }
    }
    {
      Span span(&tracer_, "serve.registry.feed");
      if (!registry.Flush(kTenant).ok()) out_->Fail("registry replay: FLUSH failed");
    }
    v_["serve.registry.feed_ns_per_pt"] = PerPoint("serve.registry.feed");
    auto lines = registry.Sample(kTenant, w_.final_draws, false, 0);
    std::vector<std::string> items;
    for (const std::string& l : lines.value()) items.push_back("ITEM " + l);
    if (items != expected) out_->Fail("registry replay: SAMPLE differs from the direct pool");
    if (w_.digest_every > 0 && events != w_.expected_events) {
      out_->Fail("registry replay: EVENT count differs");
    }
    v_["serve.registry.sample_us"] = MedianMicros(kSampleCalls, [&] {
      registry.Sample(kTenant, 1, false, 0).value();
    });
  }
  std::filesystem::remove_all(replay_root, ec);
}

void Repetition::Cvm() {
  rl0::serve::CvmEstimator cvm(rl0::serve::TenantRegistry::Options().cvm_capacity,
                               w_.create.seed);
  const Chunked arrivals{PointSpan(w_.points), StampSpan(w_.stamps), w_.chunk};
  for (size_t c = 0; c < arrivals.count(); ++c) {
    Span span(&tracer_, "serve.cvm.add");
    for (const Point& p : arrivals.pts(c)) cvm.AddPoint(p);
  }
  v_["serve.cvm.add_ns_per_pt"] = PerPoint("serve.cvm.add");
}

void Repetition::SwPool(size_t shards, const char* span_name) {
  auto create = [&] {
    return rl0::ShardedSwSamplerPool::Create(opts_, w_.create.window, shards)
        .value();
  };
  auto feed = [&](rl0::ShardedSwSamplerPool* pool, Tracer* tracer) {
    for (size_t c = 0; c < feed_.count(); ++c) {
      Span span(tracer, span_name);
      if (late_) {
        pool->FeedBorrowedStamped(feed_.pts(c), feed_.st(c));
      } else {
        pool->FeedBorrowed(feed_.pts(c));
      }
    }
    Span span(tracer, span_name);
    pool->Drain();
  };
  auto pool = create();
  feed(&pool, &tracer_);
  if (shards != w_.create.shards) return;
  rl0::Xoshiro256pp rng(rl0::SplitMix64(w_.create.seed));
  v_["core.sharded_pool.sample_us"] =
      MedianMicros(kSampleCalls, [&] { pool.SampleLatest(&rng); });
  v_["core.sharded_pool.merge_ms"] =
      MedianMicros(kMergeCalls, [&] { pool.MergedWindowItems(pool.now()); }) / 1e3;
  v_["core.sw_sampler.space_words"] = static_cast<double>(pool.SpaceWords());
  const rl0::DupFilterStats f = pool.FilterStats();
  v_["core.dup_filter.lookups"] = static_cast<double>(f.hits + f.misses);
  v_["core.dup_filter.hit_ratio"] =
      f.hits + f.misses == 0 ? 0.0 : static_cast<double>(f.hits) / (f.hits + f.misses);

  // Pause latency under a concurrent feed, on a second pool: the pauses
  // would slow the timed feed above.
  auto probed = create();
  Prober quiesce([&probed] { probed.QuiescedRun([] {}); });
  Tracer untimed;
  feed(&probed, &untimed);
  v_["core.sharded_pool.quiesce_us"] = quiesce.Finish();
}

void Repetition::IwPool(size_t lanes, const char* span_name) {
  // One pool per segment, as the end-to-end jobs run them.
  auto feed = [&](rl0::ShardedSamplerPool* pool, const Chunked& seg, Tracer* tracer) {
    for (size_t c = 0; c < seg.count(); ++c) {
      Span span(tracer, span_name);
      pool->FeedBorrowed(seg.pts(c));
    }
    Span span(tracer, span_name);
    pool->Drain();
  };
  const bool full = lanes == w_.lanes;
  std::vector<double> quiesce_us, merge_ms, sample_us;
  rl0::DupFilterStats f;
  double space_words = 0.0;
  for (size_t k = 0; k < Segments(); ++k) {
    const Chunked seg = Segment(k);
    auto pool = rl0::ShardedSamplerPool::Create(opts_, lanes).value();
    feed(&pool, seg, &tracer_);
    if (!full) continue;
    merge_ms.push_back(MedianMicros(kMergeCalls, [&] { pool.Merged().value(); }) / 1e3);
    const rl0::RobustL0SamplerIW merged = pool.Merged().value();
    rl0::Xoshiro256pp rng(rl0::SplitMix64(opts_.seed));
    sample_us.push_back(MedianMicros(kSampleCalls, [&] { merged.Sample(&rng); }));
    space_words += static_cast<double>(pool.SpaceWords()) / static_cast<double>(Segments());
    f += pool.FilterStats();
    if (merged.rate_reciprocal() != 1) out_->Fail("pool replay: rate left 1");

    // On the IW pool the quiesced query is MergedQuiesced (the pause plus
    // its merge), probed on a second pool so it cannot slow the timed feed.
    auto probed = rl0::ShardedSamplerPool::Create(opts_, lanes).value();
    Prober quiesce([&probed] { probed.MergedQuiesced(); });
    Tracer untimed;
    feed(&probed, seg, &untimed);
    quiesce_us.push_back(quiesce.Finish());
  }
  if (!full) return;
  v_["core.sharded_pool.quiesce_us"] = Median(quiesce_us);
  v_["core.sharded_pool.merge_ms"] = Median(merge_ms);
  v_["core.sharded_pool.sample_us"] = Median(sample_us);
  v_["core.iw_sampler.space_words"] = space_words;
  v_["core.dup_filter.lookups"] = static_cast<double>(f.hits + f.misses);
  v_["core.dup_filter.hit_ratio"] =
      f.hits + f.misses == 0 ? 0.0 : static_cast<double>(f.hits) / (f.hits + f.misses);
}

void Repetition::SerialSampler() {
  if (!w_.served) {
    for (size_t k = 0; k < Segments(); ++k) {
      const Chunked seg = Segment(k);
      auto sampler = rl0::RobustL0SamplerIW::Create(opts_).value();
      for (size_t c = 0; c < seg.count(); ++c) {
        Span span(&tracer_, "core.iw_sampler.insert");
        sampler.InsertBatch(seg.pts(c));
      }
    }
    v_["core.iw_sampler.insert_ns_per_pt"] = PerPoint("core.iw_sampler.insert");
    return;
  }
  auto sampler = rl0::RobustL0SamplerSW::Create(opts_, w_.create.window).value();
  for (size_t c = 0; c < feed_.count(); ++c) {
    Span span(&tracer_, "core.sw_sampler.insert");
    if (late_) {
      const PointSpan pts = feed_.pts(c);
      const StampSpan st = feed_.st(c);
      for (size_t i = 0; i < pts.size(); ++i) {
        sampler.InsertStamped(pts[i], st[i], c * feed_.chunk + i);
      }
    } else {
      sampler.InsertBatch(feed_.pts(c));
    }
  }
  v_["core.sw_sampler.insert_ns_per_pt"] = PerPoint("core.sw_sampler.insert");
}

void Repetition::ReorderJournalAndCuts() {
  // Reorder stage over the arrival-order FEEDSTAMPED batches.
  rl0::ReorderStage stage(w_.create.lateness, rl0::LatePolicy::kDrop);
  std::vector<std::pair<std::vector<Point>, std::vector<int64_t>>> released;
  double peak_words = 0.0;
  const Chunked arrivals{PointSpan(w_.points), StampSpan(w_.stamps), w_.chunk};
  for (size_t c = 0; c <= arrivals.count(); ++c) {
    std::vector<Point> pts;
    std::vector<int64_t> st;
    {
      Span span(&tracer_, "core.reorder_buffer.offer");
      if (c < arrivals.count()) {
        stage.OfferBatch(arrivals.pts(c), arrivals.st(c));
      } else {
        stage.Flush();
      }
    }
    peak_words = std::max(peak_words, static_cast<double>(stage.SpaceWords()));
    bool any = false;
    {
      Span span(&tracer_, "core.reorder_buffer.offer");
      any = stage.TakeReleased(&pts, &st);
    }
    if (any) released.emplace_back(std::move(pts), std::move(st));
  }
  if (stage.stats().late_dropped != 0) out_->Fail("reorder replay: late drops");
  v_["core.reorder_buffer.offer_ns_per_pt"] = PerPoint("core.reorder_buffer.offer");
  v_["core.reorder_buffer.peak_words"] = peak_words;

  // Journal records of the released chunks.
  std::string journal;
  rl0::JournalWriter writer(&journal, w_.create.dim);
  uint64_t index_base = 0;
  for (const auto& r : released) {
    Span span(&tracer_, "core.checkpoint.journal");
    writer.AppendStamped(r.first, r.second, index_base);
    index_base += r.first.size();
  }
  v_["core.checkpoint.journal_ns_per_pt"] = PerPoint("core.checkpoint.journal");
  v_["core.checkpoint.journal_bytes_per_pt"] = static_cast<double>(journal.size()) / n_;

  // Checkpoint cuts at the tenant's cadence, as PoolCheckpointer makes
  // them: a full cut first, then deltas folded onto the chain, and a
  // final cut at FLUSH.
  auto pool = rl0::ShardedSwSamplerPool::Create(opts_, w_.create.window,
                                                w_.create.shards)
                  .value();
  std::string chain, blob, folded;
  uint64_t seq = 0, next_cut = w_.create.checkpoint_every;
  auto cut = [&] {
    pool.Drain();
    if (chain.empty()) {
      Span span(&tracer_, "core.checkpoint.cut");
      rl0::CheckpointPool(&pool, seq++, &chain);
      return;
    }
    Span span(&tracer_, "core.checkpoint.cut");
    Span delta(&tracer_, "core.checkpoint.delta_cut");
    rl0::CheckpointPoolDelta(&pool, chain, seq++, &blob);
    rl0::FoldPoolDelta(chain, blob, &folded);
    chain.swap(folded);
  };
  for (const auto& r : released) {
    pool.FeedStamped(r.first, r.second);
    if (pool.points_fed() >= next_cut) {
      while (pool.points_fed() >= next_cut) next_cut += w_.create.checkpoint_every;
      cut();
    }
  }
  cut();
  v_["core.checkpoint.delta_cut_ms"] = MeanMillis("core.checkpoint.delta_cut");
  {
    Span span(&tracer_, "core.checkpoint.full_cut");
    rl0::CheckpointPool(&pool, seq, &blob);
  }
  v_["core.checkpoint.full_cut_ms"] = MeanMillis("core.checkpoint.full_cut");
}

void Repetition::Grid() {
  const rl0::RandomGrid grid(opts_.dim, opts_.GridSide(), opts_.seed, opts_.metric);
  rl0::AdjKeyVec keys;
  double cells = 0.0;
  for (size_t c = 0; c < feed_.count(); ++c) {
    Span span(&tracer_, "grid.adjacent_cells");
    for (const Point& p : feed_.pts(c)) {
      grid.AdjacentCells(p, opts_.alpha, &keys);
      cells += static_cast<double>(keys.size());
    }
  }
  v_["grid.adjacent_cells_ns_per_pt"] = PerPoint("grid.adjacent_cells");
  v_["grid.cells_per_pt"] = cells / n_;
}

void Repetition::Distance() {
  rl0::PointStore store(opts_.dim);
  std::vector<uint32_t> slots;
  for (size_t i = 0; i < kDistanceCandidates && i < feed_.points.size(); ++i) {
    slots.push_back(store.SlotIndexOf(store.Add(feed_.points[i])));
  }
  rl0::Bitmask mask;
  size_t found = 0;
  for (size_t c = 0; c < feed_.count(); ++c) {
    Span span(&tracer_, "geom.distance");
    for (const Point& p : feed_.pts(c)) {
      rl0::DistanceOneToMany(store, p, slots.data(), slots.size(), opts_.metric,
                             opts_.alpha, &mask);
      found += mask.FindFirst() != rl0::Bitmask::npos;
    }
  }
  if (found == 0) out_->Fail("distance replay: no point matched its own copy");
  v_["geom.distance_ns_per_pair"] =
      static_cast<double>(tracer_.Get("geom.distance").total_ns) /
      (n_ * static_cast<double>(slots.size()));
}

Values Repetition::Run(ServedSession* session, SubscriberReader* subscriber,
                       Counters* counters, bool create_tenant,
                       const std::vector<std::string>& expected) {
  const Clock::time_point start = Clock::now();
  if (w_.served) {
    Socket(session, subscriber, counters, create_tenant, expected);
    Registry(Parse(), expected);
    Cvm();
    SwPool(w_.create.shards, "core.sharded_pool.feed");
    SwPool(1, "core.sharded_pool.feed_1lane");
    if (late_) ReorderJournalAndCuts();
  } else {
    IwPool(w_.lanes, "core.sharded_pool.feed");
    IwPool(1, "core.sharded_pool.feed_1lane");
  }
  SerialSampler();
  Grid();
  Distance();
  const double wall_ns = static_cast<double>(NanosBetween(start, Clock::now()));

  v_["core.sharded_pool.feed_ns_per_pt"] = PerPoint("core.sharded_pool.feed");
  v_["core.sharded_pool.feed_ns_per_pt_1lane"] = PerPoint("core.sharded_pool.feed_1lane");
  if (w_.served) {
    double children = v_["serve.cvm.add_ns_per_pt"] +
                      v_["core.sharded_pool.feed_ns_per_pt"];
    if (late_) {
      children += v_["core.reorder_buffer.offer_ns_per_pt"] +
                  v_["core.checkpoint.journal_ns_per_pt"] +
                  PerPoint("core.checkpoint.cut");
    }
    v_["serve.registry.self_ns_per_pt"] = v_["serve.registry.feed_ns_per_pt"] - children;
    v_["serve.server.self_ns_per_pt"] = v_["serve.socket_ns_per_pt"] -
                                        v_["serve.protocol.parse_ns_per_pt"] -
                                        v_["serve.registry.feed_ns_per_pt"];
  }

  // Tracing overhead: the cost of an empty span, calibrated here, times
  // the spans this repetition recorded, over its wall time.
  Tracer calibration;
  constexpr int kCalibrationSpans = 100000;
  const Clock::time_point cal_start = Clock::now();
  for (int i = 0; i < kCalibrationSpans; ++i) Span span(&calibration, "x");
  const double span_ns =
      static_cast<double>(NanosBetween(cal_start, Clock::now())) / kCalibrationSpans;
  v_["trace.overhead_share"] =
      span_ns * static_cast<double>(tracer_.span_count()) / wall_ns;
  return v_;
}

}  // namespace

RunOutcome RunLayers(const Workload& w, const RunConfig& cfg) {
  RunOutcome out;
  Counters counters;
  std::vector<std::string> expected;
  std::unique_ptr<ServedSession> session;
  std::unique_ptr<SubscriberReader> subscriber;
  if (w.served) {
    expected = ExpectedSampleLines(w);
    session = std::make_unique<ServedSession>();
    double setup_s = 0.0;
    std::string error;
    if (!session->Start(w, cfg.serve_binary, &counters, &setup_s, &error)) {
      out.Fail("server set-up: " + error);
      return out;
    }
    if (w.digest_every > 0) {
      auto conn = Conn::Connect(kSocketPath, &error);
      if (conn == nullptr) {
        out.Fail("subscriber connect: " + error);
        return out;
      }
      subscriber = std::make_unique<SubscriberReader>(std::move(conn));
    }
  }

  std::map<std::string, std::vector<double>> samples;
  const Clock::time_point start = Clock::now();
  int reps = 0;
  while (out.correct &&
         (reps == 0 || SecondsBetween(start, Clock::now()) < cfg.seconds)) {
    Repetition rep(w, &out);
    for (const auto& [name, value] : rep.Run(session.get(), subscriber.get(),
                                             &counters, reps > 0, expected)) {
      samples[name].push_back(value);
    }
    ++reps;
  }
  subscriber.reset();
  session.reset();

  for (const LayerMetric& m : kLayerMetrics) {
    auto it = samples.find(m.name);
    out.metrics.Set(m.name, it == samples.end() ? 0.0 : Median(it->second), m.unit);
  }
  out.attempted = counters.attempted + static_cast<uint64_t>(reps);
  out.failed = counters.failed;
  out.Note("repetitions", reps);
  return out;
}

}  // namespace rl0bench
