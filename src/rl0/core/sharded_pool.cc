#include "rl0/core/sharded_pool.h"

#include <algorithm>
#include <utility>

#include "rl0/util/check.h"

namespace rl0 {

namespace {

/// First position i inside a chunk with (index_base + i) % stride ==
/// residue — the global-residue partition both pools' sinks are built on
/// (a broadcast pool has stride 1: every lane reads every point). One
/// copy of this arithmetic: it is what makes per-shard streams invariant
/// under re-chunking (the determinism contract of the pipeline tests).
size_t StrideStart(size_t residue, size_t stride, uint64_t index_base) {
  return (residue + stride - static_cast<size_t>(index_base % stride)) %
         stride;
}

}  // namespace

Result<ShardedSamplerPool> ShardedSamplerPool::Create(
    const SamplerOptions& options, size_t shards,
    const IngestPool::Options& pipeline_options) {
  if (shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  std::vector<RobustL0SamplerIW> samplers;
  samplers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    // Identical options (and seed!) on purpose: AbsorbFrom requires the
    // shared grid/hash randomness of mergeable sketches.
    Result<RobustL0SamplerIW> sampler = RobustL0SamplerIW::Create(options);
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(std::move(sampler).value());
  }
  return ShardedSamplerPool(std::move(samplers), pipeline_options);
}

ShardedSamplerPool::ShardedSamplerPool(
    std::vector<RobustL0SamplerIW> shards,
    const IngestPool::Options& pipeline_options, bool broadcast)
    : shards_(std::move(shards)) {
  const size_t stride = broadcast ? 1 : shards_.size();
  std::vector<IngestPool::Sink> sinks;
  sinks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    RobustL0SamplerIW* shard = &shards_[s];
    sinks.push_back([shard, residue = s % stride, stride](
                        Span<const Point> points, Span<const int64_t>,
                        uint64_t index_base, const int64_t*) {
      // Global-residue partition: this shard owns the points at global
      // stream positions ≡ residue (mod stride), so per-shard input
      // streams — and decisions — are invariant under re-chunking.
      shard->InsertStrided(points, StrideStart(residue, stride, index_base),
                           stride, index_base);
    });
  }
  pipeline_ = std::make_unique<IngestPool>(std::move(sinks), pipeline_options);
}

void ShardedSamplerPool::Feed(Span<const Point> points) {
  pipeline_->Feed(IngestPool::Chunk::Owning(
      std::vector<Point>(points.begin(), points.end())));
}

void ShardedSamplerPool::FeedBorrowed(Span<const Point> points) {
  pipeline_->Feed({points});
}

void ShardedSamplerPool::Drain() { pipeline_->Drain(); }

void ShardedSamplerPool::ConsumeParallel(Span<const Point> points) {
  // The span outlives the call because Drain is the last thing we do.
  FeedBorrowed(points);
  Drain();
}

Result<RobustL0SamplerIW> ShardedSamplerPool::Merged() const {
  RobustL0SamplerIW merged = shards_[0];
  for (size_t s = 1; s < shards_.size(); ++s) {
    Status status = merged.AbsorbFrom(shards_[s]);
    if (!status.ok()) return status;
  }
  return merged;
}

Result<RobustL0SamplerIW> ShardedSamplerPool::MergedQuiesced() {
  Result<RobustL0SamplerIW> merged =
      Status::Internal("quiesced merge did not run");
  pipeline_->QuiescedRun([this, &merged] { merged = Merged(); });
  return merged;
}

uint64_t ShardedSamplerPool::points_processed() const {
  uint64_t total = 0;
  for (const RobustL0SamplerIW& sampler : shards_) {
    total += sampler.points_processed();
  }
  return total;
}

uint64_t ShardedSamplerPool::points_fed() const {
  return pipeline_->points_fed();
}

size_t ShardedSamplerPool::SpaceWords() const {
  size_t total = 0;
  for (const RobustL0SamplerIW& sampler : shards_) {
    total += sampler.SpaceWords();
  }
  return total;
}

// ---------------------------------------------------------- windowed mode

Result<ShardedSwSamplerPool> ShardedSwSamplerPool::Create(
    const SamplerOptions& options, int64_t window, size_t shards,
    const IngestPool::Options& pipeline_options) {
  if (shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  std::vector<RobustL0SamplerSW> samplers;
  samplers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    // Identical options (and seed!): the shards must share one grid and
    // one nested cell hash for their window samples to be mergeable.
    Result<RobustL0SamplerSW> sampler =
        RobustL0SamplerSW::Create(options, window);
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(std::move(sampler).value());
  }
  return ShardedSwSamplerPool(std::move(samplers), window, pipeline_options);
}

ShardedSwSamplerPool::ShardedSwSamplerPool(
    std::vector<RobustL0SamplerSW> shards, int64_t window,
    const IngestPool::Options& pipeline_options, bool broadcast)
    : shards_(std::move(shards)), window_(window),
      mode_(std::make_unique<std::atomic<uint8_t>>(0)),
      reorder_fe_(std::make_unique<ReorderFrontEnd>()),
      journal_mu_(std::make_unique<Mutex>()) {
  const size_t stride = broadcast ? 1 : shards_.size();
  std::vector<IngestPool::Sink> sinks;
  sinks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    RobustL0SamplerSW* shard = &shards_[s];
    sinks.push_back([shard, residue = s % stride, stride](
                        Span<const Point> points, Span<const int64_t> stamps,
                        uint64_t index_base, const int64_t* watermark) {
      if (watermark != nullptr) {
        // Event-time advance without points: a lane whose residue class
        // saw nothing recent still learns how far time has progressed
        // (scratch state only — snapshots stay byte-identical to the
        // strict sorted feed).
        shard->NoteWatermark(*watermark);
        return;
      }
      // Global-residue partition. Point i of the chunk has global
      // position index_base + i; its stamp is that position in sequence
      // mode, else the explicit stamp riding the chunk. Either way the
      // shard's input — window-expiry schedule included — is invariant
      // under re-chunking.
      const size_t start = StrideStart(residue, stride, index_base);
      if (stamps.empty()) {
        shard->InsertStrided(points, start, stride, index_base);
      } else {
        shard->InsertStridedStamped(points, stamps, start, stride,
                                    index_base);
      }
    });
  }
  pipeline_ = std::make_unique<IngestPool>(std::move(sinks), pipeline_options);
}

void ShardedSwSamplerPool::LatchMode(StampMode mode) {
  uint8_t expected = static_cast<uint8_t>(StampMode::kUnset);
  const uint8_t wanted = static_cast<uint8_t>(mode);
  if (!mode_->compare_exchange_strong(expected, wanted,
                                      std::memory_order_relaxed)) {
    // Mixing sequence- and time-stamped feeds would interleave two
    // incompatible stamp semantics on every lane; fail loudly.
    RL0_CHECK(expected == wanted);
  }
}

void ShardedSwSamplerPool::FeedChunk(StampMode mode, IngestPool::Chunk chunk,
                                     const int64_t* watermark) {
  LatchMode(mode);
  // Time-mode chunks carry one stamp per point, sequence chunks none.
  RL0_CHECK(chunk.stamps.size() ==
            (mode == StampMode::kTime ? chunk.points.size() : 0));
  const auto enqueue = [&] {
    if (watermark != nullptr) {
      pipeline_->FeedWatermark(*watermark);
    } else {
      pipeline_->Feed(std::move(chunk));
    }
  };
  if (!journal_ || (watermark == nullptr && chunk.points.empty())) {
    // Empty chunks are pipeline no-ops; journaling them would only add
    // mode-ambiguous records with nothing to replay.
    enqueue();
    return;
  }
  // The lock spans the counter read AND the enqueue: a second producer
  // cannot slip a chunk between them, so the journal's record order is
  // the pipeline's index-base assignment order and recovery can verify
  // index continuity record by record.
  MutexLock lock(journal_mu_.get());
  journal_(chunk.points, chunk.stamps, pipeline_->points_fed(), watermark);
  enqueue();
}

void ShardedSwSamplerPool::Feed(Span<const Point> points) {
  FeedChunk(StampMode::kSequence,
            IngestPool::Chunk::Owning(
                std::vector<Point>(points.begin(), points.end())));
}

void ShardedSwSamplerPool::FeedBorrowed(Span<const Point> points) {
  FeedChunk(StampMode::kSequence, {points});
}

void ShardedSwSamplerPool::FeedStamped(Span<const Point> points,
                                       Span<const int64_t> stamps) {
  FeedChunk(StampMode::kTime,
            IngestPool::Chunk::Owning(
                std::vector<Point>(points.begin(), points.end()),
                std::vector<int64_t>(stamps.begin(), stamps.end())));
}

void ShardedSwSamplerPool::FeedBorrowedStamped(Span<const Point> points,
                                               Span<const int64_t> stamps) {
  FeedChunk(StampMode::kTime, {points, stamps});
}

void ShardedSwSamplerPool::FeedStampedLate(Span<const Point> points,
                                           Span<const int64_t> stamps) {
  RL0_CHECK(stamps.size() == points.size());
  LatchMode(StampMode::kTime);
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  if (!fe->stage) {
    fe->stage = std::make_unique<ReorderStage>(
        shards_[0].options().allowed_lateness,
        shards_[0].options().late_policy);
  }
  fe->stage->OfferBatch(points, stamps);
  PumpReorderLocked(fe);
}

void ShardedSwSamplerPool::FlushLate() {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  if (!fe->stage) return;
  fe->stage->Flush();
  PumpReorderLocked(fe);
}

void ShardedSwSamplerPool::PumpReorderLocked(ReorderFrontEnd* fe) {
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  if (fe->stage->TakeReleased(&points, &stamps)) {
    // Released order is the canonically sorted order, so the pipeline
    // sees exactly the chunk stream a strict sorted feed would (modulo
    // chunk boundaries, which the determinism contract absorbs). Only
    // the *released* prefix is journaled — points still buffered in the
    // reorder heap at a crash were never durable (the recovery contract
    // in core/checkpoint.h).
    FeedChunk(StampMode::kTime, IngestPool::Chunk::Owning(std::move(points),
                                                          std::move(stamps)));
  }
  if (fe->stage->has_watermark()) {
    const int64_t watermark = fe->stage->watermark();
    if (!fe->watermark_sent || watermark > fe->last_watermark) {
      // After the release above: released stamps are below the new
      // watermark, and every future release is at or above it, so the
      // pipeline's stamp monotonicity check holds on both sides.
      FeedChunk(StampMode::kTime, {}, &watermark);
      fe->watermark_sent = true;
      fe->last_watermark = watermark;
    }
  }
}

ReorderStats ShardedSwSamplerPool::late_stats() const {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  return fe->stage ? fe->stage->stats() : ReorderStats();
}

void ShardedSwSamplerPool::set_late_sink(ReorderStage::LateSink sink) {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  if (!fe->stage) {
    fe->stage = std::make_unique<ReorderStage>(
        shards_[0].options().allowed_lateness,
        shards_[0].options().late_policy);
  }
  fe->stage->set_late_sink(std::move(sink));
}

std::vector<std::pair<Point, int64_t>>
ShardedSwSamplerPool::TakeLateSideChannel() {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  if (!fe->stage) return {};
  return fe->stage->TakeLate();
}

void ShardedSwSamplerPool::Drain() { pipeline_->Drain(); }

void ShardedSwSamplerPool::ConsumeParallel(Span<const Point> points) {
  FeedBorrowed(points);
  Drain();
}

int64_t ShardedSwSamplerPool::now() const {
  if (mode_->load(std::memory_order_relaxed) ==
      static_cast<uint8_t>(StampMode::kTime)) {
    return pipeline_->latest_stamp();
  }
  return static_cast<int64_t>(pipeline_->points_fed()) - 1;
}

void ShardedSwSamplerPool::DedupeLatestWins(
    std::vector<SampleItem>* items) const {
  const SamplerOptions& opts = shards_[0].options();
  std::vector<SampleItem>& v = *items;
  size_t kept = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    bool merged = false;
    for (size_t j = 0; j < kept; ++j) {
      if (MetricWithinDistance(v[j].point, v[i].point, opts.alpha,
                               opts.metric)) {
        // Same underlying group reported by two shards: keep the view
        // with the later stream position (the union's freshest point).
        if (v[i].stream_index > v[j].stream_index) v[j] = std::move(v[i]);
        merged = true;
        break;
      }
    }
    if (!merged) {
      if (kept != i) v[kept] = std::move(v[i]);
      ++kept;
    }
  }
  v.resize(kept);
}

std::vector<SampleItem> ShardedSwSamplerPool::MergedWindowItems(
    int64_t query_now) {
  std::vector<SampleItem> items;
  for (RobustL0SamplerSW& shard : shards_) {
    shard.AcceptedWindowItems(query_now, &items);
  }
  // A single shard's accepted groups are already distinct (one accepted
  // record per group across the hierarchy) — pass through untouched so
  // the one-lane pool matches the pointwise sampler bit-for-bit.
  if (shards_.size() > 1) DedupeLatestWins(&items);
  return items;
}

template <typename NowOf>
std::vector<SampleItem> ShardedSwSamplerPool::BuildUnifiedPool(
    NowOf now_of, Xoshiro256pp* rng) {
  // Pass 1 (no query randomness consumed): the global deepest non-empty
  // level across shards. Each shard's pool is then unified to that one
  // rate 1/R_c_global, so no shard over-contributes just because its own
  // hierarchy settled shallower — the PR 3 multi-shard over-inclusion
  // caveat. With one shard this degenerates to the shard's own deepest
  // level and the rng consumption of the plain pointwise query.
  int c_global = -1;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::optional<uint32_t> deepest =
        shards_[s].DeepestNonEmptyLevel(now_of(s));
    if (deepest.has_value()) {
      c_global = std::max(c_global, static_cast<int>(*deepest));
    }
  }
  std::vector<SampleItem> pool;
  if (c_global < 0) return pool;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::vector<SampleItem> shard_pool =
        shards_[s].WindowQueryPool(now_of(s), rng, c_global);
    pool.insert(pool.end(), shard_pool.begin(), shard_pool.end());
  }
  // Cross-shard α-proximity dedupe: at most one entry per underlying
  // group survives, so a group tracked by several shards cannot occupy
  // several slots of the uniform draw.
  if (shards_.size() > 1) DedupeLatestWins(&pool);
  return pool;
}

std::vector<SampleItem> ShardedSwSamplerPool::UnifiedQueryPool(
    int64_t query_now, Xoshiro256pp* rng) {
  return BuildUnifiedPool([query_now](size_t) { return query_now; }, rng);
}

std::optional<SampleItem> ShardedSwSamplerPool::Sample(int64_t query_now,
                                                       Xoshiro256pp* rng) {
  const std::vector<SampleItem> pool = UnifiedQueryPool(query_now, rng);
  if (pool.empty()) return std::nullopt;
  return pool[rng->NextBounded(pool.size())];
}

std::optional<SampleItem> ShardedSwSamplerPool::SampleLatest(
    Xoshiro256pp* rng) {
  return Sample(now(), rng);
}

std::optional<SampleItem> ShardedSwSamplerPool::SampleQuiesced(
    Xoshiro256pp* rng) {
  std::optional<SampleItem> sample;
  pipeline_->QuiescedRun([this, rng, &sample] {
    // Each shard is queried at its own processed prefix: its event time
    // (watermark() — the latest stamp unless a broadcast watermark moved
    // past it on the bounded-lateness path). Expiring at a stamp the
    // lane is promised never to see undercut repeats or front-runs work
    // its own inserts do, so the peek never disturbs the lane's
    // deterministic trajectory.
    const std::vector<SampleItem> pool = BuildUnifiedPool(
        [this](size_t s) { return shards_[s].watermark(); }, rng);
    if (!pool.empty()) sample = pool[rng->NextBounded(pool.size())];
  });
  return sample;
}

void ShardedSwSamplerPool::QuiescedRun(const std::function<void()>& fn) {
  pipeline_->QuiescedRun(fn);
}

uint64_t ShardedSwSamplerPool::points_processed() const {
  uint64_t total = 0;
  for (const RobustL0SamplerSW& sampler : shards_) {
    total += sampler.points_processed();
  }
  return total;
}

uint64_t ShardedSwSamplerPool::points_fed() const {
  return pipeline_->points_fed();
}

size_t ShardedSwSamplerPool::SpaceWords() const {
  size_t total = 0;
  for (const RobustL0SamplerSW& sampler : shards_) {
    total += sampler.SpaceWords();
  }
  return total;
}

}  // namespace rl0
