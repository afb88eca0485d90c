#include "rl0/core/sharded_pool.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "rl0/util/check.h"

namespace rl0 {

template <typename Sampler>
LanePool<Sampler>::LanePool(std::vector<Sampler> shards,
                            const IngestPool::Options& pipeline_options,
                            bool broadcast)
    : shards_(std::move(shards)) {
  const size_t stride = broadcast ? 1 : shards_.size();
  std::vector<IngestPool::Sink> sinks;
  sinks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Sampler* shard = &shards_[s];
    sinks.push_back([shard, residue = s % stride, stride](
                        Span<const Point> points, Span<const int64_t> stamps,
                        uint64_t index_base, const int64_t* watermark) {
      // Global-residue partition: point i of the chunk has global
      // position index_base + i, and this lane owns the positions ≡
      // residue (mod stride), starting at chunk position `start`. A
      // windowed lane stamps each point with that position in sequence
      // mode, else with the explicit stamp riding the chunk. Either way
      // the shard's input — window-expiry schedule included — is
      // invariant under re-chunking (the pipeline tests' determinism
      // contract).
      const size_t start =
          (residue + stride - static_cast<size_t>(index_base % stride)) %
          stride;
      if constexpr (std::is_same_v<Sampler, RobustL0SamplerSW>) {
        if (watermark != nullptr) {
          // Event-time advance without points: a lane whose residue class
          // saw nothing recent still learns how far time has progressed
          // (scratch state only — snapshots stay byte-identical to the
          // strict sorted feed).
          shard->NoteWatermark(*watermark);
          return;
        }
        if (!stamps.empty()) {
          shard->InsertStridedStamped(points, stamps, start, stride,
                                      index_base);
          return;
        }
      }
      shard->InsertStrided(points, start, stride, index_base);
    });
  }
  pipeline_ = std::make_unique<IngestPool>(std::move(sinks), pipeline_options);
}

template <typename Sampler>
template <typename Make>
Result<std::vector<Sampler>> LanePool<Sampler>::MakeShards(size_t shards,
                                                           Make make) {
  if (shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  std::vector<Sampler> samplers;
  samplers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    Result<Sampler> sampler = make();
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(std::move(sampler).value());
  }
  return Result<std::vector<Sampler>>(std::move(samplers));
}

template <typename Sampler>
void LanePool<Sampler>::FeedSequence(IngestPool::Chunk chunk) {
  pipeline_->Feed(std::move(chunk));
}

template <typename Sampler>
void LanePool<Sampler>::Feed(Span<const Point> points) {
  FeedSequence(IngestPool::Chunk::Owning(
      std::vector<Point>(points.begin(), points.end())));
}

template <typename Sampler>
void LanePool<Sampler>::FeedBorrowed(Span<const Point> points) {
  FeedSequence({points});
}

template <typename Sampler>
void LanePool<Sampler>::Drain() {
  pipeline_->Drain();
}

template <typename Sampler>
void LanePool<Sampler>::ConsumeParallel(Span<const Point> points) {
  // The span outlives the call because Drain is the last thing we do.
  FeedBorrowed(points);
  Drain();
}

template <typename Sampler>
void LanePool<Sampler>::QuiescedRun(const std::function<void()>& fn) {
  pipeline_->QuiescedRun(fn);
}

template <typename Sampler>
uint64_t LanePool<Sampler>::points_processed() const {
  uint64_t total = 0;
  for (const Sampler& sampler : shards_) total += sampler.points_processed();
  return total;
}

template <typename Sampler>
uint64_t LanePool<Sampler>::points_fed() const {
  return pipeline_->points_fed();
}

template <typename Sampler>
size_t LanePool<Sampler>::SpaceWords() const {
  size_t total = 0;
  for (const Sampler& sampler : shards_) total += sampler.SpaceWords();
  return total;
}

template <typename Sampler>
DupFilterStats LanePool<Sampler>::FilterStats() const {
  DupFilterStats stats;
  for (const Sampler& sampler : shards_) stats += sampler.filter_stats();
  return stats;
}

template class LanePool<RobustL0SamplerIW>;
template class LanePool<RobustL0SamplerSW>;

// ------------------------------------------------------- infinite window

Result<ShardedSamplerPool> ShardedSamplerPool::Create(
    const SamplerOptions& options, size_t shards,
    const IngestPool::Options& pipeline_options) {
  // Identical options (and seed!) on purpose: AbsorbFrom requires the
  // shared grid/hash randomness of mergeable sketches.
  Result<std::vector<RobustL0SamplerIW>> samplers = MakeShards(
      shards, [&options] { return RobustL0SamplerIW::Create(options); });
  if (!samplers.ok()) return samplers.status();
  return ShardedSamplerPool(std::move(samplers).value(), pipeline_options);
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
  QuiescedRun([this, &merged] { merged = Merged(); });
  return merged;
}

// ---------------------------------------------------------- windowed mode

Result<ShardedSwSamplerPool> ShardedSwSamplerPool::Create(
    const SamplerOptions& options, int64_t window, size_t shards,
    const IngestPool::Options& pipeline_options) {
  // Identical options (and seed!): the shards must share one grid and
  // one nested cell hash for their window samples to be mergeable.
  Result<std::vector<RobustL0SamplerSW>> samplers =
      MakeShards(shards, [&options, window] {
        return RobustL0SamplerSW::Create(options, window);
      });
  if (!samplers.ok()) return samplers.status();
  return ShardedSwSamplerPool(std::move(samplers).value(), window,
                              options.allowed_lateness, pipeline_options);
}

ShardedSwSamplerPool::ShardedSwSamplerPool(
    std::vector<RobustL0SamplerSW> shards, int64_t window,
    int64_t allowed_lateness, const IngestPool::Options& pipeline_options,
    bool broadcast)
    : LanePool(std::move(shards), pipeline_options, broadcast),
      window_(window),
      mode_(std::make_unique<std::atomic<uint8_t>>(0)),
      reorder_fe_(std::make_unique<ReorderFrontEnd>(allowed_lateness)) {}

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

void ShardedSwSamplerPool::FeedChunk(StampMode mode, IngestPool::Chunk chunk) {
  LatchMode(mode);
  // Time-mode chunks carry one stamp per point, sequence chunks none.
  RL0_CHECK(chunk.stamps.size() ==
            (mode == StampMode::kTime ? chunk.points.size() : 0));
  pipeline_->Feed(std::move(chunk));
}

void ShardedSwSamplerPool::FeedSequence(IngestPool::Chunk chunk) {
  FeedChunk(StampMode::kSequence, std::move(chunk));
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
  fe->stage.OfferBatch(points, stamps);
  PumpReorderLocked(fe);
}

void ShardedSwSamplerPool::FlushLate() {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  fe->stage.Flush();
  PumpReorderLocked(fe);
}

void ShardedSwSamplerPool::PumpReorderLocked(ReorderFrontEnd* fe) {
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  if (fe->stage.TakeReleased(&points, &stamps)) {
    // Released order is the canonically sorted order, so the pipeline
    // sees exactly the chunk stream a strict sorted feed would (modulo
    // chunk boundaries, which the determinism contract absorbs). Only
    // the *released* prefix is journaled — points still buffered in the
    // reorder heap at a crash were never durable (the recovery contract
    // in core/checkpoint.h).
    FeedChunk(StampMode::kTime, IngestPool::Chunk::Owning(std::move(points),
                                                          std::move(stamps)));
  }
  if (fe->stage.has_watermark()) {
    const int64_t watermark = fe->stage.watermark();
    if (!fe->watermark_sent || watermark > fe->last_watermark) {
      // After the release above: released stamps are below the new
      // watermark, and every future release is at or above it, so the
      // pipeline's stamp monotonicity check holds on both sides. (The
      // mode latched to kTime when this late feed began.)
      pipeline_->FeedWatermark(watermark);
      fe->watermark_sent = true;
      fe->last_watermark = watermark;
    }
  }
}

ReorderStats ShardedSwSamplerPool::late_stats() const {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  return fe->stage.stats();
}

int64_t ShardedSwSamplerPool::allowed_lateness() const {
  ReorderFrontEnd* fe = reorder_fe_.get();
  MutexLock lock(&fe->mu);
  return fe->stage.allowed_lateness();
}

int64_t ShardedSwSamplerPool::now() const {
  if (stamp_mode() == StampMode::kTime) return pipeline_->latest_stamp();
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
  QuiescedRun([this, rng, &sample] {
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

}  // namespace rl0
