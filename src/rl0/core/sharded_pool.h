// Thread-parallel ingestion via sharded samplers.
//
// The samplers are single-writer streaming structures. The standard way to
// use many cores — and the pattern behind the distributed setting of
// AbsorbFrom — is sharding: partition the stream across S samplers created
// with identical options (shared grid/hash randomness), feed each shard
// from its own thread, and merge on query. LanePool<Sampler> packages that
// pattern on top of a persistent IngestPool: one long-lived worker per
// shard, bounded per-shard chunk queues with backpressure, and the
// Drain/QuiescedRun barriers. ShardedSamplerPool (infinite window, merged
// with RobustL0SamplerIW::AbsorbFrom) and ShardedSwSamplerPool (sliding
// windows) are its two users and add only what their sampler needs.
//
// Partition: shard s receives the points at *global* stream positions
// ≡ s (mod S), in stream order, via the samplers' strided batch paths
// (InsertStrided / InsertStridedStamped). Because the residue class is
// taken over global indices, each shard's input subsequence — and
// therefore its entire decision trajectory — is independent of how the
// stream was cut into Feed chunks. A later merge resolves groups judged
// by several shards deterministically by true arrival order. The F0
// estimators build broadcast pools instead (stride 1: every lane reads
// the whole stream).
//
// Concurrency contract: Feed/FeedBorrowed are safe from any number of
// threads; each shard is only ever touched by its own worker.
// Drain() is the barrier: after it returns (with no concurrent feeders),
// merges, shard() and points_processed() read quiescent state. The
// *Quiesced queries are the exception that needs no barrier — they pause
// the workers between chunks, so they are safe concurrently with ongoing
// feeding (each shard then contributes a prefix of its stream).

#ifndef RL0_CORE_SHARDED_POOL_H_
#define RL0_CORE_SHARDED_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rl0/core/ingest_pool.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {

/// S samplers of one type fed as the lanes of one persistent IngestPool
/// (see the file comment). The base of both sharded pools.
template <typename Sampler>
class LanePool {
 public:
  /// Number of shards.
  size_t num_shards() const { return shards_.size(); }

  /// Direct access to a shard. Requires a quiescent pipeline (after
  /// Drain, or before any feeding).
  Sampler& shard(size_t i) { return shards_[i]; }
  const Sampler& shard(size_t i) const { return shards_[i]; }

  /// Streams `points` into the pipeline as one chunk (copied; the pool
  /// has its own lifetime for the data). Returns as soon as the chunk is
  /// queued on every shard — call Drain() before querying. A windowed
  /// pool stamps every point with its global stream position.
  /// (std::vector<Point> converts implicitly.)
  void Feed(Span<const Point> points);

  /// As Feed but zero-copy: `points` must stay valid until the next
  /// Drain() returns.
  void FeedBorrowed(Span<const Point> points);

  /// Blocks until everything fed before this call is consumed by every
  /// shard. Safe from any thread, also concurrently with feeding.
  void Drain();

  /// Feeds `points` and drains (the blocking convenience call).
  /// Deterministic: the global-residue partition does not depend on
  /// thread scheduling or chunk boundaries.
  void ConsumeParallel(Span<const Point> points);

  /// Total points across shards. Requires a quiescent pipeline.
  uint64_t points_processed() const;

  /// Points handed to the pool so far (fed or consumed; any thread).
  uint64_t points_fed() const;

  /// Total space across shards. Requires a quiescent pipeline.
  size_t SpaceWords() const;

  /// Summed duplicate-suppression counters over the lanes. No sampler has
  /// a filter (core/dup_filter.h), so every point counts as bypassed.
  /// Requires a quiescent pipeline.
  DupFilterStats FilterStats() const;

 protected:
  /// Builds the pipeline around pre-built samplers, one lane sink per
  /// shard. `broadcast` makes every lane consume the whole stream
  /// (stride 1) instead of its residue class. The pipeline exists before
  /// the pool is visible to any other thread, so concurrent Feeds never
  /// race on its creation. The sinks capture addresses of shards_
  /// elements: stable across moves of the pool (the vector's heap buffer
  /// moves with it) because shards_ never resizes.
  LanePool(std::vector<Sampler> shards,
           const IngestPool::Options& pipeline_options, bool broadcast);
  LanePool(LanePool&&) noexcept = default;
  LanePool& operator=(LanePool&&) noexcept = default;
  ~LanePool() = default;

  /// `shards` ≥ 1 samplers from `make()` — the Create step of both pools.
  template <typename Make>
  static Result<std::vector<Sampler>> MakeShards(size_t shards, Make make);

  /// Where Feed/FeedBorrowed/ConsumeParallel hand their sequence chunk:
  /// straight to the pipeline (the windowed pool latches its stamp mode
  /// first).
  virtual void FeedSequence(IngestPool::Chunk chunk);

  /// Runs `fn` with every worker paused between chunks (see
  /// IngestPool::QuiescedRun: `fn` must not call this pool's feed-side
  /// APIs — Feed*/Drain/points_fed — or it can deadlock).
  void QuiescedRun(const std::function<void()>& fn);

  std::vector<Sampler> shards_;
  std::unique_ptr<IngestPool> pipeline_;
};

extern template class LanePool<RobustL0SamplerIW>;
extern template class LanePool<RobustL0SamplerSW>;

/// A pool of identically-seeded infinite-window samplers fed in parallel
/// by a persistent worker pipeline.
class ShardedSamplerPool final : public LanePool<RobustL0SamplerIW> {
 public:
  /// Creates `shards` samplers with identical options and the persistent
  /// pipeline (its workers start on the first feed). Requires shards ≥ 1.
  static Result<ShardedSamplerPool> Create(
      const SamplerOptions& options, size_t shards,
      const IngestPool::Options& pipeline_options = IngestPool::Options());

  /// A merged sampler over the union of all shards' streams (copy of
  /// shard 0 absorbing the rest; see AbsorbFrom's guarantee). Requires a
  /// quiescent pipeline (after Drain).
  Result<RobustL0SamplerIW> Merged() const;

  /// As Merged(), but safe concurrently with ongoing feeding: pauses the
  /// workers between chunks and merges each shard's current prefix. The
  /// result is a valid sampler over the subset of the stream processed at
  /// the pause point. Do not call the feed-side APIs (Feed*/Drain/
  /// points_fed) from the same thread while it runs — see
  /// IngestPool::QuiescedRun's deadlock caveat.
  Result<RobustL0SamplerIW> MergedQuiesced();

 private:
  // The F0 estimator runs its differently seeded copies as broadcast
  // lanes of a pool.
  friend class F0EstimatorIW;

  ShardedSamplerPool(std::vector<RobustL0SamplerIW> shards,
                     const IngestPool::Options& pipeline_options,
                     bool broadcast = false)
      : LanePool(std::move(shards), pipeline_options, broadcast) {}
};

/// The windowed mode of the sharded pool: S sliding-window hierarchies
/// (RobustL0SamplerSW) fed as persistent IngestPool lanes.
///
/// Partition and stamps: shard s consumes the points at *global* stream
/// positions ≡ s (mod S). The pool supports both of the paper's window
/// models, chosen by which feed API is used first (modes cannot mix):
///
///   * sequence-based (Feed/FeedBorrowed) — every point is stamped with
///     its global position; the stamp of chunk[0] is carried by the
///     chunk's index base;
///   * time-based (FeedStamped/FeedBorrowedStamped/FeedStampedLate) —
///     every point carries an explicit stamp from a parallel stamp
///     array that rides the chunk through the pipeline; stamps must be
///     non-decreasing in feed order (a point is live at query time
///     `now` iff its stamp lies in (now − w, now]).
///
/// In both modes per-shard input — stamps included — is invariant under
/// re-chunking of the feed, even when a chunk straddles a window-expiry
/// boundary (or a stamp gap jumps past whole windows). Lanes therefore
/// make bit-identical decisions for any chunking and any number of
/// producers (pinned by tests/sw_pipeline_determinism_test.cc).
///
/// Queries merge the per-shard window samples. Two shards may both track
/// one underlying group (each saw a sub-view of its points); the merge
/// dedupes reports within distance α of each other, keeping the report
/// with the latest stream index — exact for well-separated streams, the
/// same contract as RobustL0SamplerIW::AbsorbFrom. The concurrency
/// contract (Feed*/Drain/QuiescedRun) is LanePool's.
class ShardedSwSamplerPool final : public LanePool<RobustL0SamplerSW> {
 public:
  /// Creates `shards` identically-seeded windowed samplers and the
  /// persistent pipeline (its workers start on the first feed). Requires
  /// shards ≥ 1.
  static Result<ShardedSwSamplerPool> Create(
      const SamplerOptions& options, int64_t window, size_t shards,
      const IngestPool::Options& pipeline_options = IngestPool::Options());

  int64_t window() const { return window_; }

  /// Streams one explicitly stamped chunk (time-based windows; copied):
  /// `stamps[i]` is the stamp of `points[i]`. Stamps must align with the
  /// points, be non-decreasing within the chunk and across feeds, and the
  /// pool must not have been fed through the sequence-stamped APIs
  /// (modes cannot mix; checked). Lanes route their residue class
  /// through RobustL0SamplerSW::InsertStamped, so per-shard state —
  /// expiry schedule included — is invariant under re-chunking.
  void FeedStamped(Span<const Point> points, Span<const int64_t> stamps);
  /// As FeedStamped but zero-copy: both arrays must stay valid until the
  /// next Drain() returns.
  void FeedBorrowedStamped(Span<const Point> points,
                           Span<const int64_t> stamps);

  /// Bounded-lateness time-based feeding (core/reorder_buffer.h): the
  /// stamps may run backwards by up to options().allowed_lateness behind
  /// the maximum stamp seen across all late feeds. A pool-level
  /// ReorderStage restores sorted order and streams the released prefix
  /// through the ordinary stamped pipeline, followed by a watermark
  /// chunk that advances every lane's event time (so a lane whose
  /// residue class went quiet still expires on schedule). For ANY
  /// arrival order within the bound, per-lane state — coin streams and
  /// snapshot bytes included — is bit-identical to FeedStamped of the
  /// canonically sorted stream (ties broken by
  /// ReorderStage::CanonicalLess). Beyond-bound points are dropped and
  /// counted in late_stats().
  /// Safe from any number of threads (serialized internally); do not mix
  /// with the strict FeedStamped* calls. Call FlushLate() + Drain()
  /// before end-of-stream queries.
  void FeedStampedLate(Span<const Point> points, Span<const int64_t> stamps);

  /// Releases everything the reorder stage still buffers into the
  /// pipeline and broadcasts the final watermark (the maximum stamp
  /// seen). Drain() afterwards for the usual barrier. No-op before any
  /// FeedStampedLate.
  void FlushLate();

  /// Counters of the pool's reorder stage (all-zero before any
  /// FeedStampedLate). The identity offered == released + late_dropped +
  /// buffered holds at every quiescent point.
  ReorderStats late_stats() const;

  /// The lateness bound of FeedStampedLate: options().allowed_lateness at
  /// Create, the checkpointed bound after RecoverPool.
  int64_t allowed_lateness() const;

  /// Which stamp semantics the pool has been fed with. Latched by the
  /// first feed; mixing modes is a programming error (CHECK-fails).
  enum class StampMode : uint8_t { kUnset = 0, kSequence = 1, kTime = 2 };
  StampMode stamp_mode() const {
    return static_cast<StampMode>(mode_->load(std::memory_order_relaxed));
  }

  /// The one point-feed path under every feed above except
  /// FeedStampedLate: latches `mode` (kSequence or kTime), then enqueues
  /// `chunk` as-is — no copy; the pipeline's tap journals it. A kTime
  /// chunk carries one stamp per point, a kSequence chunk none
  /// (checked). An owning chunk (IngestPool::Chunk::Owning, or a Slice
  /// of one) keeps its arrays alive itself; a borrowed one must stay
  /// valid until the next Drain() returns.
  void FeedChunk(StampMode mode, IngestPool::Chunk chunk);

  /// The stamp of the most recently fed point — the global position of
  /// the stream's last point in sequence mode, the last explicit stamp in
  /// time mode; -1 before any feeding.
  int64_t now() const;

  /// Deterministic merged window view: the union of all shards' accepted
  /// groups across levels (no rate unification), deduped latest-wins.
  /// Requires a quiescent pipeline. At rate 1 every reported item is the
  /// true latest window point of a live group of the union stream.
  std::vector<SampleItem> MergedWindowItems(int64_t now);

  /// The merged rate-unified candidate pool behind Sample: every shard's
  /// query pool unified to the *global* deepest non-empty level across
  /// shards (each shard's groups then enter at one common rate
  /// 1/R_c_global; without the cross-shard unification a shard whose own
  /// hierarchy is shallower would over-contribute by its rate gap), then
  /// deduped α-proximity latest-wins so each underlying group keeps at
  /// most one entry. Requires a quiescent pipeline. Exposed for tests
  /// and for callers that want the pool rather than one draw.
  std::vector<SampleItem> UnifiedQueryPool(int64_t query_now,
                                           Xoshiro256pp* rng);

  /// A robust ℓ0-sample of the union window at time `query_now`: a
  /// uniform draw from UnifiedQueryPool. Requires a quiescent pipeline.
  /// nullopt iff the window is empty.
  ///
  /// Uniformity caveat: the cross-shard dedupe keeps one entry per
  /// group, and the global-level unification gives every shard's groups
  /// one common selection rate — but below rate 1 a group whose window
  /// points span k residue classes still gets k independent chances to
  /// enter the pool (up to S-fold over-inclusion *in probability*), the
  /// same graceful Θ(1)-per-group degradation regime as Theorem 3.1 and
  /// RobustL0SamplerIW::AbsorbFrom. Exact at rate 1; with one lane this
  /// is exactly the pointwise sampler's draw.
  std::optional<SampleItem> Sample(int64_t query_now, Xoshiro256pp* rng);

  /// Sample at the stamp of the most recently fed point.
  std::optional<SampleItem> SampleLatest(Xoshiro256pp* rng);

  /// As Sample, but safe concurrently with ongoing feeding: pauses the
  /// workers between chunks and queries each shard at its own processed
  /// prefix (shard-local latest stamp), so no shard's state is disturbed
  /// ahead of its stream position. See IngestPool::QuiescedRun's caveat:
  /// do not call the feed-side APIs from the same thread while it runs.
  std::optional<SampleItem> SampleQuiesced(Xoshiro256pp* rng);

  /// Runs `fn` with every worker paused between chunks (checkpointing a
  /// shard with SnapshotSamplerSW while the stream flows). `fn` must not
  /// call this pool's feed-side APIs (deadlock caveat above).
  using LanePool::QuiescedRun;

  /// Durability tap on the feed path (core/checkpoint.h): the
  /// pipeline's tap (IngestPool::SetTap). Every fed chunk is reported to
  /// the sink *before* it enters the lanes, together with the global
  /// index of its first point; watermark broadcasts are reported as empty
  /// chunks with `watermark` non-null. The sink runs inside the feed lock
  /// that assigns index bases, so the journal is a faithful prefix-closed
  /// record of the fed stream. Sequence-mode chunks arrive with an empty
  /// `stamps` span — the lane sinks' shape. The sink runs on the feeding
  /// thread — keep it cheap and do not call back into the pool.
  using JournalSink = IngestPool::Sink;

  /// Installs (or clears, with nullptr) the journal sink.
  void SetJournalSink(JournalSink sink) {
    pipeline_->SetTap(std::move(sink));
  }

 private:
  // Checkpoint/recovery (core/checkpoint.cc) snapshots the private
  // header fields (mode, counters, reorder frontier) and rebuilds a pool
  // around restored shards via the private constructor.
  friend void AppendPoolHeader(ShardedSwSamplerPool* pool,
                               uint64_t journal_seq, std::string* out);
  friend Result<ShardedSwSamplerPool> RecoverPool(
      const std::string& checkpoint, const std::string& journal,
      const IngestPool::Options& pipeline_options);
  // The sliding-window F0 estimator runs its differently seeded copies as
  // broadcast lanes of a pool.
  friend class F0EstimatorSW;

  /// Builds the pipeline around pre-built samplers and the reorder
  /// front end around `allowed_lateness`; `broadcast` as in LanePool's
  /// constructor.
  ShardedSwSamplerPool(std::vector<RobustL0SamplerSW> shards, int64_t window,
                       int64_t allowed_lateness,
                       const IngestPool::Options& pipeline_options,
                       bool broadcast = false);

  /// Latches the pool's stamp mode (atomic; safe from concurrent
  /// producers) and CHECK-fails on a mode mix.
  void LatchMode(StampMode mode);
  /// Streams the reorder stage's staged releases into the pipeline and
  /// broadcasts its advanced watermark. The caller holds the front end's
  /// mutex (compiler-checked via the parameter-based capability).
  void PumpReorderLocked(ReorderFrontEnd* fe) RL0_REQUIRES(fe->mu);
  /// In-place α-proximity dedup, keeping the item with the larger stream
  /// index per group; preserves first-seen order (single-shard pools pass
  /// through untouched, matching the pointwise sampler bit-for-bit).
  void DedupeLatestWins(std::vector<SampleItem>* items) const;
  /// Shared body of UnifiedQueryPool/SampleQuiesced: pools every shard at
  /// `now_of(shard)` unified to the global deepest level, then dedupes.
  template <typename NowOf>
  std::vector<SampleItem> BuildUnifiedPool(NowOf now_of, Xoshiro256pp* rng);
  /// Feed/FeedBorrowed/ConsumeParallel: a sequence chunk.
  void FeedSequence(IngestPool::Chunk chunk) override;

  int64_t window_;
  /// Heap-allocated so the pool stays movable.
  std::unique_ptr<std::atomic<uint8_t>> mode_;
  /// Bounded-lateness front end of FeedStampedLate: the reorder stage
  /// and watermark memory grouped with the mutex that serializes the
  /// late path — the Offer → release → watermark sequence must hit the
  /// pipeline in one piece per producer, or two producers could
  /// interleave a release with a stale watermark. Taken before the
  /// pipeline's feed lock. Heap-allocated so the pool stays movable.
  std::unique_ptr<ReorderFrontEnd> reorder_fe_;
};

}  // namespace rl0

#endif  // RL0_CORE_SHARDED_POOL_H_
