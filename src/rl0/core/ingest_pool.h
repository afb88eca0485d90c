// Persistent worker-pool ingestion pipeline.
//
// PR 1 made batch ingestion fast inside one sampler; this is the layer
// that keeps many samplers fed from a live stream. An IngestPool owns one
// long-lived worker thread per *lane* (a lane is one shard of a sharded
// pool, or one copy of an F0 estimator). Producers hand the pool stream
// chunks via Feed; every chunk is stamped with its global stream index
// base and broadcast to each lane's bounded queue, where the lane's
// worker consumes it through a caller-supplied sink (for sharded
// ingestion, the strided walk of the lane's residue class). Thread
// startup is paid once per pool, on the first fed chunk — a pool that is
// never fed spawns no threads — and chunks pipeline through the lanes
// instead of barriering at every call.
//
// One chunk shape: points, optional per-point stamps (empty = a sequence
// chunk, whose stamps are its global stream positions) and an optional
// shared owner (null = borrowed: the caller keeps the arrays valid until
// the next Drain() returns). One sink shape, shared with the journal tap
// (SetTap): (points, stamps, index_base, watermark).
//
// Determinism contract: chunk index bases are assigned atomically with
// enqueue order under one feed lock, so every lane observes the same
// chunk sequence and every point carries the same global stream index no
// matter how many producers feed or how the scheduler runs the lanes.
// Sinks that partition by *global* index (see ShardedSamplerPool::Feed)
// therefore process bit-identical per-lane streams for any chunking.
// Stamps ride the same critical section: they must be non-decreasing
// within a chunk (scanned before the feed lock is taken) and across
// chunks in enqueue order (the O(1) watermark check under the feed lock);
// a violation is a programming error and CHECK-fails. The optional tap
// (SetTap) runs in that critical section too, right after a chunk's
// index base is assigned: tap order is index-base order by
// construction, which is what makes a journal written from it a
// faithful, prefix-closed record of the fed stream.
//
// Backpressure: each lane queue holds at most Options::queue_capacity
// chunks; Feed blocks while any lane is full, so a slow lane throttles
// the producers instead of queueing unboundedly.
//
// Barriers: Drain() blocks until everything fed *before the call* has
// been consumed by every lane — after it returns (and with no concurrent
// feeders), lane state may be read directly. QuiescedRun(fn) runs fn
// while every worker is paused between chunks, which is what makes
// merge/snapshot safe *concurrently* with ongoing feeding.
//
// Watermark chunks (bounded-lateness ingestion): FeedWatermark
// broadcasts a point-free control chunk announcing that event time has
// progressed to `watermark` — no stamped point below it will ever be
// fed again. Sinks see it as a call with a non-null `watermark` and no
// points (typically RobustL0SamplerSW::NoteWatermark), letting a lane
// whose residue class saw no recent points still advance its notion of
// event time (the empty-lane watermark stall). Watermark chunks ride the
// ordinary chunk sequence: they raise the pool's stamp watermark, count
// toward Drain's completion target, and never consume stream indices.
//
// Fleet mode (multi-tenant hosting): Options::fleet replaces the
// dedicated per-lane threads with membership in a shared WorkerFleet
// (core/worker_fleet.h) — many pools, one fixed thread set, fair
// round-robin service across every registered lane. All contracts above
// (index-base determinism, backpressure, Drain, QuiescedRun) hold
// identically; a lane is still consumed in order by one worker at a
// time. A fed chunk wakes all its lanes with one WorkerFleet::Notify
// (more only when a full lane queue blocks the producer). The fleet
// must outlive the pool (Stop deregisters the lanes).

#ifndef RL0_CORE_INGEST_POOL_H_
#define RL0_CORE_INGEST_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "rl0/geom/point.h"
#include "rl0/util/bounded_queue.h"
#include "rl0/util/span.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {

class WorkerFleet;

/// A pool of persistent worker threads feeding per-lane samplers from a
/// shared chunked stream.
class IngestPool {
 public:
  /// One stream chunk (see the file comment).
  struct Chunk {
    Span<const Point> points;
    /// Empty for a sequence chunk; else aligned with `points`.
    Span<const int64_t> stamps = {};
    /// Keeps both arrays alive while lanes read them; null = borrowed.
    std::shared_ptr<const void> owner = nullptr;

    /// A chunk that owns `points` and `stamps` (adopted, not copied).
    static Chunk Owning(std::vector<Point> points,
                        std::vector<int64_t> stamps = {});

    /// Points [begin, end), with their stamps when present, sharing this
    /// chunk's owner (no copy).
    Chunk Slice(size_t begin, size_t end) const;
  };

  /// Consumes one chunk on a lane's worker thread: `points[i]` has global
  /// stream position `index_base + i` and stamp `stamps[i]` (empty stamps:
  /// a sequence chunk). A non-null `watermark` marks a watermark chunk
  /// (no points; see FeedWatermark).
  using Sink = std::function<void(Span<const Point> points,
                                  Span<const int64_t> stamps,
                                  uint64_t index_base,
                                  const int64_t* watermark)>;

  struct Options {
    /// Chunks buffered per lane before Feed blocks (backpressure window).
    size_t queue_capacity = 4;
    /// Global index of the first point fed through this pool (continues a
    /// stream restored from a checkpoint).
    uint64_t index_base = 0;
    /// When non-null, lanes are serviced by this shared fleet instead of
    /// dedicated per-lane threads (multi-tenant hosting; see the file
    /// comment). The fleet must outlive the pool.
    WorkerFleet* fleet = nullptr;
  };

  /// One lane per sink; dedicated workers start on the first fed chunk.
  /// Requires at least one sink.
  IngestPool(std::vector<Sink> sinks, const Options& options);

  /// Stops the pipeline (drains queued chunks, joins workers).
  ~IngestPool();

  IngestPool(const IngestPool&) = delete;
  IngestPool& operator=(const IngestPool&) = delete;

  /// Enqueues `chunk` for every lane. Safe from any thread; blocks while
  /// a lane queue is full. No-op on a chunk without points. Stamps, when
  /// present, must be non-decreasing and start at or after the pool's
  /// stamp watermark.
  void Feed(Chunk chunk);

  /// Broadcasts a watermark control chunk: every lane's sink observes
  /// `watermark` after the chunks fed before this call. Must not regress
  /// the pool's stamp watermark, and stamped chunks fed afterwards must
  /// start at or after it (the standard cross-chunk stamp check covers
  /// this). Raises the pool's stamp watermark like NoteStamp; consumes no
  /// stream indices.
  void FeedWatermark(int64_t watermark);

  /// Blocks until every chunk fed before this call has been consumed by
  /// every lane. Safe from any thread, including concurrently with Feed
  /// (chunks fed after the call may still be in flight when it returns).
  void Drain();

  /// Runs `fn` while every worker is paused between chunks. Each lane has
  /// consumed a prefix of the fed chunk sequence (lanes may be at
  /// different prefixes); combine with a preceding Drain for a barrier on
  /// everything fed so far. Safe concurrently with Feed. `fn` must only
  /// READ lane state — in particular it must not call Feed, Drain or
  /// points_fed on this pool: with the workers paused, a backpressured
  /// producer can be blocked holding the feed lock, and taking it from
  /// `fn` would deadlock.
  void QuiescedRun(const std::function<void()>& fn);

  /// Drains, closes the queues and joins the workers. Idempotent; called
  /// by the destructor. After Stop the pool no longer accepts Feeds.
  void Stop();

  /// Installs (or clears, with nullptr) the tap: called with every fed
  /// chunk — watermark chunks included — on the feeding thread, under the
  /// feed lock, after the chunk's index base is assigned and before any
  /// lane sees it. The tap must be cheap and must not call back into the
  /// pool (the feed lock is held).
  void SetTap(Sink tap) RL0_EXCLUDES(feed_mu_);

  /// Raises the stamp watermark to `stamp` (no-op if already past it) —
  /// restores the watermark of a stream recovered from a checkpoint.
  void NoteStamp(int64_t stamp);

  /// The stamp of the most recently fed stamped point (or noted via
  /// NoteStamp); -1 before any stamped feeding.
  int64_t latest_stamp() const;

  /// Points fed so far (plus Options::index_base).
  uint64_t points_fed() const;

  /// Number of lanes.
  size_t num_lanes() const { return lanes_.size(); }

 private:
  /// A chunk as queued on every lane.
  struct Item {
    Chunk chunk;
    uint64_t index_base = 0;
    /// Set for a watermark chunk (no points).
    std::optional<int64_t> watermark;
  };

  struct Lane {
    Lane(size_t queue_capacity, Sink lane_sink)
        : queue(queue_capacity), sink(std::move(lane_sink)) {}

    BoundedQueue<Item> queue;
    Sink sink;
    /// Dedicated worker (default mode; unused in fleet mode). Started by
    /// the first fed chunk under feed_mu_.
    std::thread worker;
    /// Held by the worker while a chunk is inside the sink (QuiescedRun
    /// acquires all lanes' mutexes — via MutexLockSet — to pause the
    /// pool between chunks).
    Mutex proc_mu;
    /// Guards `completed`; signalled after every consumed chunk.
    Mutex done_mu;
    CondVar done_cv;
    uint64_t completed RL0_GUARDED_BY(done_mu) = 0;
  };

  void Enqueue(Item item) RL0_EXCLUDES(feed_mu_);
  void WorkerLoop(Lane* lane);
  /// Runs one queued chunk through `lane`'s sink (shared by both worker
  /// modes; holds proc_mu across the sink and signals done_cv).
  void ProcessChunk(Lane* lane, Item item);
  /// Fleet-mode work callback: consume at most one queued chunk.
  bool RunLaneOnce(Lane* lane);

  /// The shared fleet servicing the lanes (null = dedicated threads).
  WorkerFleet* fleet_ = nullptr;
  /// Serializes index-base assignment with enqueue order (the determinism
  /// contract) and guards the feed-side counters below.
  mutable Mutex feed_mu_;
  uint64_t fed_ RL0_GUARDED_BY(feed_mu_) = 0;
  uint64_t chunks_fed_ RL0_GUARDED_BY(feed_mu_) = 0;
  /// Stamp watermark for stamped chunks; -1 until the first stamped feed
  /// (or NoteStamp). Monotonicity across chunks is only enforced once
  /// the watermark exists, so negative initial stamps stay legal.
  int64_t latest_stamp_ RL0_GUARDED_BY(feed_mu_) = -1;
  bool stamp_watermark_set_ RL0_GUARDED_BY(feed_mu_) = false;
  bool workers_started_ RL0_GUARDED_BY(feed_mu_) = false;
  bool stopped_ RL0_GUARDED_BY(feed_mu_) = false;
  /// The installed tap (see SetTap); empty by default.
  Sink tap_ RL0_GUARDED_BY(feed_mu_);
  /// Stable addresses: workers hold Lane* across the pool's lifetime.
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// The lanes' fleet member ids, in lane order (empty in dedicated
  /// mode); immutable after construction.
  std::vector<uint64_t> fleet_ids_;
};

}  // namespace rl0

#endif  // RL0_CORE_INGEST_POOL_H_
