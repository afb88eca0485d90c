#include "rl0/core/ingest_pool.h"

#include <utility>

#include "rl0/core/worker_fleet.h"
#include "rl0/util/check.h"

namespace rl0 {

IngestPool::Chunk IngestPool::Chunk::Owning(std::vector<Point> points,
                                            std::vector<int64_t> stamps) {
  struct Storage {
    std::vector<Point> points;
    std::vector<int64_t> stamps;
  };
  auto storage =
      std::make_shared<const Storage>(Storage{std::move(points),
                                              std::move(stamps)});
  Chunk chunk;
  chunk.points = Span<const Point>(storage->points);
  chunk.stamps = Span<const int64_t>(storage->stamps);
  chunk.owner = std::move(storage);
  return chunk;
}

IngestPool::Chunk IngestPool::Chunk::Slice(size_t begin, size_t end) const {
  Chunk slice;
  slice.points = points.subspan(begin, end - begin);
  slice.stamps = stamps.subspan(begin, end - begin);  // empty stays empty
  slice.owner = owner;
  return slice;
}

IngestPool::IngestPool(std::vector<Sink> sinks, const Options& options)
    : fleet_(options.fleet), fed_(options.index_base) {
  RL0_CHECK(!sinks.empty());
  const size_t queue_capacity =
      options.queue_capacity < 1 ? 1 : options.queue_capacity;
  lanes_.reserve(sinks.size());
  for (Sink& sink : sinks) {
    lanes_.push_back(std::make_unique<Lane>(queue_capacity, std::move(sink)));
  }
  if (fleet_ != nullptr) {
    for (std::unique_ptr<Lane>& lane : lanes_) {
      lane->fleet_id = fleet_->Register(
          [this, raw = lane.get()] { return RunLaneOnce(raw); });
    }
  }
}

IngestPool::~IngestPool() { Stop(); }

void IngestPool::ProcessChunk(Lane* lane, Item item) {
  {
    MutexLock proc(&lane->proc_mu);
    lane->sink(item.chunk.points, item.chunk.stamps, item.index_base,
               item.watermark ? &*item.watermark : nullptr);
  }
  item.chunk.owner.reset();  // release chunk storage before signalling
  {
    MutexLock done(&lane->done_mu);
    ++lane->completed;
  }
  lane->done_cv.NotifyAll();
}

void IngestPool::WorkerLoop(Lane* lane) {
  Item item;
  while (lane->queue.Pop(&item)) {
    ProcessChunk(lane, std::move(item));
  }
}

bool IngestPool::RunLaneOnce(Lane* lane) {
  Item item;
  if (!lane->queue.TryPop(&item)) return false;
  ProcessChunk(lane, std::move(item));
  return true;
}

void IngestPool::Enqueue(Item item) {
  // One critical section assigns the index base, taps the chunk AND
  // enqueues everywhere: every lane (and the tap) sees the same chunk
  // order, and bases are dense and unique even under concurrent
  // producers. Push may block here (backpressure); that also throttles
  // other producers, which is the intent — the workers drain the queues
  // without ever taking feed_mu_, so the pool always makes progress.
  MutexLock lock(&feed_mu_);
  if (stopped_) return;
  const Span<const int64_t> stamps = item.chunk.stamps;
  if (item.watermark) {
    // A watermark announces "no stamped point below this will ever be
    // fed" — regressing the pool's stamp watermark would falsify the
    // announcements already broadcast.
    RL0_CHECK(!stamp_watermark_set_ || *item.watermark >= latest_stamp_);
    latest_stamp_ = *item.watermark;
    stamp_watermark_set_ = true;
  } else if (!stamps.empty()) {
    // Stamped chunks ride the same critical section, so the stamp
    // sequence is monotone in enqueue order — the time-based analogue of
    // the index-base contract. A violation means the producer handed the
    // pool out-of-order time; fail loudly rather than corrupt every
    // lane's expiry schedule. (Intra-chunk monotonicity was already
    // scanned outside this lock, so only the O(1) cross-chunk check and
    // watermark update serialize the producers.)
    RL0_CHECK(!stamp_watermark_set_ || stamps[0] >= latest_stamp_);
    latest_stamp_ = stamps[stamps.size() - 1];
    stamp_watermark_set_ = true;
  }
  if (fleet_ == nullptr && !workers_started_) {
    for (std::unique_ptr<Lane>& lane : lanes_) {
      lane->worker =
          std::thread([this, raw = lane.get()] { WorkerLoop(raw); });
    }
    workers_started_ = true;
  }
  item.index_base = fed_;
  fed_ += item.chunk.points.size();
  ++chunks_fed_;
  if (tap_) {
    tap_(item.chunk.points, item.chunk.stamps, item.index_base,
         item.watermark ? &*item.watermark : nullptr);
  }
  for (std::unique_ptr<Lane>& lane : lanes_) {
    lane->queue.Push(item);
    // Fleet mode: wake a shared worker for this lane right after its
    // push, so an earlier lane progresses even while a later lane's
    // full queue blocks the loop.
    if (fleet_ != nullptr) fleet_->Notify(lane->fleet_id);
  }
}

void IngestPool::Feed(Chunk chunk) {
  if (chunk.points.empty()) return;
  if (!chunk.stamps.empty()) {
    RL0_CHECK(chunk.stamps.size() == chunk.points.size());
    // Intra-chunk validation runs before the feed lock is taken (the
    // scan is O(chunk); only the cross-chunk check needs the lock).
    for (size_t i = 1; i < chunk.stamps.size(); ++i) {
      RL0_CHECK(chunk.stamps[i] >= chunk.stamps[i - 1]);
    }
  }
  Item item;
  item.chunk = std::move(chunk);
  Enqueue(std::move(item));
}

void IngestPool::FeedWatermark(int64_t watermark) {
  Item item;
  item.watermark = watermark;
  Enqueue(std::move(item));
}

void IngestPool::Drain() {
  uint64_t target;
  {
    MutexLock lock(&feed_mu_);
    target = chunks_fed_;
  }
  for (std::unique_ptr<Lane>& lane : lanes_) {
    MutexLock done(&lane->done_mu);
    while (lane->completed < target) lane->done_cv.Wait(&lane->done_mu);
  }
}

void IngestPool::QuiescedRun(const std::function<void()>& fn) {
  // Lock every lane's processing mutex, always in lane order (workers
  // only ever hold their own, so this cannot deadlock). With all of them
  // held, every worker sits between chunks and lane state is stable. The
  // lock set's size is only known at runtime, so this is the one place
  // that needs MutexLockSet's analysis escape (see util/sync.h).
  MutexLockSet paused;
  for (std::unique_ptr<Lane>& lane : lanes_) {
    paused.Lock(&lane->proc_mu);
  }
  fn();
}

void IngestPool::Stop() {
  {
    MutexLock lock(&feed_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Close() leaves queued chunks poppable: workers finish the backlog,
  // then their Pop returns false and the loop exits.
  for (std::unique_ptr<Lane>& lane : lanes_) {
    lane->queue.Close();
  }
  if (fleet_ != nullptr) {
    // Fleet mode: finish the backlog (every queued chunk was Notify'd,
    // so the fleet drains it), then withdraw the lanes. Deregister
    // blocks until a lane's in-flight run ends, so after this loop the
    // fleet never touches this pool again.
    Drain();
    for (std::unique_ptr<Lane>& lane : lanes_) {
      fleet_->Deregister(lane->fleet_id);
    }
    return;
  }
  // With stopped_ set no Enqueue can start workers any more, so reading
  // them here is ordered after their start by feed_mu_.
  for (std::unique_ptr<Lane>& lane : lanes_) {
    if (lane->worker.joinable()) lane->worker.join();
  }
}

void IngestPool::SetTap(Sink tap) {
  MutexLock lock(&feed_mu_);
  tap_ = std::move(tap);
}

void IngestPool::NoteStamp(int64_t stamp) {
  MutexLock lock(&feed_mu_);
  if (!stamp_watermark_set_ || stamp > latest_stamp_) {
    latest_stamp_ = stamp;
  }
  stamp_watermark_set_ = true;
}

int64_t IngestPool::latest_stamp() const {
  MutexLock lock(&feed_mu_);
  return stamp_watermark_set_ ? latest_stamp_ : -1;
}

uint64_t IngestPool::points_fed() const {
  MutexLock lock(&feed_mu_);
  return fed_;
}

}  // namespace rl0
