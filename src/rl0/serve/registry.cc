#include "rl0/serve/registry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>

namespace rl0 {
namespace serve {

namespace {

const char* ModeName(TenantMode mode) {
  switch (mode) {
    case TenantMode::kSequence:
      return "seq";
    case TenantMode::kTime:
      return "time";
    case TenantMode::kLate:
      return "late";
  }
  return "?";
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kDigest:
      return "digest";
    case QueryKind::kF0:
      return "f0";
    case QueryKind::kChurn:
      return "churn";
  }
  return "?";
}

std::string F0Data(const CvmEstimator& cvm) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "DATA f0_exact=%.6g observed=%" PRIu64,
                cvm.Estimate(), cvm.observed());
  return buf;
}

/// Smallest multiple of `every` (> 0) strictly greater than `position`,
/// computed arithmetically so a stream that leaps far ahead (epoch-ns
/// stamps with a small cadence) costs O(1), not O(gap/every). Saturates
/// at INT64_MAX instead of overflowing: a saturated trigger simply
/// never fires again.
int64_t NextFireAfter(int64_t position, int64_t every) {
  int64_t k = position / every;
  // Truncating division rounds toward zero; for negative non-multiples
  // that already lands one multiple past `position`.
  if (position >= 0 || position % every == 0) ++k;
  if (k > 0 && k > std::numeric_limits<int64_t>::max() / every) {
    return std::numeric_limits<int64_t>::max();
  }
  return k * every;
}

/// The first CREATE setting a recovered pool disagrees with, or null.
/// Routing and query seeding follow the CREATE line, so a line that
/// contradicts the checkpoint would feed the restored samplers points
/// of another shape or mode.
const char* RecoveredMismatch(const CreateParams& params,
                              const ShardedSwSamplerPool& pool) {
  const SamplerOptions& opts = pool.shard(0).options();
  if (opts.dim != params.dim) return "dim";
  if (opts.alpha != params.alpha) return "alpha";
  if (opts.metric != params.metric) return "metric";
  if (opts.seed != params.seed) return "seed";
  if (opts.expected_stream_length != params.expected_m) return "m";
  if (opts.k != params.k) return "k";
  if (opts.random_representative != params.reservoir) return "reservoir";
  if (pool.window() != params.window) return "window";
  if (pool.num_shards() != params.shards) return "shards";
  const ShardedSwSamplerPool::StampMode mode = pool.stamp_mode();
  if (mode != ShardedSwSamplerPool::StampMode::kUnset &&
      (mode == ShardedSwSamplerPool::StampMode::kSequence) !=
          (params.mode == TenantMode::kSequence)) {
    return "mode";
  }
  if (params.mode == TenantMode::kLate &&
      pool.allowed_lateness() != params.lateness) {
    return "lateness";
  }
  return nullptr;
}

}  // namespace

TenantRegistry::Tenant::Tenant(std::string tenant_name,
                               const CreateParams& tenant_params,
                               size_t cvm_capacity)
    : name(std::move(tenant_name)),
      params(tenant_params),
      cvm(cvm_capacity, tenant_params.seed) {}

TenantRegistry::TenantRegistry(const Options& options)
    : fleet_(options.fleet_threads),
      checkpoint_root_(options.checkpoint_root),
      cvm_capacity_(options.cvm_capacity) {}

TenantRegistry::~TenantRegistry() { CloseAll(); }

std::shared_ptr<TenantRegistry::Tenant> TenantRegistry::Find(
    const std::string& name) {
  MutexLock lock(&mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

Status TenantRegistry::Create(const std::string& name,
                              const CreateParams& params) {
  if (!ValidTenantName(name)) {
    return Status::InvalidArgument("bad tenant name");
  }
  if (params.checkpoint && checkpoint_root_.empty()) {
    return Status::FailedPrecondition(
        "server started without a checkpoint root (ckpt=1 unavailable)");
  }
  {
    MutexLock lock(&mu_);
    if (tenants_.count(name) != 0 || !creating_.insert(name).second) {
      return Status::FailedPrecondition("tenant '" + name +
                                        "' already exists");
    }
  }
  const Status status = BuildAndRegister(name, params);
  MutexLock lock(&mu_);
  creating_.erase(name);
  return status;
}

Status TenantRegistry::BuildAndRegister(const std::string& name,
                                        const CreateParams& params) {
  SamplerOptions opts;
  opts.dim = params.dim;
  opts.alpha = params.alpha;
  opts.metric = params.metric;
  opts.seed = params.seed;
  opts.k = params.k;
  opts.random_representative = params.reservoir;
  opts.expected_stream_length = params.expected_m;
  if (params.mode == TenantMode::kLate) {
    opts.allowed_lateness = params.lateness;
  }
  IngestPool::Options pipe;
  pipe.fleet = &fleet_;

  auto tenant = std::make_shared<Tenant>(name, params, cvm_capacity_);
  const std::string dir =
      params.checkpoint ? checkpoint_root_ + "/" + name : std::string();
  LoadedChain chain;
  if (params.recover) {
    auto loaded = LoadCheckpointChain(dir);
    if (!loaded.ok()) return loaded.status();
    chain = std::move(loaded).value();
    auto recovered = RecoverPool(chain.checkpoint, chain.journal, pipe);
    if (!recovered.ok()) return recovered.status();
    if (const char* field = RecoveredMismatch(params, recovered.value())) {
      return Status::InvalidArgument(std::string("recover=1: ") + field +
                                     " differs from the checkpoint");
    }
    tenant->pool = std::make_unique<ShardedSwSamplerPool>(
        std::move(recovered).value());
    if (tenant->pool->now() >= 0 && params.mode != TenantMode::kSequence) {
      tenant->last_stamp = tenant->pool->now();
      tenant->last_stamp_set = true;
    }
  } else {
    auto pool = ShardedSwSamplerPool::Create(opts, params.window,
                                             params.shards, pipe);
    if (!pool.ok()) return pool.status();
    tenant->pool =
        std::make_unique<ShardedSwSamplerPool>(std::move(pool).value());
  }
  if (params.checkpoint) {
    auto ckpt = PoolCheckpointer::Open(tenant->pool.get(), dir,
                                       params.checkpoint_every, params.dim,
                                       params.recover ? &chain : nullptr);
    if (!ckpt.ok()) return ckpt.status();
    tenant->ckpt = std::move(ckpt).value();
  }

  MutexLock lock(&mu_);
  // The creating_ reservation guarantees no rival insert of this name.
  tenants_.emplace(name, std::move(tenant));
  return Status::OK();
}

int64_t TenantRegistry::NextTrigger(const Tenant* t) {
  int64_t next = std::numeric_limits<int64_t>::max();
  for (const auto& sub : t->subs) {
    next = std::min(next, sub->next_fire);
  }
  return next;
}

void TenantRegistry::FeedSlice(Tenant* t, const IngestPool::Chunk& batch,
                               size_t begin, size_t end) {
  if (begin >= end) return;
  IngestPool::Chunk slice = batch.Slice(begin, end);
  switch (t->params.mode) {
    case TenantMode::kSequence:
      t->pool->FeedChunk(ShardedSwSamplerPool::StampMode::kSequence,
                         std::move(slice));
      break;
    case TenantMode::kTime:
      t->pool->FeedChunk(ShardedSwSamplerPool::StampMode::kTime,
                         std::move(slice));
      break;
    case TenantMode::kLate:
      // The reorder stage copies what it buffers.
      t->pool->FeedStampedLate(slice.points, slice.stamps);
      break;
  }
}

void TenantRegistry::FireSubscription(Tenant* t, Subscription* sub,
                                      int64_t position) {
  std::string block;
  char head[160];
  std::snprintf(head, sizeof(head), "EVENT %s %" PRIu64 " %s at=%lld\n",
                t->name.c_str(), sub->id, KindName(sub->kind),
                static_cast<long long>(position));
  switch (sub->kind) {
    case QueryKind::kDigest: {
      block = head;
      for (int q = 0; q < sub->queries; ++q) {
        const auto sample = t->pool->SampleLatest(&sub->rng);
        if (sample.has_value()) {
          block += "ITEM " +
                   FormatSampleLine(sample->point, sample->stream_index) +
                   "\n";
        } else {
          block += "ITEM none\n";
        }
      }
      block += "END\n";
      break;
    }
    case QueryKind::kF0:
      block = std::string(head) + F0Data(t->cvm) + "\nEND\n";
      break;
    case QueryKind::kChurn: {
      const double est = t->cvm.Estimate();
      if (!sub->baseline_set) {
        // First evaluation seeds the baseline silently; alerts measure
        // drift from the last *alerted* level, so slow cumulative drift
        // still trips eventually.
        sub->baseline = est;
        sub->baseline_set = true;
        return;
      }
      const double base = std::max(sub->baseline, 1.0);
      const double change = (est - sub->baseline) / base;
      if (change < sub->threshold && -change < sub->threshold) return;
      char data[160];
      std::snprintf(data, sizeof(data),
                    "DATA f0_exact=%.6g baseline=%.6g change=%.4f\n", est,
                    sub->baseline, change);
      sub->baseline = est;
      block = std::string(head) + data + "END\n";
      break;
    }
  }
  if (!sub->sink(block)) {
    sub->sink = nullptr;  // subscriber gone; FireDue erases it
  }
}

void TenantRegistry::FireDue(Tenant* t, int64_t position) {
  bool drained = false;
  for (auto& sub : t->subs) {
    if (sub->next_fire > position) continue;
    if (!drained) {
      // Digest draws and churn estimates must see everything fed up to
      // the trigger position.
      t->pool->Drain();
      drained = true;
    }
    // `position` is the subscription's trigger clock (a fed count in
    // sequence mode); the event labels itself with the pool's *stamp*
    // clock, which at this point is the crossing point's position stamp
    // in every mode.
    FireSubscription(t, sub.get(), t->pool->now());
    // One fire per crossing: jump straight past every boundary the
    // stream skipped in a single batch.
    sub->next_fire = NextFireAfter(position, sub->every);
  }
  t->subs.erase(
      std::remove_if(t->subs.begin(), t->subs.end(),
                     [](const std::unique_ptr<Subscription>& sub) {
                       return sub->sink == nullptr;
                     }),
      t->subs.end());
}

Status TenantRegistry::Feed(const std::string& name,
                            std::vector<Point> points) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  Tenant* t = tenant.get();
  MutexLock lock(&t->mu);
  if (t->params.mode != TenantMode::kSequence) {
    return Status::FailedPrecondition("tenant '" + name +
                                      "' is stamped; use FEEDSTAMPED");
  }
  if (!points.empty() && points[0].dim() != t->params.dim) {
    return Status::InvalidArgument("wrong dimension for tenant '" + name +
                                   "'");
  }
  for (const Point& p : points) t->cvm.AddPoint(p);
  // The lanes read the parsed points in place: every slice below shares
  // this one owner.
  const IngestPool::Chunk batch = IngestPool::Chunk::Owning(std::move(points));
  const size_t size = batch.points.size();
  // Feed in slices that end exactly at trigger boundaries, so each
  // standing query evaluates the window at its crossing point. Position
  // stamps in sequence mode are 0-based, so the trigger at count C
  // evaluates at now = C-1.
  size_t offset = 0;
  while (offset < size) {
    const int64_t fed = static_cast<int64_t>(t->pool->points_fed());
    const int64_t limit = fed + static_cast<int64_t>(size - offset);
    int64_t boundary = limit;
    const int64_t next = NextTrigger(t);
    if (next > fed && next < limit) boundary = next;
    const size_t len = static_cast<size_t>(boundary - fed);
    FeedSlice(t, batch, offset, offset + len);
    offset += len;
    FireDue(t, boundary);
  }
  if (t->ckpt != nullptr) return t->ckpt->MaybeCut();
  return Status::OK();
}

Status TenantRegistry::FeedStamped(const std::string& name,
                                   std::vector<Point> points,
                                   std::vector<int64_t> stamps) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  Tenant* t = tenant.get();
  MutexLock lock(&t->mu);
  if (t->params.mode == TenantMode::kSequence) {
    return Status::FailedPrecondition("tenant '" + name +
                                      "' is sequence-mode; use FEED");
  }
  if (!points.empty() && points[0].dim() != t->params.dim) {
    return Status::InvalidArgument("wrong dimension for tenant '" + name +
                                   "'");
  }
  if (points.empty()) return Status::OK();
  if (t->params.mode == TenantMode::kTime) {
    // The pool CHECK-fails (by design) on stamp regression; a protocol
    // peer must get an error instead of crashing the server. Guard both
    // across batches and within this one.
    int64_t prev = t->last_stamp_set
                       ? t->last_stamp
                       : std::numeric_limits<int64_t>::min();
    for (const int64_t stamp : stamps) {
      if (stamp < prev) {
        return Status::InvalidArgument(
            "stamp regression: stamps must be non-decreasing in time "
            "mode (use mode=late for out-of-order streams)");
      }
      prev = stamp;
    }
  }
  for (const Point& p : points) t->cvm.AddPoint(p);
  // One owner for the parsed points and stamps, shared by every slice.
  const IngestPool::Chunk batch =
      IngestPool::Chunk::Owning(std::move(points), std::move(stamps));
  const size_t size = batch.points.size();

  if (t->params.mode == TenantMode::kLate) {
    // Out-of-order path: the reorder stage owns ordering, so the batch
    // feeds whole and triggers follow the *release frontier*, which is
    // the only clock that never regresses.
    FeedSlice(t, batch, 0, size);
    FireDue(t, t->pool->now());
  } else {
    size_t offset = 0;
    while (offset < size) {
      const int64_t next = NextTrigger(t);
      size_t end = size;
      if (next != std::numeric_limits<int64_t>::max()) {
        // Fire at the first point whose stamp reaches the trigger:
        // include it, evaluate at its stamp.
        for (size_t i = offset; i < size; ++i) {
          if (batch.stamps[i] >= next) {
            end = i + 1;
            break;
          }
        }
      }
      FeedSlice(t, batch, offset, end);
      offset = end;
      FireDue(t, batch.stamps[end - 1]);
    }
  }
  t->last_stamp = batch.stamps[size - 1];
  t->last_stamp_set = true;
  if (t->ckpt != nullptr) return t->ckpt->MaybeCut();
  return Status::OK();
}

Result<std::vector<std::string>> TenantRegistry::Sample(
    const std::string& name, int queries, bool seed_set, uint64_t seed) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  Tenant* t = tenant.get();
  MutexLock lock(&t->mu);
  t->pool->Drain();
  const uint64_t effective = seed_set ? seed : t->params.seed;
  Xoshiro256pp rng(SplitMix64(effective ^ kQuerySeedSalt));
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    const auto sample = t->pool->SampleLatest(&rng);
    if (!sample.has_value()) {
      return Status::FailedPrecondition("window is empty");
    }
    lines.push_back(FormatSampleLine(sample->point, sample->stream_index));
  }
  return lines;
}

Result<std::string> TenantRegistry::F0Line(const std::string& name) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  MutexLock lock(&tenant->mu);
  return F0Data(tenant->cvm);
}

Result<uint64_t> TenantRegistry::Subscribe(const std::string& name,
                                           const Command& cmd,
                                           uint64_t owner, EventSink sink) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  Tenant* t = tenant.get();
  MutexLock lock(&t->mu);
  auto sub = std::make_unique<Subscription>();
  sub->id = t->next_sub_id++;
  sub->kind = cmd.query;
  sub->every = static_cast<int64_t>(cmd.every);
  sub->threshold = cmd.threshold;
  sub->queries = cmd.queries;
  sub->owner = owner;
  sub->sink = std::move(sink);
  const uint64_t sub_seed = cmd.seed_set ? cmd.seed : t->params.seed;
  sub->rng = Xoshiro256pp(SplitMix64(sub_seed ^ kQuerySeedSalt));
  // Fire positions are absolute multiples of `every` on the tenant's
  // clock (fed count or stamp), starting strictly after the present —
  // deterministic regardless of when the subscription arrived.
  const int64_t clock =
      t->params.mode == TenantMode::kSequence
          ? static_cast<int64_t>(t->pool->points_fed())
          : std::max<int64_t>(t->pool->now(), 0);
  sub->next_fire = NextFireAfter(clock, sub->every);
  const uint64_t id = sub->id;
  t->subs.push_back(std::move(sub));
  return id;
}

Status TenantRegistry::Unsubscribe(const std::string& name,
                                   uint64_t sub_id) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  Tenant* t = tenant.get();
  MutexLock lock(&t->mu);
  for (auto it = t->subs.begin(); it != t->subs.end(); ++it) {
    if ((*it)->id == sub_id) {
      t->subs.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no such subscription");
}

Status TenantRegistry::FlushLocked(Tenant* t) {
  if (t->params.mode == TenantMode::kLate) {
    t->pool->FlushLate();
    t->pool->Drain();
    FireDue(t, t->pool->now());
  } else {
    t->pool->Drain();
  }
  if (t->ckpt != nullptr) return t->ckpt->Finish();
  return Status::OK();
}

Status TenantRegistry::Flush(const std::string& name) {
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  MutexLock lock(&tenant->mu);
  return FlushLocked(tenant.get());
}

Status TenantRegistry::Close(const std::string& name) {
  std::shared_ptr<Tenant> tenant;
  {
    MutexLock lock(&mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::NotFound("no tenant '" + name + "'");
    }
    tenant = std::move(it->second);
    tenants_.erase(it);
    // Hold the name until the final cut returns: a CREATE of it would
    // otherwise open the same checkpoint directory while this cut still
    // writes there.
    creating_.insert(name);
  }
  // The map no longer reaches the tenant; in-flight operations holding
  // the shared_ptr finish under t->mu before the state is torn down.
  Status status;
  {
    MutexLock lock(&tenant->mu);
    status = FlushLocked(tenant.get());
    tenant->subs.clear();
    // A feed still holding the shared_ptr must not journal into the
    // directory once the name is free again.
    tenant->ckpt.reset();
  }
  MutexLock lock(&mu_);
  creating_.erase(name);
  return status;
}

Result<std::vector<std::string>> TenantRegistry::StatsLines(
    const std::string& name) {
  std::vector<std::string> lines;
  if (name.empty()) {
    MutexLock lock(&mu_);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "STAT tenants=%zu fleet_threads=%zu fleet_lanes=%zu",
                  tenants_.size(), fleet_.num_threads(),
                  fleet_.lanes_registered());
    lines.emplace_back(buf);
    return lines;
  }
  auto tenant = Find(name);
  if (tenant == nullptr) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  Tenant* t = tenant.get();
  MutexLock lock(&t->mu);
  t->pool->Drain();
  const ReorderStats late = t->pool->late_stats();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "STAT tenant=%s mode=%s shards=%zu window=%lld points=%" PRIu64
      " now=%lld space_words=%zu subs=%zu f0_exact=%.6g f0_observed=%" PRIu64,
      t->name.c_str(), ModeName(t->params.mode), t->pool->num_shards(),
      static_cast<long long>(t->pool->window()), t->pool->points_fed(),
      static_cast<long long>(t->pool->now()), t->pool->SpaceWords(),
      t->subs.size(), t->cvm.Estimate(), t->cvm.observed());
  std::string line = buf;
  if (late.offered != 0) {
    std::snprintf(buf, sizeof(buf),
                  " late_offered=%" PRIu64 " late_released=%" PRIu64
                  " late_dropped=%" PRIu64,
                  late.offered, late.released, late.late_dropped);
    line += buf;
  }
  if (t->ckpt != nullptr) {
    std::snprintf(buf, sizeof(buf), " ckpt_cuts=%zu journal_bytes=%zu",
                  t->ckpt->cuts(), t->ckpt->journal_bytes());
    line += buf;
  }
  lines.push_back(std::move(line));
  return lines;
}

void TenantRegistry::DropOwner(uint64_t owner) {
  std::vector<std::shared_ptr<Tenant>> all;
  {
    MutexLock lock(&mu_);
    for (auto& entry : tenants_) all.push_back(entry.second);
  }
  for (auto& tenant : all) {
    MutexLock lock(&tenant->mu);
    tenant->subs.erase(
        std::remove_if(tenant->subs.begin(), tenant->subs.end(),
                       [owner](const std::unique_ptr<Subscription>& sub) {
                         return sub->owner == owner;
                       }),
        tenant->subs.end());
  }
}

void TenantRegistry::CloseAll() {
  for (;;) {
    std::string name;
    {
      MutexLock lock(&mu_);
      if (tenants_.empty()) return;
      name = tenants_.begin()->first;
    }
    Close(name);
  }
}

size_t TenantRegistry::tenant_count() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

}  // namespace serve
}  // namespace rl0
