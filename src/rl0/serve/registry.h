// Multi-tenant sampler registry with standing queries.
//
// The server half that owns state: a TenantRegistry maps tenant names
// to windowed sharded pipelines (core/sharded_pool.h), all sharing ONE
// WorkerFleet (core/worker_fleet.h) — S lanes per tenant but a fixed
// thread count overall, with fair round-robin service so one tenant's
// backlog cannot starve another's. The connection layer (serve/server.h)
// is stateless by comparison: it parses commands and calls in here.
//
// Standing queries: a subscription asks for a periodic evaluation of a
// tenant's window — `digest` (k sample draws), `f0` (the CVM exact-
// distinct watermark, serve/cvm.h) or `churn` (alert when the distinct
// count drifts ≥ threshold since the last alert). Cadence is measured
// in *stream* progress, not wall clock: every N points (sequence-mode
// tenants) or every N time units of stamp progress (time/late), so
// firing positions are a deterministic function of the fed stream —
// which is what tests/standing_query_test.cc pins. To evaluate at the
// exact crossing, the registry splits feed chunks at trigger
// boundaries; the pipeline's chunking-invariance contract makes the
// split invisible to sampler state.
//
// Trigger timing per mode:
//   sequence  fires when the fed-point count crosses k·every, evaluated
//             after Drain at now = count-1 (the position stamp of the
//             crossing point);
//   time      fires at the first fed point whose stamp ≥ the trigger
//             stamp, evaluated at that point's stamp;
//   late      fires when the reorder stage's release frontier
//             (pool->now()) crosses the trigger stamp — late-buffered
//             points can therefore hold a trigger back until FLUSH,
//             which is the correct bounded-lateness behaviour (nothing
//             is evaluated before its window content is complete).
//
// Events are delivered push-style through an EventSink, one sink call
// per complete EVENT block. A sink returning false (its connection's
// bounded queue closed) permanently drops the subscription; a sink that
// blocks (queue full) applies end-to-end backpressure: the feeding
// command stalls, and with it the feeding client's socket.
//
// Durability: tenants created with ckpt=1 own a PoolCheckpointer under
// <checkpoint-root>/<tenant>, which cuts a full checkpoint as CREATE
// opens it; recover=1 restores from that directory (journal replay
// included) before that cut. The CREATE line must agree with what the checkpoint
// records — dim, alpha, metric, seed, m, k, reservoir, window, shards,
// the latched sequence-vs-stamped mode and, for mode=late, the lateness
// bound — or the CREATE fails and no tenant is registered (every= and
// filter= may differ: the first is a deployment setting, the second is
// ignored — no sampler has a duplicate filter). A CREATE of a
// name whose CLOSE is still cutting fails as if the tenant existed.
// Subscriptions and CVM state are scratch: they do not survive recovery
// — only sampler state does.

#ifndef RL0_SERVE_REGISTRY_H_
#define RL0_SERVE_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rl0/core/sharded_pool.h"
#include "rl0/core/worker_fleet.h"
#include "rl0/geom/point.h"
#include "rl0/serve/checkpointer.h"
#include "rl0/serve/cvm.h"
#include "rl0/serve/protocol.h"
#include "rl0/util/rng.h"
#include "rl0/util/status.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {
namespace serve {

/// Delivers one complete EVENT block to a subscriber. May block
/// (backpressure); returns false when the subscriber is gone, which
/// drops the subscription.
using EventSink = std::function<bool(const std::string& block)>;

class TenantRegistry {
 public:
  struct Options {
    /// Fleet threads shared by every tenant's ingestion lanes.
    size_t fleet_threads = 4;
    /// Root directory for per-tenant checkpoints; empty disables ckpt=1.
    std::string checkpoint_root;
    /// Kept-key capacity of each tenant's CVM estimator.
    size_t cvm_capacity = 4096;
  };

  explicit TenantRegistry(const Options& options);

  /// Closes every tenant (CloseAll) before the fleet shuts down.
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Creates (or recovers, params.recover) a tenant.
  Status Create(const std::string& name, const CreateParams& params);

  /// Feeds a sequence-mode tenant. Splits at trigger boundaries, fires
  /// due standing queries, cuts checkpoints at the tenant's cadence.
  Status Feed(const std::string& name, std::vector<Point> points);

  /// Feeds a time- or late-mode tenant. Time mode requires stamps
  /// non-decreasing within the batch AND from the previous batch's last
  /// stamp (rejected with InvalidArgument otherwise — the pool would
  /// CHECK-fail); late mode accepts any order within the tenant's
  /// lateness bound (the reorder stage restores order, out-of-bound
  /// stamps count as late_dropped). A batch with one stamp per point is
  /// the caller's duty; any other is rejected with InvalidArgument
  /// before the tenant is touched.
  Status FeedStamped(const std::string& name, std::vector<Point> points,
                     std::vector<int64_t> stamps);

  /// Draws `queries` consecutive samples from the latest window with a
  /// fresh query rng — seeded exactly like `rl0_cli sample`
  /// (SplitMix64(seed ^ kQuerySeedSalt)), so the returned lines are
  /// byte-identical to the CLI's for the same fed stream. `seed`
  /// defaults to the tenant's creation seed when !seed_set.
  Result<std::vector<std::string>> Sample(const std::string& name,
                                          int queries, bool seed_set,
                                          uint64_t seed);

  /// One "DATA f0_exact=... observed=..." line (see serve/cvm.h for the
  /// exact-distinct caveat).
  Result<std::string> F0Line(const std::string& name);

  /// Registers a standing query; returns its id. `owner` is an opaque
  /// connection token for DropOwner. `cmd` must be a parsed kSubscribe.
  Result<uint64_t> Subscribe(const std::string& name, const Command& cmd,
                             uint64_t owner, EventSink sink);

  Status Unsubscribe(const std::string& name, uint64_t sub_id);

  /// Late mode: releases the reorder buffer (FlushLate), fires any
  /// triggers the advanced frontier crossed, cuts a checkpoint. Other
  /// modes: drain + checkpoint cut only.
  Status Flush(const std::string& name);

  /// Flushes, fires pending triggers, cuts the final checkpoint, drops
  /// subscriptions and destroys the tenant.
  Status Close(const std::string& name);

  /// Formatted "STAT ..." lines: one per tenant for `name`, or the
  /// registry-wide summary for the empty string.
  Result<std::vector<std::string>> StatsLines(const std::string& name);

  /// Drops every subscription registered under `owner` (connection
  /// closed). Their sinks are never called again.
  void DropOwner(uint64_t owner);

  /// Closes every tenant (idempotent; also run by the destructor).
  void CloseAll();

  size_t tenant_count() const;
  WorkerFleet* fleet() { return &fleet_; }

 private:
  /// All fields are guarded by the owning Tenant's mu (a separate struct
  /// cannot name it in RL0_GUARDED_BY, so the contract lives here):
  /// subscriptions are only created, fired, and erased under that lock.
  struct Subscription {
    uint64_t id = 0;
    QueryKind kind = QueryKind::kDigest;
    int64_t every = 0;
    double threshold = 0.0;
    int queries = 1;
    uint64_t owner = 0;
    /// Next fire position: a point count (sequence mode) or a stamp.
    int64_t next_fire = 0;
    /// Digest draw stream (persistent across fires — deterministic for
    /// a fixed feed order).
    Xoshiro256pp rng;
    /// Churn baseline (updates only when an alert fires).
    double baseline = 0.0;
    bool baseline_set = false;
    EventSink sink;
  };

  struct Tenant {
    std::string name;
    CreateParams params;
    /// Serializes every operation on this tenant (feeding, queries,
    /// subscription management). Held while sinks run — backpressure on
    /// a slow subscriber intentionally stalls the tenant. Ordered AFTER
    /// the registry's mu_ (never take mu_ while holding a tenant's mu).
    Mutex mu;
    std::unique_ptr<ShardedSwSamplerPool> pool RL0_GUARDED_BY(mu);
    /// Declared after pool: destroyed first, detaching the journal tap
    /// before the pool's pipeline stops.
    std::unique_ptr<PoolCheckpointer> ckpt RL0_GUARDED_BY(mu);
    CvmEstimator cvm RL0_GUARDED_BY(mu);
    std::vector<std::unique_ptr<Subscription>> subs RL0_GUARDED_BY(mu);
    uint64_t next_sub_id RL0_GUARDED_BY(mu) = 1;
    /// Last stamp accepted from a FEEDSTAMPED batch (time mode's
    /// cross-batch monotonicity guard; the pool CHECK-fails on
    /// regression, so the registry must reject first).
    int64_t last_stamp RL0_GUARDED_BY(mu) = 0;
    bool last_stamp_set RL0_GUARDED_BY(mu) = false;

    Tenant(std::string name, const CreateParams& params,
           size_t cvm_capacity);
  };

  std::shared_ptr<Tenant> Find(const std::string& name);
  /// Create's body after the name reservation: builds (or recovers) the
  /// tenant and registers it. The caller holds `name` in creating_.
  Status BuildAndRegister(const std::string& name,
                          const CreateParams& params);
  /// Feeds points [begin, end) of `batch` (+stamps) through the right
  /// pool path for the tenant's mode: a Slice sharing the batch's owner,
  /// so the lanes read the parsed points without a copy.
  void FeedSlice(Tenant* t, const IngestPool::Chunk& batch, size_t begin,
                 size_t end) RL0_REQUIRES(t->mu);
  /// Fires every subscription whose next_fire ≤ `position` (a count in
  /// sequence mode, a stamp otherwise), advancing each past it. Call
  /// with the position actually reached by the pool.
  void FireDue(Tenant* t, int64_t position) RL0_REQUIRES(t->mu);
  void FireSubscription(Tenant* t, Subscription* sub, int64_t position)
      RL0_REQUIRES(t->mu);
  /// The earliest pending next_fire among live subscriptions, or
  /// INT64_MAX.
  static int64_t NextTrigger(const Tenant* t) RL0_REQUIRES(t->mu);
  Status FlushLocked(Tenant* t) RL0_REQUIRES(t->mu);

  /// Declared before tenants_: destroyed last, after every tenant's
  /// pool has deregistered its lanes.
  WorkerFleet fleet_;
  std::string checkpoint_root_;
  size_t cvm_capacity_;
  /// Registry-level lock: first in the lock hierarchy (taken before any
  /// tenant's mu, never after one — see docs/ARCHITECTURE.md).
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_
      RL0_GUARDED_BY(mu_);
  /// Names with a Create or a Close in flight. Reserving here keeps a
  /// CREATE from opening a checkpoint directory (the open cut rewrites
  /// its files) while another CREATE or the final cut of a CLOSE of the
  /// same name still writes there.
  std::set<std::string> creating_ RL0_GUARDED_BY(mu_);
};

}  // namespace serve
}  // namespace rl0

#endif  // RL0_SERVE_REGISTRY_H_
