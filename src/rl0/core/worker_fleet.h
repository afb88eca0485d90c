// A shared worker fleet: many ingestion pools, one set of threads.
//
// IngestPool's default mode spawns one dedicated thread per lane, which
// is right for a handful of pools but collapses in the multi-tenant
// server setting: a registry hosting hundreds of tenant pools would
// spawn hundreds of mostly-idle threads. A WorkerFleet decouples lanes
// from threads — pools created with IngestPool::Options::fleet register
// each lane as a fleet *member* instead of spawning a worker, and a
// fixed set of fleet threads services every registered lane.
//
// Scheduling is fair by construction: a member with pending chunks sits
// in a FIFO ready ring; a fleet thread pops the front member, runs at
// most ONE of its chunks, and re-enlists it at the BACK of the ring if
// it still has work. A tenant with a deep backlog therefore cannot
// starve its neighbours — between any two chunks of one lane, every
// other ready lane gets a turn. Backpressure is unchanged: producers
// still block on the lane's bounded queue, not on the fleet.
//
// Wake rule: Notify enlists a whole chunk's lanes under one lock and
// signals the shared condition variable once per newly enlisted lane,
// but never more often than there are idle fleet threads (counted under
// the lock). A busy thread re-checks the ring before it waits, so
// enlisted work is never stranded, and a producer pays no signal while
// every fleet thread is busy.
//
// Ordering guarantee: a member is enlisted at most once and run by at
// most one thread at a time (the enlisted/running flags below), so a
// lane's chunks are consumed strictly in queue order — the pipeline's
// determinism contract (core/ingest_pool.h) holds identically in fleet
// mode.
//
// Lifetime: the fleet must outlive every pool registered with it.
// Deregister() (called from IngestPool::Stop) blocks until the member's
// callback is not running, after which the fleet never touches it again.

#ifndef RL0_CORE_WORKER_FLEET_H_
#define RL0_CORE_WORKER_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rl0/util/span.h"
#include "rl0/util/sync.h"
#include "rl0/util/thread_annotations.h"

namespace rl0 {

/// A fixed set of threads servicing registered lanes round-robin.
class WorkerFleet {
 public:
  /// A member's work callback: consume at most one pending chunk and
  /// return whether one was consumed (false = nothing pending). Runs on
  /// a fleet thread with no fleet lock held; must not call back into
  /// this fleet for the same member.
  using LaneFn = std::function<bool()>;

  /// Starts `threads` fleet threads (at least 1).
  explicit WorkerFleet(size_t threads);

  /// Joins the threads after finishing all enlisted work. Every member
  /// must have been deregistered (pools stopped) before destruction.
  ~WorkerFleet();

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Registers a lane; returns its member id. Safe from any thread.
  uint64_t Register(LaneFn fn);

  /// Removes a member: drops any pending enlistment and blocks until
  /// the member's callback is not running on any fleet thread. After
  /// return the fleet never invokes the callback again.
  void Deregister(uint64_t id);

  /// Signals that members `ids` (typically one chunk's lanes) may have
  /// pending work: enlists them all under one lock, and wakes idle
  /// fleet threads only (see the wake rule above). Coalesces with an
  /// existing enlistment, and a notification racing a member's own run
  /// is latched and re-enlists it afterwards (no lost wakeups). Unknown
  /// or deregistered ids are ignored. Safe from any thread.
  void Notify(Span<const uint64_t> ids);

  size_t num_threads() const { return threads_.size(); }

  /// Members currently registered (introspection / tests).
  size_t lanes_registered() const;

 private:
  /// All flag members are guarded by the fleet's mu_ (a nested struct
  /// cannot name the enclosing class's mutex in RL0_GUARDED_BY, so the
  /// contract lives here); `fn` is immutable after Register and is the
  /// only field touched without the lock (invoked with mu_ released).
  struct Member {
    LaneFn fn;
    /// In the ready ring (set ⇒ exactly one ring entry).
    bool enlisted = false;
    /// A fleet thread is inside fn right now.
    bool running = false;
    /// Notify arrived while running — re-enlist when the run ends.
    bool renotify = false;
    /// Deregister started; never re-enlist.
    bool dead = false;
  };

  void WorkerLoop();

  mutable Mutex mu_;
  CondVar work_cv_;
  /// Signalled when a member's run ends (Deregister waits on it).
  CondVar idle_cv_;
  std::deque<uint64_t> ready_ RL0_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::unique_ptr<Member>> members_
      RL0_GUARDED_BY(mu_);
  uint64_t next_id_ RL0_GUARDED_BY(mu_) = 1;
  bool stopping_ RL0_GUARDED_BY(mu_) = false;
  /// Fleet threads waiting on work_cv_ (signalled ones included until
  /// they retake mu_).
  size_t idle_ RL0_GUARDED_BY(mu_) = 0;
  std::vector<std::thread> threads_;
};

}  // namespace rl0

#endif  // RL0_CORE_WORKER_FLEET_H_
