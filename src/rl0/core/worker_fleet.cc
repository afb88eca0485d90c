#include "rl0/core/worker_fleet.h"

#include <algorithm>
#include <utility>

#include "rl0/util/check.h"

namespace rl0 {

WorkerFleet::WorkerFleet(size_t threads) {
  if (threads < 1) threads = 1;
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerFleet::~WorkerFleet() {
  {
    MutexLock lock(&mu_);
    // Pools must be stopped (and their lanes deregistered) before the
    // fleet goes away — a member outliving its fleet would lose its
    // worker silently.
    RL0_CHECK(members_.empty());
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

uint64_t WorkerFleet::Register(LaneFn fn) {
  MutexLock lock(&mu_);
  const uint64_t id = next_id_++;
  auto member = std::make_unique<Member>();
  member->fn = std::move(fn);
  members_.emplace(id, std::move(member));
  return id;
}

void WorkerFleet::Deregister(uint64_t id) {
  MutexLock lock(&mu_);
  auto it = members_.find(id);
  if (it == members_.end()) return;
  Member* m = it->second.get();
  m->dead = true;
  if (m->enlisted) {
    for (auto ring = ready_.begin(); ring != ready_.end(); ++ring) {
      if (*ring == id) {
        ready_.erase(ring);
        break;
      }
    }
    m->enlisted = false;
  }
  while (m->running) idle_cv_.Wait(&mu_);
  members_.erase(it);
}

void WorkerFleet::Notify(Span<const uint64_t> ids) {
  if (ids.empty()) return;
  size_t wakes = 0;
  {
    MutexLock lock(&mu_);
    for (const uint64_t id : ids) {
      auto it = members_.find(id);
      if (it == members_.end()) continue;
      Member* m = it->second.get();
      if (m->dead) continue;
      if (m->running) {
        // The run in flight may have already drained the queue before
        // this notification's chunk landed; latch so the member
        // re-enters the ring when the run ends.
        m->renotify = true;
      } else if (!m->enlisted) {
        m->enlisted = true;
        ready_.push_back(id);
        ++wakes;
      }
    }
    // Busy threads re-check the ring before they wait.
    wakes = std::min(wakes, idle_);
  }
  for (size_t i = 0; i < wakes; ++i) work_cv_.NotifyOne();
}

void WorkerFleet::WorkerLoop() {
  // Manual Lock/Unlock (not MutexLock) because the lock is dropped
  // around the member callback and reacquired after; the analysis
  // checks that the lock state is balanced at every join point.
  mu_.Lock();
  for (;;) {
    while (!stopping_ && ready_.empty()) {
      ++idle_;
      work_cv_.Wait(&mu_);
      --idle_;
    }
    if (ready_.empty()) {
      if (stopping_) {
        mu_.Unlock();
        return;
      }
      continue;
    }
    const uint64_t id = ready_.front();
    ready_.pop_front();
    auto it = members_.find(id);
    if (it == members_.end()) continue;  // raced a Deregister
    Member* m = it->second.get();
    m->enlisted = false;
    m->running = true;
    m->renotify = false;
    mu_.Unlock();
    const bool did_work = m->fn();
    mu_.Lock();
    m->running = false;
    // did_work: the queue may hold more chunks (we only ran one) — take
    // another turn after everyone else. renotify: a producer pushed
    // while we ran. Either way re-enlist; a spurious extra run settles
    // by returning false. This thread takes the ring's front next, so
    // an idle thread is woken only when the ring holds more than that.
    if (!m->dead && (did_work || m->renotify)) {
      m->enlisted = true;
      ready_.push_back(id);
      if (idle_ > 0 && ready_.size() > 1) work_cv_.NotifyOne();
    }
    m->renotify = false;
    idle_cv_.NotifyAll();
  }
}

size_t WorkerFleet::lanes_registered() const {
  MutexLock lock(&mu_);
  return members_.size();
}

}  // namespace rl0
