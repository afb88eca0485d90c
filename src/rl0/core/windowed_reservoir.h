// Uniform random sampling from the live suffix of a stream — the
// sliding-window replacement for reservoir sampling that Section 2.3 of
// the paper calls for ("replace Reservoir sampling with a random sampling
// algorithm for sliding windows, e.g. [Braverman-Ostrovsky-Zaniolo]").
//
// Priority sampling: every arriving item draws a fresh uniform 64-bit
// priority; the sample for any window is the minimum-priority unexpired
// item, which is uniform over the window's items. Maintaining the sample
// takes the classic sliding-window-minimum structure: a deque of
// candidates with increasing stamps and strictly increasing priorities —
// a new arrival evicts every candidate with a larger priority (they can
// never be a window minimum again while the newer item is alive), and the
// front expires as the window slides. The candidate set is the sequence
// of suffix minima, of expected size O(log w).
//
// Candidate coordinates live in a PointStore arena shared with the owning
// sampler family (one flat buffer for the whole hierarchy); each candidate
// holds a PointRef and evictions release the slot. Standalone reservoirs
// (tests, ad-hoc use) may omit the store — an owned arena is created on
// first insert. Move-only: a reservoir owns its candidates' arena slots.

#ifndef RL0_CORE_WINDOWED_RESERVOIR_H_
#define RL0_CORE_WINDOWED_RESERVOIR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "rl0/core/sample.h"
#include "rl0/geom/point.h"
#include "rl0/geom/point_store.h"
#include "rl0/util/rng.h"
#include "rl0/util/space.h"

namespace rl0 {

/// Uniform sampler over the unexpired items of a stamped stream.
class WindowedReservoir {
 public:
  /// A stored suffix-minimum candidate (public for checkpointing).
  struct Candidate {
    uint64_t priority;
    int64_t stamp;
    PointRef ref;
    uint64_t stream_index;
  };

  WindowedReservoir() : window_(1) {}

  /// Creates a reservoir for windows of width `window`; priorities are
  /// drawn from a generator seeded with `seed`. Candidates are stored in
  /// `store` when given, else in a lazily created private arena.
  WindowedReservoir(int64_t window, uint64_t seed,
                    PointStore* store = nullptr)
      : window_(window), rng_(SplitMix64(seed ^ 0x57524553ULL)),
        store_(store) {}

  WindowedReservoir(WindowedReservoir&& other) noexcept
      : window_(other.window_),
        rng_(other.rng_),
        store_(other.store_),
        owned_store_(std::move(other.owned_store_)),
        candidates_(std::move(other.candidates_)) {
    other.candidates_.clear();  // moved-from deque state is unspecified
  }
  WindowedReservoir& operator=(WindowedReservoir&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      window_ = other.window_;
      rng_ = other.rng_;
      store_ = other.store_;
      owned_store_ = std::move(other.owned_store_);
      candidates_ = std::move(other.candidates_);
      other.candidates_.clear();
    }
    return *this;
  }
  WindowedReservoir(const WindowedReservoir&) = delete;
  WindowedReservoir& operator=(const WindowedReservoir&) = delete;

  ~WindowedReservoir() { ReleaseAll(); }

  /// Feeds an item; stamps must be non-decreasing.
  void Insert(PointView p, int64_t stamp, uint64_t stream_index) {
    Expire(stamp);
    const uint64_t priority = rng_();
    while (!candidates_.empty() && candidates_.back().priority >= priority) {
      ReleaseRef(candidates_.back().ref);
      candidates_.pop_back();
    }
    EnsureStore(p.dim());
    candidates_.push_back(
        Candidate{priority, stamp, store_->Add(p), stream_index});
  }

  /// Drops candidates that left the window at time `now`.
  void Expire(int64_t now) {
    const int64_t horizon = now - window_;
    while (!candidates_.empty() && candidates_.front().stamp <= horizon) {
      ReleaseRef(candidates_.front().ref);
      candidates_.pop_front();
    }
  }

  /// A uniformly random unexpired item, or nullopt for an empty window.
  std::optional<SampleItem> Sample(int64_t now) {
    Expire(now);
    if (candidates_.empty()) return std::nullopt;
    const Candidate& front = candidates_.front();
    return SampleItem{store_->View(front.ref).Materialize(),
                      front.stream_index};
  }

  /// Current number of stored candidates (expected O(log w)).
  size_t size() const { return candidates_.size(); }

  /// Space in words for items of dimension `dim`: per candidate the flat
  /// arena coordinates plus the four scalar fields (priority, stamp,
  /// point ref, stream_index), plus the reservoir's own two scalars.
  size_t SpaceWords(size_t dim) const {
    return candidates_.size() * CandidateWords(dim) + kScalarWords;
  }
  static constexpr size_t CandidateWords(size_t dim) { return dim + 4; }
  static constexpr size_t kScalarWords = 2;

  /// The stored candidates, oldest first (checkpointing support).
  const std::deque<Candidate>& candidates() const { return candidates_; }

  /// Materializes a candidate's coordinates (checkpointing support).
  Point CandidatePoint(const Candidate& candidate) const {
    return store_->View(candidate.ref).Materialize();
  }

  /// Releases every candidate's arena slot and empties the reservoir
  /// (group teardown in the sliding-window samplers).
  void ReleaseAll() {
    for (const Candidate& c : candidates_) ReleaseRef(c.ref);
    candidates_.clear();
  }

  /// Rebuilds a reservoir from checkpointed parts: window, a fresh seed
  /// for the priority generator (see core/snapshot.h for the statistical
  /// — not bit-exact — equivalence contract), the target arena, and the
  /// materialized candidates ordered by stamp with strictly increasing
  /// priorities.
  struct RestoredCandidate {
    uint64_t priority;
    int64_t stamp;
    Point point;
    uint64_t stream_index;
  };
  void RestoreState(int64_t window, uint64_t reseed, PointStore* store,
                    const std::vector<RestoredCandidate>& restored) {
    ReleaseAll();
    window_ = window;
    rng_ = Xoshiro256pp(SplitMix64(reseed ^ 0x57524553ULL));
    store_ = store;
    owned_store_.reset();
    for (const RestoredCandidate& c : restored) {
      EnsureStore(c.point.dim());
      candidates_.push_back(
          Candidate{c.priority, c.stamp, store_->Add(c.point),
                    c.stream_index});
    }
  }

 private:
  void EnsureStore(size_t dim) {
    if (store_ == nullptr) {
      owned_store_ = std::make_unique<PointStore>(dim);
      store_ = owned_store_.get();
    }
  }
  void ReleaseRef(PointRef ref) {
    if (store_ != nullptr) store_->Release(ref);
  }

  int64_t window_;
  Xoshiro256pp rng_{0};
  PointStore* store_ = nullptr;
  std::unique_ptr<PointStore> owned_store_;
  std::deque<Candidate> candidates_;
};

}  // namespace rl0

#endif  // RL0_CORE_WINDOWED_RESERVOIR_H_
