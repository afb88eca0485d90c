#ifndef RL0_CORE_DUP_FILTER_H_
#define RL0_CORE_DUP_FILTER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "rl0/geom/point.h"

namespace rl0 {

// Counters for the duplicate-suppression front-end. `bypassed` counts the
// arrivals that never consulted the filter (filter disabled or compiled out);
// it is derived from the sampler's points_processed so the disabled hot path
// carries zero accounting overhead.
struct DupFilterStats {
  uint64_t hits = 0;      // front-end hit, verified, replayed
  uint64_t misses = 0;    // consulted but fell through to the full probe
  uint64_t bypassed = 0;  // filter off: arrival went straight to the full probe

  DupFilterStats& operator+=(const DupFilterStats& o) {
    hits += o.hits;
    misses += o.misses;
    bypassed += o.bypassed;
    return *this;
  }
};

// DupFilter is a small 2-way set-associative cache of recently-seen exact
// arrivals, keyed on the quantized base cell key and guarded by the full
// point bytes. Each entry remembers (cell key, point bytes, epoch, payload
// words). The payload is opaque to the filter; its one user, the
// infinite-window sampler, stores the representative slot. The windowed
// samplers have no front-end filter: a descent-replay cache there was
// consulted on every arrival of the served workloads and never hit.
//
// Two ways per set, with a most-recently-used bit steering eviction, keep
// the dominant pattern of a cell resident while near-duplicate noise churns
// the other way: a perturbed arrival shares the exact repeat's cell key
// (same set, same tag) but not its bytes, so in a direct-mapped layout every
// perturbation would evict the hot entry and the next exact repeat would
// miss. Ways also absorb plain index collisions between distinct cells.
//
// Decision-identity contract: the filter never decides anything by itself.
// A Lookup only *finds* a candidate replay; the caller must (a) validate the
// entry's epoch against the live structure generation so cached slots never
// dangle across Refilter/Compact repacks, and (b) re-verify the cached
// representative with the real distance kernel before replaying. On any
// doubt the caller falls through to the full probe, which is always
// correct.
//
// The filter's arrays are scratch state (like adj_scratch_): they are not
// charged to the SpaceMeter and never enter snapshots, so snapshot bytes are
// identical with the filter on or off.
class DupFilter {
 public:
  // True when the front-end is compiled in (-DRL0_NO_DUP_FILTER removes it;
  // every construction then degenerates to a disabled filter and the replay
  // code paths become dead).
#if defined(RL0_NO_DUP_FILTER)
  static constexpr bool kCompiledIn = false;
#else
  static constexpr bool kCompiledIn = true;
#endif

  static constexpr size_t kWays = 2;
  static constexpr size_t kSets = 128;
  static constexpr size_t kEntries = kSets * kWays;

  // Result of a probe. `payload` points at `payload_len` words recorded by
  // the matching Store; valid until the next Store.
  struct View {
    const uint32_t* payload = nullptr;
    uint64_t epoch = 0;
    bool found = false;
  };

  // A default-constructed filter is disabled and allocation-free.
  DupFilter() = default;

  // `payload_len` is the number of uint32 words the caller records per entry.
  // A disabled filter allocates nothing; Lookup always misses (without
  // counting) and Store is a no-op.
  DupFilter(size_t dim, size_t payload_len, bool enabled);

  bool enabled() const { return enabled_; }

  // Probes for an entry whose cell key and exact point bytes match. Byte
  // equality (memcmp) is strictly stronger than operator== on coordinates,
  // so a found entry is safe to replay even across -0.0/NaN oddities.
  View Lookup(uint64_t cell_key, PointView p) const;

  // Installs an entry for `cell_key` and returns the payload words for the
  // caller to fill, or nullptr when disabled. Way choice within the set: an
  // existing entry with identical key and bytes is refreshed in place, an
  // empty way is filled next, otherwise the least-recently-used way is
  // evicted.
  uint32_t* Store(uint64_t cell_key, uint64_t epoch, PointView p);

  // Outcome accounting. The caller (not Lookup) counts, because a found
  // entry may still be rejected by the caller-side epoch check.
  void CountHit() { ++hits_; }
  void CountMiss() { ++misses_; }

  // `points_processed` is the sampler's total arrival count; everything that
  // was neither a hit nor a consulted miss bypassed the filter.
  DupFilterStats stats(uint64_t points_processed) const {
    DupFilterStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.bypassed = points_processed - hits_ - misses_;
    return s;
  }

 private:
  struct Slot {
    size_t set;  // first entry of the set is set * kWays
    uint16_t tag;
  };
  static Slot SlotFor(uint64_t cell_key) {
    const uint64_t h = cell_key * 0x9E3779B97F4A7C15ULL;
    Slot s;
    s.set = static_cast<size_t>(h >> 57);  // top 7 bits -> 128 sets
    // |1 keeps 0 reserved as the empty tag.
    s.tag = static_cast<uint16_t>(static_cast<uint16_t>(h >> 40) | 1u);
    return s;
  }

  // True when entry `e` holds `cell_key` with exactly the bytes of `p`.
  bool EntryMatches(size_t e, const Slot& s, uint64_t cell_key,
                    PointView p) const {
    return tags_[e] == s.tag && keys_[e] == cell_key &&
           std::memcmp(&bytes_[e * dim_], p.data(),
                       dim_ * sizeof(double)) == 0;
  }

  bool enabled_ = false;
  size_t dim_ = 0;
  size_t payload_len_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<uint16_t> tags_;       // 0 == empty
  std::vector<uint64_t> keys_;       // full cell key per entry
  std::vector<uint64_t> epochs_;     // structure generation at record time
  std::vector<uint32_t> payload_;    // kEntries * payload_len_
  std::vector<double> bytes_;        // kEntries * dim_ exact point bytes
  mutable std::vector<uint8_t> mru_;  // per set: way touched last
};

}  // namespace rl0

#endif  // RL0_CORE_DUP_FILTER_H_
