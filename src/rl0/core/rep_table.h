// Structure-of-arrays storage for sampler representatives.
//
// Algorithm 1's hot loop is FindCandidate: for every arriving point,
// probe each adjacent cell key and distance-check the representatives
// stored in that cell. The seed implementation kept representatives in a
// std::unordered_map<id, Rep> (each Rep holding a heap-allocated Point)
// indexed by a std::unordered_multimap<cell, id> — three pointer chases
// per probe before the first coordinate is even touched.
//
// RepTable flattens all of it:
//
//   * coordinates live in a PointStore arena (one flat double buffer);
//   * the per-rep scalar fields (id, stream_index, cell_key, flags) are
//     parallel vectors indexed by a 32-bit slot;
//   * cell membership is an intrusive singly-linked chain threaded through
//     the `next_in_cell` column, with chain heads held in CellIndex — an
//     open-addressing (linear probing) hash table from cell key to slot.
//
// A FindCandidate probe is now: one open-addressing lookup, then a walk
// over slot indices whose coordinates are contiguous doubles. Slots are
// recycled through a free list, so the table's footprint tracks the peak
// live population, matching the paper's space accounting (RepArenaWords in
// util/space.h mirrors this layout field by field).

#ifndef RL0_CORE_REP_TABLE_H_
#define RL0_CORE_REP_TABLE_H_

#include <cstdint>
#include <vector>

#include "rl0/geom/point.h"
#include "rl0/geom/point_store.h"

namespace rl0 {

/// Active CellIndex probe kernel: "avx2" or "scalar". Mirrors
/// DistanceKernelDispatch(); benches record it next to machine facts.
const char* CellIndexDispatch();

/// Open-addressing hash table: cell key → head slot of the cell's rep
/// chain. Linear probing with tombstones; grows at 70% occupancy.
///
/// Storage is structure-of-arrays (keys / heads / states in parallel
/// vectors) so the probe loop can compare several buckets per step: the
/// AVX2 path fingerprints four consecutive keys at once and resolves the
/// first empty-or-matching position with a ctz, visiting positions in
/// exactly the scalar probe order — decisions and probe order are
/// unchanged, only the stride over memory differs. Runtime dispatch and
/// the -DRL0_NO_SIMD escape hatch follow geom/distance_kernels.h.
class CellIndex {
 public:
  static constexpr uint32_t kNpos = ~uint32_t{0};

  CellIndex();

  /// Empties the index back to its initial buckets in place: the bucket
  /// vectors keep their heap blocks (the per-arrival
  /// SwGroupTable::Clear allocates nothing).
  void Reset();

  /// Head slot of `key`'s chain, or kNpos.
  uint32_t Find(uint64_t key) const;

  /// Sets (inserting if absent) the head slot of `key`'s chain.
  void SetHead(uint64_t key, uint32_t head);

  /// Sets the head slot of `key`'s chain and returns the previous head
  /// (kNpos if the key was absent) — SetHead and Find in one probe, the
  /// push-front primitive of the rep chains.
  uint32_t Upsert(uint64_t key, uint32_t head);

  /// Removes `key` (no-op if absent).
  void Erase(uint64_t key);

  /// Prefetches the probe bucket for `key` into cache. The batch
  /// ingestion paths issue this one stream element ahead, overlapping the
  /// bucket's memory latency with the current element's distance work.
  void Prefetch(uint64_t key) const {
#if defined(__GNUC__)
    const size_t i = BucketFor(key);
    __builtin_prefetch(&keys_[i]);
    __builtin_prefetch(&states_[i]);
#endif
  }

  /// Calls fn(key, head) for every present key, in unspecified order
  /// (compaction rebuild support).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (states_[i] == kFull) fn(keys_[i], heads_[i]);
    }
  }

  /// Number of distinct keys present.
  size_t live() const { return live_; }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  size_t BucketFor(uint64_t key) const {
    // Keys are already mixed (grid/cell.h); a multiplicative spread keeps
    // linear probing clusters short even for adversarial key sets.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void Grow();
  uint32_t FindScalar(uint64_t key) const;
  uint32_t FindAvx2(uint64_t key) const;  // defined only on the x86 build

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> heads_;
  std::vector<uint8_t> states_;
  uint32_t shift_;   // 64 - log2(keys_.size())
  size_t live_ = 0;  // kFull buckets
  size_t used_ = 0;  // kFull + kTombstone buckets
};

/// SoA table of representatives with arena-backed points and a flat cell
/// index. Copyable (all columns are value vectors).
class RepTable {
 public:
  static constexpr uint32_t kNpos = CellIndex::kNpos;

  /// A table for reps of dimension `dim`. `with_reservoir` allocates the
  /// Section 2.3 columns (group sample point / index / count).
  RepTable(size_t dim, bool with_reservoir);

  // ----------------------------------------------------------- lifecycle

  /// Adds a representative; returns its slot. Invalidates PointViews.
  uint32_t Add(PointView point, uint64_t id, uint64_t stream_index,
               uint64_t cell_key, bool accepted);

  /// Removes the rep at `slot` (unlinks its cell chain, frees its arena
  /// slots, recycles the slot).
  void Remove(uint32_t slot);

  /// \brief Compacts the table: live reps move down to slots [0, live()),
  /// the arena is repacked in the new slot order, and the CellIndex is
  /// rebuilt.
  ///
  /// Contract (what makes this safe to run mid-stream):
  ///   * Slot renumbering is monotone — live slots keep their relative
  ///     order — so every slot-order iteration (queries, snapshots,
  ///     Refilter scans) visits the same representatives in the same
  ///     sequence before and after.
  ///   * Per-cell chain order is preserved link by link: FindCandidate's
  ///     first-match scan, and with it every sampling decision, is
  ///     bit-identical to the uncompacted table's.
  ///   * All externally held slot indices and PointViews are invalidated;
  ///     callers must not hold either across a call.
  ///
  /// Called after refilters/expiry waves that kill many slots: repacking
  /// restores the arena density the batched distance kernels
  /// (geom/distance_kernels.h) rely on, and drops the dead slot columns'
  /// footprint. tests/rep_table_compact_test.cc pins the invariants.
  void Compact();

  /// Compacts when at least half of the slot columns are dead (and the
  /// table is big enough for churn to matter). Returns whether it ran.
  /// The ≥50% trigger means compaction work is amortized O(1) per
  /// removal. Refilter() calls this after its removal sweep.
  bool MaybeCompact();

  /// Prefetches the CellIndex bucket of `key` (see CellIndex::Prefetch).
  void PrefetchCell(uint64_t key) const { index_.Prefetch(key); }

  /// True when the cell index is populated enough that a cold bucket
  /// load is plausible (cache-resident small tables gain nothing, and
  /// the batch paths pay a CellKeyOf per issued prefetch).
  bool PrefetchPays() const { return index_.live() >= kPrefetchMinCells; }

  /// Cell-count gate for PrefetchPays: ~4k live cells ≈ the index plus
  /// its rep columns no longer fit in a typical L2.
  static constexpr size_t kPrefetchMinCells = 4096;

  /// Number of live representatives.
  size_t live() const { return live_; }

  /// Upper bound over slot indices (iterate 0..slot_count() and skip
  /// !IsLive(slot)).
  size_t slot_count() const { return flags_.size(); }

  bool IsLive(uint32_t slot) const { return flags_[slot] & kLiveFlag; }

  // ------------------------------------------------------------- columns

  uint64_t id(uint32_t slot) const { return id_[slot]; }
  uint64_t stream_index(uint32_t slot) const { return stream_index_[slot]; }
  void set_stream_index(uint32_t slot, uint64_t v) { stream_index_[slot] = v; }
  uint64_t cell_key(uint32_t slot) const { return cell_key_[slot]; }
  bool accepted(uint32_t slot) const { return flags_[slot] & kAcceptedFlag; }
  void set_accepted(uint32_t slot, bool accepted);

  PointView point(uint32_t slot) const { return store_.View(point_[slot]); }
  /// Overwrites the rep's coordinates in place (same dimension).
  void set_point(uint32_t slot, PointView p) { store_.Write(point_[slot], p); }

  /// The rep point's *arena* slot index — the coordinate handle the
  /// batched distance kernels take (kept as a column so the gather loop
  /// never divides by dim).
  uint32_t point_arena_slot(uint32_t slot) const {
    return point_arena_[slot];
  }

  /// Moves the rep to a different cell chain (AbsorbFrom's
  /// earlier-representative-wins rewrite).
  void RekeyCell(uint32_t slot, uint64_t new_cell_key);

  // ------------------------------------------- reservoir-variant columns

  PointView sample_point(uint32_t slot) const {
    return store_.View(sample_point_[slot]);
  }
  void set_sample_point(uint32_t slot, PointView p) {
    store_.Write(sample_point_[slot], p);
  }
  uint64_t sample_index(uint32_t slot) const { return sample_index_[slot]; }
  void set_sample_index(uint32_t slot, uint64_t v) { sample_index_[slot] = v; }
  uint64_t group_count(uint32_t slot) const { return group_count_[slot]; }
  void set_group_count(uint32_t slot, uint64_t v) { group_count_[slot] = v; }

  // -------------------------------------------------------- cell chains

  /// First slot of `key`'s chain (kNpos if the cell holds no rep).
  uint32_t CellHead(uint64_t key) const { return index_.Find(key); }

  /// Next slot in the same cell's chain (kNpos at the end).
  uint32_t NextInCell(uint32_t slot) const { return next_in_cell_[slot]; }

  /// The underlying arena (introspection / space accounting).
  const PointStore& store() const { return store_; }

 private:
  enum : uint8_t { kLiveFlag = 1, kAcceptedFlag = 2 };

  void Link(uint32_t slot);
  void Unlink(uint32_t slot);

  size_t dim_;
  bool with_reservoir_;
  PointStore store_;
  CellIndex index_;

  std::vector<uint64_t> id_;
  std::vector<uint64_t> stream_index_;
  std::vector<uint64_t> cell_key_;
  std::vector<PointRef> point_;
  std::vector<uint32_t> point_arena_;  // point_'s arena slot index
  std::vector<uint8_t> flags_;
  std::vector<uint32_t> next_in_cell_;

  std::vector<PointRef> sample_point_;
  std::vector<uint64_t> sample_index_;
  std::vector<uint64_t> group_count_;

  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
};

}  // namespace rl0

#endif  // RL0_CORE_REP_TABLE_H_
