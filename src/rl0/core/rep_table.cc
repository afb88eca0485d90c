#include "rl0/core/rep_table.h"

#include <cstring>

#include "rl0/util/check.h"

// Same per-function target-attribute scheme as geom/distance_kernels.cc:
// portable baseline ISA, AVX2 bodies gated behind runtime dispatch, and
// RL0_NO_SIMD as the compile-time escape hatch.
#if !defined(RL0_NO_SIMD) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
#define RL0_CELL_INDEX_X86 1
#include <immintrin.h>
#endif

namespace rl0 {

namespace {
constexpr size_t kInitialBuckets = 16;  // power of two
// Below this many slot columns, compaction churn outweighs the locality
// win; MaybeCompact stays a no-op.
constexpr size_t kCompactMinSlots = 64;

#if RL0_CELL_INDEX_X86
bool CellIndexAvx2Supported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#endif
}  // namespace

const char* CellIndexDispatch() {
#if RL0_CELL_INDEX_X86
  return CellIndexAvx2Supported() ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

CellIndex::CellIndex() { Reset(); }

void CellIndex::Reset() {
  keys_.assign(kInitialBuckets, 0);
  heads_.assign(kInitialBuckets, kNpos);
  states_.assign(kInitialBuckets, kEmpty);
  shift_ = 64 - 4;
  live_ = 0;
  used_ = 0;
}

uint32_t CellIndex::FindScalar(uint64_t key) const {
  const size_t mask = keys_.size() - 1;
  size_t i = BucketFor(key);
  for (;;) {
    if (states_[i] == kEmpty) return kNpos;
    if (states_[i] == kFull && keys_[i] == key) return heads_[i];
    i = (i + 1) & mask;
  }
}

#if RL0_CELL_INDEX_X86
// Compares four consecutive buckets per step. The scalar probe stops at
// the first position (in probe order) that is empty, or full with a
// matching key; here that position is the lowest set bit of
// `emptym | (eqm & fullm)` within the block, so the returned verdict —
// and the set of positions that influence it — is identical. Blocks may
// read a few buckets past the stop position; those reads never feed the
// result. The tail before the array end falls back to single scalar
// steps so no load crosses the wrap-around.
__attribute__((target("avx2"))) uint32_t CellIndex::FindAvx2(
    uint64_t key) const {
  const size_t size = keys_.size();
  const size_t mask = size - 1;
  const __m256i needle =
      _mm256_set1_epi64x(static_cast<long long>(key));
  size_t i = BucketFor(key);
  for (;;) {
    if (i + 4 <= size) {
      const __m256i k = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&keys_[i]));
      const unsigned eqm = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(k, needle))));
      uint32_t s;
      std::memcpy(&s, &states_[i], sizeof(s));
      unsigned emptym = 0;
      unsigned fullm = 0;
      for (int j = 0; j < 4; ++j) {
        const uint32_t b = (s >> (8 * j)) & 0xffu;
        emptym |= (b == kEmpty ? 1u : 0u) << j;
        fullm |= (b == kFull ? 1u : 0u) << j;
      }
      const unsigned stop = emptym | (eqm & fullm);
      if (stop != 0) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(stop));
        if (emptym & (1u << j)) return kNpos;
        return heads_[i + j];
      }
      i = (i + 4) & mask;
    } else {
      if (states_[i] == kEmpty) return kNpos;
      if (states_[i] == kFull && keys_[i] == key) return heads_[i];
      i = (i + 1) & mask;
    }
  }
}
#endif  // RL0_CELL_INDEX_X86

uint32_t CellIndex::Find(uint64_t key) const {
#if RL0_CELL_INDEX_X86
  if (CellIndexAvx2Supported()) return FindAvx2(key);
#endif
  return FindScalar(key);
}

void CellIndex::SetHead(uint64_t key, uint32_t head) {
  (void)Upsert(key, head);
}

uint32_t CellIndex::Upsert(uint64_t key, uint32_t head) {
  RL0_DCHECK(head != kNpos);
  if ((used_ + 1) * 10 >= keys_.size() * 7) Grow();
  const size_t mask = keys_.size() - 1;
  size_t i = BucketFor(key);
  size_t insert_at = keys_.size();  // first tombstone seen, if any
  for (;;) {
    if (states_[i] == kFull && keys_[i] == key) {
      const uint32_t prev = heads_[i];
      heads_[i] = head;
      return prev;
    }
    if (states_[i] == kTombstone && insert_at == keys_.size()) insert_at = i;
    if (states_[i] == kEmpty) {
      if (insert_at == keys_.size()) {
        insert_at = i;
        ++used_;  // consuming a fresh empty bucket
      }
      keys_[insert_at] = key;
      heads_[insert_at] = head;
      states_[insert_at] = kFull;
      ++live_;
      return kNpos;
    }
    i = (i + 1) & mask;
  }
}

void CellIndex::Erase(uint64_t key) {
  const size_t mask = keys_.size() - 1;
  size_t i = BucketFor(key);
  for (;;) {
    if (states_[i] == kEmpty) return;
    if (states_[i] == kFull && keys_[i] == key) {
      states_[i] = kTombstone;
      --live_;
      return;
    }
    i = (i + 1) & mask;
  }
}

void CellIndex::Grow() {
  // The 70% trigger counts tombstones; under heavy rep churn (refilters,
  // window expiry) most of `used_` can be dead. Double only when live
  // keys genuinely crowd the table (≥ 35%); otherwise rehash at the same
  // size to clear tombstones, so the bucket array tracks the *live*
  // population — the bound kCellIndexEntryWords models — not the
  // cumulative insertion count.
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_heads = std::move(heads_);
  std::vector<uint8_t> old_states = std::move(states_);
  const bool double_size = (live_ + 1) * 20 >= old_keys.size() * 7;
  const size_t new_size = double_size ? old_keys.size() * 2 : old_keys.size();
  keys_.assign(new_size, 0);
  heads_.assign(new_size, kNpos);
  states_.assign(new_size, kEmpty);
  if (double_size) --shift_;
  live_ = 0;
  used_ = 0;
  const size_t mask = new_size - 1;
  for (size_t b = 0; b < old_keys.size(); ++b) {
    if (old_states[b] != kFull) continue;
    size_t i = BucketFor(old_keys[b]);
    while (states_[i] == kFull) i = (i + 1) & mask;
    keys_[i] = old_keys[b];
    heads_[i] = old_heads[b];
    states_[i] = kFull;
    ++live_;
    ++used_;
  }
}

RepTable::RepTable(size_t dim, bool with_reservoir)
    : dim_(dim), with_reservoir_(with_reservoir), store_(dim) {}

uint32_t RepTable::Add(PointView point, uint64_t id, uint64_t stream_index,
                       uint64_t cell_key, bool accepted) {
  RL0_DCHECK(point.dim() == dim_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    point_[slot] = store_.Add(point);
    if (with_reservoir_) sample_point_[slot] = store_.Add(point);
  } else {
    RL0_CHECK(flags_.size() < kNpos);
    slot = static_cast<uint32_t>(flags_.size());
    id_.push_back(0);
    stream_index_.push_back(0);
    cell_key_.push_back(0);
    point_.push_back(store_.Add(point));
    point_arena_.push_back(0);
    flags_.push_back(0);
    next_in_cell_.push_back(kNpos);
    if (with_reservoir_) {
      sample_point_.push_back(store_.Add(point));
      sample_index_.push_back(0);
      group_count_.push_back(0);
    }
  }
  point_arena_[slot] = store_.SlotIndexOf(point_[slot]);
  id_[slot] = id;
  stream_index_[slot] = stream_index;
  cell_key_[slot] = cell_key;
  flags_[slot] = kLiveFlag | (accepted ? kAcceptedFlag : 0);
  if (with_reservoir_) {
    sample_index_[slot] = stream_index;
    group_count_[slot] = 1;
  }
  Link(slot);
  ++live_;
  ++generation_;
  return slot;
}

void RepTable::Remove(uint32_t slot) {
  RL0_DCHECK(IsLive(slot));
  Unlink(slot);
  store_.Release(point_[slot]);
  if (with_reservoir_) store_.Release(sample_point_[slot]);
  flags_[slot] = 0;
  free_slots_.push_back(slot);
  --live_;
  ++generation_;
}

void RepTable::set_accepted(uint32_t slot, bool accepted) {
  if (accepted) {
    flags_[slot] |= kAcceptedFlag;
  } else {
    flags_[slot] &= static_cast<uint8_t>(~kAcceptedFlag);
  }
}

bool RepTable::MaybeCompact() {
  if (flags_.size() < kCompactMinSlots) return false;
  if (live_ * 2 > flags_.size()) return false;
  Compact();
  return true;
}

void RepTable::Compact() {
  const size_t slots = flags_.size();
  if (live_ == slots) return;  // dense already (free list is empty too)

  // Monotone old→new slot map: live slots keep their relative order, so
  // slot-order iterations (queries, snapshot byte streams, Refilter
  // scans) are invariant under compaction.
  std::vector<uint32_t> map(slots, kNpos);
  uint32_t packed_count = 0;
  for (uint32_t old = 0; old < slots; ++old) {
    if (IsLive(old)) map[old] = packed_count++;
  }

  // Capture the cell heads before the slot surgery; chain structure moves
  // over link by link through the remapped next_in_cell_ column, so each
  // cell's scan order — and with it FindCandidate's first match — is
  // untouched.
  std::vector<std::pair<uint64_t, uint32_t>> heads;
  heads.reserve(index_.live());
  index_.ForEach([&](uint64_t key, uint32_t head) {
    heads.emplace_back(key, map[head]);
  });

  // Repack the arena in new slot order: after heavy refilter churn the
  // live coordinates are scattered across free-list holes; the batched
  // kernels stream much better over the re-densified buffer.
  PointStore packed(dim_);
  for (uint32_t old = 0; old < slots; ++old) {
    if (!IsLive(old)) continue;
    // map[old] ≤ old always, so ascending in-place moves never clobber
    // an entry that is still to be read.
    const uint32_t slot = map[old];
    id_[slot] = id_[old];
    stream_index_[slot] = stream_index_[old];
    cell_key_[slot] = cell_key_[old];
    flags_[slot] = flags_[old];
    const uint32_t old_next = next_in_cell_[old];
    next_in_cell_[slot] = old_next == kNpos ? kNpos : map[old_next];
    point_[slot] = packed.Add(store_.View(point_[old]));
    point_arena_[slot] = packed.SlotIndexOf(point_[slot]);
    if (with_reservoir_) {
      sample_point_[slot] = packed.Add(store_.View(sample_point_[old]));
      sample_index_[slot] = sample_index_[old];
      group_count_[slot] = group_count_[old];
    }
  }
  store_ = std::move(packed);

  id_.resize(packed_count);
  stream_index_.resize(packed_count);
  cell_key_.resize(packed_count);
  point_.resize(packed_count);
  point_arena_.resize(packed_count);
  flags_.resize(packed_count);
  next_in_cell_.resize(packed_count);
  if (with_reservoir_) {
    sample_point_.resize(packed_count);
    sample_index_.resize(packed_count);
    group_count_.resize(packed_count);
  }
  free_slots_.clear();

  index_ = CellIndex();
  for (const auto& entry : heads) index_.SetHead(entry.first, entry.second);
  ++generation_;
}

void RepTable::RekeyCell(uint32_t slot, uint64_t new_cell_key) {
  Unlink(slot);
  cell_key_[slot] = new_cell_key;
  Link(slot);
  ++generation_;
}

void RepTable::Link(uint32_t slot) {
  next_in_cell_[slot] = index_.Upsert(cell_key_[slot], slot);
}

void RepTable::Unlink(uint32_t slot) {
  const uint64_t key = cell_key_[slot];
  const uint32_t head = index_.Find(key);
  RL0_DCHECK(head != kNpos);
  if (head == slot) {
    const uint32_t next = next_in_cell_[slot];
    if (next == kNpos) {
      index_.Erase(key);
    } else {
      index_.SetHead(key, next);
    }
  } else {
    uint32_t prev = head;
    while (next_in_cell_[prev] != slot) {
      prev = next_in_cell_[prev];
      RL0_DCHECK(prev != kNpos);
    }
    next_in_cell_[prev] = next_in_cell_[slot];
  }
  next_in_cell_[slot] = kNpos;
}

}  // namespace rl0
