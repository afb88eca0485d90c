#include "rl0/core/dup_filter.h"

namespace rl0 {

DupFilter::DupFilter(size_t dim, size_t payload_len, bool enabled)
    : enabled_(enabled && kCompiledIn), dim_(dim), payload_len_(payload_len) {
  if (!enabled_) return;
  tags_.assign(kEntries, 0);
  keys_.assign(kEntries, 0);
  epochs_.assign(kEntries, 0);
  payload_.assign(kEntries * payload_len_, 0);
  bytes_.assign(kEntries * dim_, 0.0);
  mru_.assign(kSets, 0);
}

DupFilter::View DupFilter::Lookup(uint64_t cell_key, PointView p) const {
  View v;
  if (!enabled_) return v;
  const Slot s = SlotFor(cell_key);
  for (size_t way = 0; way < kWays; ++way) {
    const size_t e = s.set * kWays + way;
    if (!EntryMatches(e, s, cell_key, p)) continue;
    mru_[s.set] = static_cast<uint8_t>(way);
    v.payload = &payload_[e * payload_len_];
    v.epoch = epochs_[e];
    v.found = true;
    return v;
  }
  return v;
}

uint32_t* DupFilter::Store(uint64_t cell_key, uint64_t epoch, PointView p) {
  if (!enabled_) return nullptr;
  const Slot s = SlotFor(cell_key);
  // Refresh an identical entry in place (epoch/payload update after a stale
  // replay), else fill an empty way, else evict the way the set touched
  // least recently — keeping the hot pattern of a cell resident while a
  // different byte pattern of the same cell churns the other way.
  size_t way = kWays;
  bool refresh = false;
  for (size_t w = 0; w < kWays; ++w) {
    if (EntryMatches(s.set * kWays + w, s, cell_key, p)) {
      way = w;
      refresh = true;
      break;
    }
  }
  if (way == kWays) {
    for (size_t w = 0; w < kWays; ++w) {
      if (tags_[s.set * kWays + w] == 0) {
        way = w;
        break;
      }
    }
  }
  if (way == kWays) way = 1u - mru_[s.set];
  const size_t e = s.set * kWays + way;
  mru_[s.set] = static_cast<uint8_t>(way);
  epochs_[e] = epoch;
  if (!refresh) {
    tags_[e] = s.tag;
    keys_[e] = cell_key;
    std::memcpy(&bytes_[e * dim_], p.data(), dim_ * sizeof(double));
  }
  return &payload_[e * payload_len_];
}

}  // namespace rl0
