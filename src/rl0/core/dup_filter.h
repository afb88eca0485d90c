#ifndef RL0_CORE_DUP_FILTER_H_
#define RL0_CORE_DUP_FILTER_H_

#include <cstdint>

namespace rl0 {

// No sampler has a duplicate-suppression front-end: a cache of recent
// exact arrivals does not pay on any workload. A pool lane sees one
// residue class of the stream, so on a 90%-repeat stream it hits 29% of
// arrivals, and every lookup pays a full CellKeyOf before it knows whether
// it hit (docs/ARCHITECTURE.md, "The IW insert path"). What remains is
// the counter surface rl0bench/ reads (`filter_stats()` on the samplers,
// `FilterStats()` on the pools): every arrival counts as bypassed.

// Duplicate-suppression counters. With no filter, hits and misses stay 0
// and `bypassed` is the sampler's points_processed.
struct DupFilterStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bypassed = 0;

  DupFilterStats& operator+=(const DupFilterStats& o) {
    hits += o.hits;
    misses += o.misses;
    bypassed += o.bypassed;
    return *this;
  }
};

// Names the build setting rl0bench/ reports; no filter is compiled in.
struct DupFilter {
  static constexpr bool kCompiledIn = false;
};

}  // namespace rl0

#endif  // RL0_CORE_DUP_FILTER_H_
