// Shared immutable state for a family of sampler instances.
//
// The hierarchical sliding-window sampler (Algorithm 3) runs many
// fixed-rate instances (Algorithm 2) that must share one random grid and
// one nested cell hash — levels differ only in the sampling level ℓ
// compared against a cell's CellHasher::Depth. SamplerContext bundles that
// shared state.

#ifndef RL0_CORE_CONTEXT_H_
#define RL0_CORE_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/grid/random_grid.h"
#include "rl0/hashing/cell_hasher.h"
#include "rl0/util/rng.h"

namespace rl0 {

struct PreparedPoint;

/// Immutable per-sampler-family state: options, grid, hash.
struct SamplerContext {
  explicit SamplerContext(const SamplerOptions& opts)
      : options(opts),
        grid(opts.dim, opts.GridSide(), SplitMix64(opts.seed ^ 0x6772696400ULL),
             opts.metric),
        hasher(opts.hash_family, SplitMix64(opts.seed ^ 0x68617368ULL),
               opts.kwise_k) {}

  /// Fills `prep`'s point, cell key, adjacency (written into `adj`) and
  /// hash depths for `p` — the per-arrival work every level shares. The
  /// caller sets stamp, stream index and (in a hierarchy) chain_levels.
  inline void Prepare(const Point& p, std::vector<uint64_t>* adj,
                      PreparedPoint* prep) const;

  SamplerOptions options;
  RandomGrid grid;
  CellHasher hasher;
};

/// A stream point with everything the per-level samplers need, computed
/// once per arrival (the adjacency DFS dominates per-point cost and must
/// not be repeated at every level).
struct PreparedPoint {
  const Point* point = nullptr;
  int64_t stamp = 0;
  uint64_t stream_index = 0;
  uint64_t cell_key = 0;
  const std::vector<uint64_t>* adj_keys = nullptr;
  /// CellHasher::Depth of cell_key: p's own cell is sampled at level ℓ
  /// iff ℓ ≤ cell_depth (a new representative is accepted there).
  uint32_t cell_depth = 0;
  /// The maximum Depth over adj_keys: some cell near p is sampled at
  /// level ℓ iff ℓ ≤ adj_depth (else a new representative is ignored).
  uint32_t adj_depth = 0;
  /// Bit ℓ clear ⇒ level ℓ holds no chain in any cell of adj_keys, so
  /// its candidate probe is skipped. Any superset of the true set is
  /// correct; all ones (the default) probes every level.
  uint64_t chain_levels = ~uint64_t{0};
};

void SamplerContext::Prepare(const Point& p, std::vector<uint64_t>* adj,
                             PreparedPoint* prep) const {
  prep->point = &p;
  // Fused pass: the adjacency search also yields cell(p)'s key.
  prep->cell_key = grid.AdjacentCellsWithBase(p, options.alpha, adj);
  prep->adj_keys = adj;
  // One hash per adjacent cell decides every level (Fact 1(b)). adj(p)
  // always contains cell(p) (RandomGrid::AdjacentCells), so its depth is
  // read off the same pass.
  uint32_t adj_depth = 0;
  for (uint64_t key : *adj) {
    const uint32_t depth = hasher.Depth(key);
    if (depth > adj_depth) adj_depth = depth;
    if (key == prep->cell_key) prep->cell_depth = depth;
  }
  prep->adj_depth = adj_depth;
}

}  // namespace rl0

#endif  // RL0_CORE_CONTEXT_H_
