// Grid cell coordinates and 64-bit cell keys.
//
// A cell of the random grid is identified by its integer coordinate vector
// (c1, ..., cd). The paper (Section 2.1) numbers cells of the bounded grid
// row-major; to support unbounded coordinates and any dimension we instead
// map the coordinate vector to a 64-bit key with a fixed (unseeded) strong
// mixing combine. The sampling hash h (CellHasher, which *is* seeded) is
// applied on top of this key, so the composition plays the role of the
// paper's hash on cell IDs. Key collisions would merge two distant cells
// with probability ~ (#cells)^2 / 2^64 — negligible at streaming scales and
// harmless to correctness of group assignment (which is distance-checked).

#ifndef RL0_GRID_CELL_H_
#define RL0_GRID_CELL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rl0/util/rng.h"

namespace rl0 {

/// Integer coordinates of a grid cell.
using CellCoord = std::vector<int64_t>;

/// The cell-key fold, exposed axis by axis so hot paths (the adjacency
/// search) can carry partial hashes along the search instead of
/// materializing coordinate vectors: a d-dim key is
///   CellKeyCombine(...CellKeyCombine(CellKeySeed(d), c1)..., cd).
inline uint64_t CellKeySeed(size_t dim) {
  return SplitMix64(0x5274D1E5ULL + dim);
}
inline uint64_t CellKeyCombine(uint64_t h, int64_t coord) {
  return SplitMix64(h ^ SplitMix64(static_cast<uint64_t>(coord)));
}

/// Maps a coordinate vector to a 64-bit cell key (fixed mixing combine).
uint64_t CellKeyOf(const CellCoord& coord);

/// Row-major cell ID for a bounded 2-d grid with `columns` columns, exactly
/// as in the paper's Section 2.1 ((i-1)·Δ + j). Provided for tests and for
/// fidelity demonstrations; requires non-negative coordinates.
uint64_t RowMajorCellId2D(int64_t row, int64_t col, int64_t columns);

}  // namespace rl0

#endif  // RL0_GRID_CELL_H_
