// The randomly shifted grid over R^d and the adj(p) neighborhood search.
//
// Section 2.1 of the paper posts a random grid of side α/2 (constant d) or
// d·α (high d, Section 4) over the space. For a point p,
//
//   cell(p) = the cell containing p,
//   adj(p)  = { cells C : d(p, C) ≤ α },
//
// where d(p, C) is the minimum distance from p to the (closed) cell box.
// adj(p) is computed with the paper's DFS over per-coordinate nearest
// points (Algorithms 6–7): for each axis the point either stays, moves to
// the lower cell boundary, or to the upper one; the search prunes as soon
// as the accumulated squared movement exceeds α². We generalize the
// per-axis moves to offsets -r..+r with r = ⌊α/side⌋ + 1 so the search is
// exact in the constant-d regime too (side = α/2 ⇒ cells two away can
// still be within α; the paper's |adj(p)| ≤ 25 bound in 2-d corresponds to
// the 5×5 block). With r = 1 the search degenerates to exactly the paper's
// Algorithm 6.

#ifndef RL0_GRID_RANDOM_GRID_H_
#define RL0_GRID_RANDOM_GRID_H_

#include <cstdint>
#include <vector>

#include "rl0/geom/metric.h"
#include "rl0/geom/point.h"
#include "rl0/grid/cell.h"
#include "rl0/util/small_vector.h"

namespace rl0 {

/// Adjacency key buffer with inline storage. 32 covers the paper's 2-d
/// worst case (|adj(p)| ≤ 25, the 5×5 block) and the high-dimension
/// regime's typical handful of keys, so the ingestion hot path never
/// allocates for adjacency results.
using AdjKeyVec = SmallVector<uint64_t, 32>;

/// A randomly shifted axis-aligned grid with cubic cells.
///
/// Immutable after construction; all methods are const and thread-safe.
class RandomGrid {
 public:
  /// Creates a grid over R^dim with the given cell side length; the offset
  /// is drawn uniformly from [0, side)^dim using `seed`. The metric
  /// governs DistanceToCell and the adjacency searches (the DFS pruning is
  /// exact for all Minkowski metrics; default L2 per the paper).
  /// Requires dim >= 1 and side > 0.
  RandomGrid(size_t dim, double side, uint64_t seed,
             Metric metric = Metric::kL2);

  /// Dimension of the underlying space.
  size_t dim() const { return dim_; }

  /// Cell side length.
  double side() const { return side_; }

  /// The random offset (for tests).
  const std::vector<double>& offset() const { return offset_; }

  /// The metric in force.
  Metric metric() const { return metric_; }

  /// Integer coordinates of the cell containing p. Requires p.dim()==dim().
  CellCoord CellCoordOf(PointView p) const;

  /// 64-bit key of the cell containing p.
  uint64_t CellKeyOf(PointView p) const;

  /// Minimum Euclidean distance from p to the closed box of cell `coord`.
  double DistanceToCell(PointView p, const CellCoord& coord) const;

  /// Computes adj(p) = keys of all cells within distance `alpha` of p,
  /// including cell(p) itself, via the pruned search described above
  /// (walked breadth-first over cell keys; same cells as the DFS).
  /// Results are appended to `out` (cleared first). Deterministic order.
  void AdjacentCells(PointView p, double alpha,
                     std::vector<uint64_t>* out) const;

  /// As above into an inline-capacity buffer — the allocation-free form
  /// the sampler hot paths use. Identical keys and order.
  void AdjacentCells(PointView p, double alpha, AdjKeyVec* out) const;

  /// As AdjacentCells, and additionally returns the key of cell(p) itself
  /// — bitwise CellKeyOf(p), read off the search's zero-offset path for
  /// free. The samplers' insert paths need both every element; fusing the
  /// two saves a full per-axis quantize-and-fold pass per point.
  uint64_t AdjacentCellsWithBase(PointView p, double alpha,
                                 AdjKeyVec* out) const;
  uint64_t AdjacentCellsWithBase(PointView p, double alpha,
                                 std::vector<uint64_t>* out) const;

  /// As AdjacentCells but returns coordinates (used by tests/baselines).
  void AdjacentCellCoords(PointView p, double alpha,
                          std::vector<CellCoord>* out) const;

  /// Reference implementation: full enumeration of the (2r+1)^d block with
  /// a distance filter. Exponential in d — tests and benchmarks only.
  void AdjacentCellsNaive(PointView p, double alpha,
                          std::vector<uint64_t>* out) const;

  /// Literal transcription of the paper's Algorithm 6/7 (per-axis moves to
  /// ⌊x⌋/stay/⌈x⌉ in grid units, boundary nudge by 0.01·(q-p)). Exact only
  /// when side ≥ alpha (the high-dimension regime it was designed for).
  /// Exposed for fidelity tests against AdjacentCells.
  void AdjacentCellsPaperDfs(PointView p, double alpha,
                             std::vector<uint64_t>* out) const;

  /// Number of search nodes of the last adjacency call on this thread
  /// (AdjacentCells*, AdjacentCellCoords): one per live partial path at
  /// each axis plus one per emitted cell, the same count for the
  /// breadth-first key search and the coordinate DFS — instrumentation
  /// for the Section 6.2 pruning benchmark.
  static uint64_t last_dfs_nodes();

 private:
  void DfsSearch(PointView p, const CellCoord& base,
                 const std::vector<double>& scaled, double budget,
                 size_t axis, double acc, CellCoord* current,
                 std::vector<CellCoord>* out) const;

  /// Shared body of the AdjacentCells overloads: the same per-axis moves
  /// and pruning as DfsSearch, taken breadth-first over partial cell keys
  /// instead of coordinate vectors (see random_grid.cc). Returns the key
  /// of cell(p).
  template <typename KeyVec>
  uint64_t AdjacentCellsImpl(PointView p, double alpha, KeyVec* out) const;

  /// Folds one per-axis box distance into the running accumulator
  /// (L2: sum of squares; L1: sum; L∞: max).
  double Accumulate(double acc, double axis_distance) const;

  size_t dim_;
  double side_;
  Metric metric_;
  std::vector<double> offset_;
};

}  // namespace rl0

#endif  // RL0_GRID_RANDOM_GRID_H_
