#include "rl0/grid/random_grid.h"

#include <algorithm>
#include <cmath>

#include "rl0/geom/distance_kernels.h"
#include "rl0/util/check.h"
#include "rl0/util/rng.h"

namespace rl0 {

namespace {
thread_local uint64_t g_dfs_nodes = 0;

// Folds one per-axis box distance into the running accumulator under
// the metric (L2: sum of squares; L1: sum; L∞: max).
template <Metric kMetric>
double AccumulateAs(double acc, double axis_distance) {
  if constexpr (kMetric == Metric::kL2) {
    return acc + axis_distance * axis_distance;
  } else if constexpr (kMetric == Metric::kL1) {
    return acc + axis_distance;
  } else {
    return std::max(acc, axis_distance);
  }
}

// Per-point adjacency scratch, one struct so the hot path pays a single
// thread-local address computation. `hash`/`acc` are FoldAdjacentKeys's
// frontier columns. They grow on demand (a point near many cell faces, or
// a constant-d grid, can carry hundreds of prefixes) and keep their size
// between calls.
struct AdjScratch {
  std::vector<int64_t> base;
  std::vector<double> scaled;
  std::vector<uint64_t> hash;
  std::vector<double> acc;
};
thread_local AdjScratch g_adj_scratch;

// Breadth-first form of DfsSearch over cell keys (CellKeySeed /
// CellKeyCombine folded one axis at a time). `hash`/`acc` hold the partial
// key and accumulated distance of every live prefix. At each axis every
// prefix first appends its ±o branches that fit the budget, computed from
// its pre-fold key and distance with DfsSearch's exact expressions, then
// folds offset 0 into itself. Offset 0 adds no distance, so no prefix ever
// dies, and entry 0 — never branched — ends as the key of cell(p). The
// folds of different prefixes are independent, so they overlap in the
// pipeline where a depth-first recursion runs them one after another.
// A template per metric, so the branch tests do not re-dispatch on it.
// Leaves the keys in scratch->hash[0, n), cell(p)'s first, and returns n.
template <Metric kMetric>
size_t FoldAdjacentKeys(size_t dim, double side, double budget,
                        AdjScratch* scratch) {
  const int64_t* base = scratch->base.data();
  const double* scaled = scratch->scaled.data();
  // Raw column pointers and register counts: an append must not make the
  // compiler reload the frontier through the vectors.
  uint64_t* hash = scratch->hash.data();
  double* acc = scratch->acc.data();
  size_t capacity = scratch->hash.size();
  auto append = [&](uint64_t key, double next, size_t n) {
    if (n == capacity) {
      capacity = std::max<size_t>(2 * capacity, 16);
      scratch->hash.resize(capacity);
      scratch->acc.resize(capacity);
      hash = scratch->hash.data();
      acc = scratch->acc.data();
    }
    hash[n] = key;
    acc[n] = next;
  };
  size_t n = 0;
  append(CellKeySeed(dim), 0.0, n++);
  uint64_t nodes = 0;
  for (size_t i = 0; i < dim; ++i) {
    const size_t live = n;
    nodes += live;
    const double frac = scaled[i];
    const int64_t b = base[i];
    for (size_t j = 0; j < live; ++j) {
      const uint64_t prefix = hash[j];
      const double prefix_acc = acc[j];
      // Negative offsets: distance grows with |o|; stop at the first prune.
      for (int64_t o = -1;; --o) {
        const double d = frac + (static_cast<double>(-o) - 1.0) * side;
        const double next = AccumulateAs<kMetric>(prefix_acc, d);
        if (next > budget) break;
        append(CellKeyCombine(prefix, b + o), next, n++);
      }
      // Positive offsets.
      for (int64_t o = 1;; ++o) {
        const double d = static_cast<double>(o) * side - frac;
        const double next = AccumulateAs<kMetric>(prefix_acc, d);
        if (next > budget) break;
        append(CellKeyCombine(prefix, b + o), next, n++);
      }
    }
    // Offset 0 for every prefix that existed before this axis; the inner
    // mix is shared (== CellKeyCombine(prefix, b) bit for bit).
    const uint64_t mix0 = SplitMix64(static_cast<uint64_t>(b));
    for (size_t j = 0; j < live; ++j) hash[j] = SplitMix64(hash[j] ^ mix0);
  }
  g_dfs_nodes = nodes + n;
  return n;
}
}  // namespace

RandomGrid::RandomGrid(size_t dim, double side, uint64_t seed, Metric metric)
    : dim_(dim), side_(side), metric_(metric) {
  RL0_CHECK(dim >= 1);
  RL0_CHECK(side > 0.0);
  Xoshiro256pp rng(SplitMix64(seed ^ 0xC3115A11D5EEDULL));
  offset_.resize(dim);
  for (double& o : offset_) o = rng.NextDouble() * side;
}

double RandomGrid::Accumulate(double acc, double axis_distance) const {
  switch (metric_) {
    case Metric::kL2:
      return AccumulateAs<Metric::kL2>(acc, axis_distance);
    case Metric::kL1:
      return AccumulateAs<Metric::kL1>(acc, axis_distance);
    case Metric::kLinf:
      return AccumulateAs<Metric::kLinf>(acc, axis_distance);
  }
  return acc;
}

CellCoord RandomGrid::CellCoordOf(PointView p) const {
  RL0_DCHECK(p.dim() == dim_);
  CellCoord coord(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    coord[i] = static_cast<int64_t>(std::floor((p[i] - offset_[i]) / side_));
  }
  return coord;
}

uint64_t RandomGrid::CellKeyOf(PointView p) const {
  RL0_DCHECK(p.dim() == dim_);
  // Allocation-free fold, identical to CellKeyOf(CellCoordOf(p)).
  uint64_t h = CellKeySeed(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    h = CellKeyCombine(h, static_cast<int64_t>(
                              std::floor((p[i] - offset_[i]) / side_)));
  }
  return h;
}

double RandomGrid::DistanceToCell(PointView p,
                                  const CellCoord& coord) const {
  RL0_DCHECK(p.dim() == dim_ && coord.size() == dim_);
  double acc = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    const double lo = offset_[i] + static_cast<double>(coord[i]) * side_;
    const double hi = lo + side_;
    double d = 0.0;
    if (p[i] < lo) {
      d = lo - p[i];
    } else if (p[i] > hi) {
      d = p[i] - hi;
    }
    acc = Accumulate(acc, d);
  }
  return metric_ == Metric::kL2 ? std::sqrt(acc) : acc;
}

// Depth-first search over per-axis cell offsets. `scaled[i]` is the
// fractional position of p inside its cell on axis i (in [0, side)).
// For an axis offset o, the per-axis distance from p to the offset cell is
//   o == 0 : 0
//   o  > 0 : o*side - scaled[i]          (move up to the cell's low face)
//   o  < 0 : scaled[i] + (|o|-1)*side    (move down to the cell's high face)
// Offsets are explored in order of increasing distance (0, -1, +1, -2, ...)
// so each direction can stop at the first pruned offset. The accumulator
// `acc` folds per-axis distances under the grid's metric (Accumulate);
// `budget` is α² for L2 and α otherwise. Pruning is exact because every
// Minkowski accumulator is monotone in each axis distance.
void RandomGrid::DfsSearch(PointView p, const CellCoord& base,
                           const std::vector<double>& scaled, double budget,
                           size_t axis, double acc, CellCoord* current,
                           std::vector<CellCoord>* out) const {
  ++g_dfs_nodes;
  if (axis == dim_) {
    out->push_back(*current);
    return;
  }
  const double frac = scaled[axis];
  // Offset 0 first: zero added distance.
  (*current)[axis] = base[axis];
  DfsSearch(p, base, scaled, budget, axis + 1, acc, current, out);
  // Negative offsets: distance grows with |o|; stop at the first prune.
  for (int64_t o = -1;; --o) {
    const double d =
        frac + (static_cast<double>(-o) - 1.0) * side_;
    const double next = Accumulate(acc, d);
    if (next > budget) break;
    (*current)[axis] = base[axis] + o;
    DfsSearch(p, base, scaled, budget, axis + 1, next, current, out);
  }
  // Positive offsets.
  for (int64_t o = 1;; ++o) {
    const double d = static_cast<double>(o) * side_ - frac;
    const double next = Accumulate(acc, d);
    if (next > budget) break;
    (*current)[axis] = base[axis] + o;
    DfsSearch(p, base, scaled, budget, axis + 1, next, current, out);
  }
  (*current)[axis] = base[axis];
}

void RandomGrid::AdjacentCellCoords(PointView p, double alpha,
                                    std::vector<CellCoord>* out) const {
  RL0_DCHECK(p.dim() == dim_);
  RL0_DCHECK(alpha > 0.0);
  out->clear();
  g_dfs_nodes = 0;
  const CellCoord base = CellCoordOf(p);
  std::vector<double> scaled(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    const double lo = offset_[i] + static_cast<double>(base[i]) * side_;
    scaled[i] = p[i] - lo;  // in [0, side)
  }
  CellCoord current = base;
  const double budget = metric_ == Metric::kL2 ? alpha * alpha : alpha;
  DfsSearch(p, base, scaled, budget, 0, 0.0, &current, out);
}

// Hot-path adjacency: the same cells as DfsSearch, without CellCoord
// materialization — quantization runs through the vectorized QuantizeAxes
// kernel (bit-identical to the scalar loop, see geom/distance_kernels.h)
// and FoldAdjacentKeys folds the cell keys breadth-first.
template <typename KeyVec>
uint64_t RandomGrid::AdjacentCellsImpl(PointView p, double alpha,
                                       KeyVec* out) const {
  RL0_DCHECK(p.dim() == dim_);
  RL0_DCHECK(alpha > 0.0);
  AdjScratch& scratch = g_adj_scratch;
  scratch.base.resize(dim_);
  scratch.scaled.resize(dim_);
  int64_t* base = scratch.base.data();
  double* scaled = scratch.scaled.data();
  if (dim_ >= 4) {
    QuantizeAxes(p.data(), offset_.data(), dim_, side_, base, scaled);
  } else {
    // Below a vector's width the dispatch call costs more than it saves.
    for (size_t i = 0; i < dim_; ++i) {
      base[i] = static_cast<int64_t>(std::floor((p[i] - offset_[i]) / side_));
      scaled[i] = p[i] - (offset_[i] + static_cast<double>(base[i]) * side_);
    }
  }
  size_t n = 0;
  switch (metric_) {
    case Metric::kL2:
      n = FoldAdjacentKeys<Metric::kL2>(dim_, side_, alpha * alpha, &scratch);
      break;
    case Metric::kL1:
      n = FoldAdjacentKeys<Metric::kL1>(dim_, side_, alpha, &scratch);
      break;
    case Metric::kLinf:
      n = FoldAdjacentKeys<Metric::kLinf>(dim_, side_, alpha, &scratch);
      break;
  }
  out->clear();
  for (size_t j = 0; j < n; ++j) out->push_back(scratch.hash[j]);
  std::sort(out->begin(), out->end());
  return scratch.hash[0];
}

void RandomGrid::AdjacentCells(PointView p, double alpha,
                               std::vector<uint64_t>* out) const {
  (void)AdjacentCellsImpl(p, alpha, out);
}

void RandomGrid::AdjacentCells(PointView p, double alpha,
                               AdjKeyVec* out) const {
  (void)AdjacentCellsImpl(p, alpha, out);
}

uint64_t RandomGrid::AdjacentCellsWithBase(PointView p, double alpha,
                                           AdjKeyVec* out) const {
  return AdjacentCellsImpl(p, alpha, out);
}

uint64_t RandomGrid::AdjacentCellsWithBase(PointView p, double alpha,
                                           std::vector<uint64_t>* out) const {
  return AdjacentCellsImpl(p, alpha, out);
}

void RandomGrid::AdjacentCellsNaive(PointView p, double alpha,
                                    std::vector<uint64_t>* out) const {
  RL0_DCHECK(p.dim() == dim_);
  out->clear();
  const CellCoord base = CellCoordOf(p);
  const int64_t r = static_cast<int64_t>(std::floor(alpha / side_)) + 1;
  CellCoord current(dim_);
  const double alpha_sq = alpha * alpha;
  // Odometer enumeration of the full (2r+1)^d block.
  std::vector<int64_t> off(dim_, -r);
  const double budget = metric_ == Metric::kL2 ? alpha_sq : alpha;
  for (;;) {
    for (size_t i = 0; i < dim_; ++i) current[i] = base[i] + off[i];
    // Exact box distance (not the incremental DFS formula) as a cross-check.
    double acc = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      const double lo = offset_[i] + static_cast<double>(current[i]) * side_;
      const double hi = lo + side_;
      double d = 0.0;
      if (p[i] < lo) d = lo - p[i];
      if (p[i] > hi) d = p[i] - hi;
      acc = Accumulate(acc, d);
    }
    if (acc <= budget) out->push_back(::rl0::CellKeyOf(current));
    size_t axis = 0;
    while (axis < dim_ && ++off[axis] > r) {
      off[axis] = -r;
      ++axis;
    }
    if (axis == dim_) break;
  }
  std::sort(out->begin(), out->end());
}

void RandomGrid::AdjacentCellsPaperDfs(PointView p, double alpha,
                                       std::vector<uint64_t>* out) const {
  RL0_DCHECK(p.dim() == dim_);
  out->clear();
  // Work in grid units (side rescaled to 1), exactly as Section 6.2.
  std::vector<double> x(dim_);
  for (size_t i = 0; i < dim_; ++i) x[i] = (p[i] - offset_[i]) / side_;
  const double alpha_scaled = alpha / side_;
  const double alpha_sq = alpha_scaled * alpha_scaled;

  std::vector<double> y(dim_, 0.0);
  CellCoord cell(dim_);
  // Recursive lambda implementing Algorithm 6 (SearchAdj).
  auto search = [&](auto&& self, size_t i, double s) -> void {
    if (s > alpha_sq) return;
    if (i == dim_) {
      // q' = q + 0.01 (q - p): nudge off the boundary, then take floor.
      for (size_t j = 0; j < dim_; ++j) {
        const double qj = y[j] + 0.01 * (y[j] - x[j]);
        cell[j] = static_cast<int64_t>(std::floor(qj));
      }
      out->push_back(::rl0::CellKeyOf(cell));
      return;
    }
    const double fl = std::floor(x[i]);
    const double ce = std::ceil(x[i]);
    y[i] = fl;
    self(self, i + 1, s + (fl - x[i]) * (fl - x[i]));
    y[i] = x[i];
    self(self, i + 1, s);
    y[i] = ce;
    self(self, i + 1, s + (ce - x[i]) * (ce - x[i]));
  };
  search(search, 0, 0.0);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

uint64_t RandomGrid::last_dfs_nodes() { return g_dfs_nodes; }

}  // namespace rl0
