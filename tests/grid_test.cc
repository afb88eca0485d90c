// Unit tests for rl0/grid: cell coordinates, keys, and the adj(p) DFS
// (paper Algorithms 6-7 and the |adj| bounds used by Lemmas 2.6 / 4.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "rl0/geom/point.h"
#include "rl0/grid/cell.h"
#include "rl0/grid/random_grid.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

TEST(CellKeyTest, DeterministicAndCoordSensitive) {
  EXPECT_EQ(CellKeyOf({1, 2, 3}), CellKeyOf({1, 2, 3}));
  EXPECT_NE(CellKeyOf({1, 2, 3}), CellKeyOf({1, 2, 4}));
  EXPECT_NE(CellKeyOf({1, 2, 3}), CellKeyOf({3, 2, 1}));
  EXPECT_NE(CellKeyOf({5}), CellKeyOf({5, 0}));  // dimension-sensitive
}

TEST(CellKeyTest, NoCollisionsOnDenseBlock) {
  std::set<uint64_t> keys;
  for (int64_t x = -10; x <= 10; ++x) {
    for (int64_t y = -10; y <= 10; ++y) {
      keys.insert(CellKeyOf({x, y}));
    }
  }
  EXPECT_EQ(keys.size(), 21u * 21u);
}

TEST(RowMajorCellId2DTest, MatchesPaperFormula) {
  // Paper: cell on row i, column j gets ID (i-1)·Δ + j with 1-based
  // indices; our 0-based equivalent is row·Δ + col.
  EXPECT_EQ(RowMajorCellId2D(0, 0, 100), 0u);
  EXPECT_EQ(RowMajorCellId2D(0, 99, 100), 99u);
  EXPECT_EQ(RowMajorCellId2D(1, 0, 100), 100u);
  EXPECT_EQ(RowMajorCellId2D(3, 7, 10), 37u);
}

TEST(RandomGridTest, OffsetWithinSide) {
  RandomGrid grid(3, 2.5, 99);
  ASSERT_EQ(grid.offset().size(), 3u);
  for (double o : grid.offset()) {
    EXPECT_GE(o, 0.0);
    EXPECT_LT(o, 2.5);
  }
}

TEST(RandomGridTest, DifferentSeedsDifferentOffsets) {
  RandomGrid a(2, 1.0, 1), b(2, 1.0, 2);
  EXPECT_NE(a.offset(), b.offset());
  RandomGrid c(2, 1.0, 1);
  EXPECT_EQ(a.offset(), c.offset());
}

TEST(RandomGridTest, CellCoordConsistentWithGeometry) {
  RandomGrid grid(2, 1.0, 5);
  const Point p{3.7, -2.2};
  const CellCoord c = grid.CellCoordOf(p);
  // p must lie inside the box of its own cell.
  EXPECT_DOUBLE_EQ(grid.DistanceToCell(p, c), 0.0);
  for (size_t i = 0; i < 2; ++i) {
    const double lo = grid.offset()[i] + static_cast<double>(c[i]) * 1.0;
    EXPECT_GE(p[i], lo);
    EXPECT_LT(p[i], lo + 1.0);
  }
}

TEST(RandomGridTest, NearbyPointsSameCell) {
  RandomGrid grid(2, 10.0, 3);
  const Point p{5.0, 5.0};
  const Point q{5.001, 5.001};
  EXPECT_EQ(grid.CellKeyOf(p), grid.CellKeyOf(q));
}

TEST(RandomGridTest, DistanceToCellKnownValues) {
  // Grid with zero-ish offset is hard to force; use relative checks: the
  // distance to the own cell is 0 and to a far cell grows with the gap.
  RandomGrid grid(1, 1.0, 17);
  const Point p{0.5};
  const CellCoord own = grid.CellCoordOf(p);
  CellCoord far = own;
  far[0] += 5;
  const double d5 = grid.DistanceToCell(p, far);
  far[0] += 1;
  const double d6 = grid.DistanceToCell(p, far);
  EXPECT_GT(d5, 3.0);
  EXPECT_NEAR(d6 - d5, 1.0, 1e-12);
}

TEST(AdjacencyTest, IncludesOwnCell) {
  RandomGrid grid(2, 1.0, 7);
  const Point p{0.3, 0.4};
  std::vector<uint64_t> adj;
  grid.AdjacentCells(p, 0.9, &adj);
  const uint64_t own = grid.CellKeyOf(p);
  EXPECT_NE(std::find(adj.begin(), adj.end(), own), adj.end());
}

TEST(AdjacencyTest, SortedAndUnique) {
  RandomGrid grid(3, 0.5, 11);
  const Point p{0.1, 0.2, 0.3};
  std::vector<uint64_t> adj;
  grid.AdjacentCells(p, 1.0, &adj);
  EXPECT_TRUE(std::is_sorted(adj.begin(), adj.end()));
  EXPECT_EQ(std::adjacent_find(adj.begin(), adj.end()), adj.end());
}

TEST(AdjacencyTest, ConstantDimBlockBound) {
  // Paper Lemma 2.6 (2-d, side α/2): |adj(p)| ≤ 25 (the 5x5 block).
  RandomGrid grid(2, 0.5, 13);  // side = α/2 with α = 1
  Xoshiro256pp rng(21);
  std::vector<uint64_t> adj;
  for (int i = 0; i < 200; ++i) {
    const Point p{10.0 * rng.NextDouble(), 10.0 * rng.NextDouble()};
    grid.AdjacentCells(p, 1.0, &adj);
    EXPECT_LE(adj.size(), 25u);
    EXPECT_GE(adj.size(), 9u);  // at least the 3x3 block around p
  }
}

TEST(AdjacencyTest, HighDimRegimeSmall) {
  // Side = d·α (Section 4): adj(p) is the own cell plus the few cells
  // within α across nearby faces; typically 1, at most 2^d in theory.
  const size_t d = 6;
  RandomGrid grid(d, 6.0, 19);  // α = 1
  Xoshiro256pp rng(23);
  std::vector<uint64_t> adj;
  size_t max_adj = 0;
  for (int i = 0; i < 500; ++i) {
    Point p(d);
    for (size_t j = 0; j < d; ++j) p[j] = 100.0 * rng.NextDouble();
    grid.AdjacentCells(p, 1.0, &adj);
    EXPECT_GE(adj.size(), 1u);
    max_adj = std::max(max_adj, adj.size());
  }
  EXPECT_LE(max_adj, 64u);  // far below the naive 3^6 = 729
}

// Property sweep: DFS result == naive block enumeration, across dimensions,
// side lengths and radii.
class AdjacencyEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(AdjacencyEquivalence, DfsMatchesNaiveEnumeration) {
  const auto [dim, side, alpha] = GetParam();
  RandomGrid grid(static_cast<size_t>(dim), side,
                  static_cast<uint64_t>(dim * 1000) + 7);
  Xoshiro256pp rng(static_cast<uint64_t>(dim) * 31 +
                   static_cast<uint64_t>(side * 100));
  for (int trial = 0; trial < 50; ++trial) {
    Point p(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      p[static_cast<size_t>(j)] = 20.0 * (rng.NextDouble() - 0.5);
    }
    std::vector<uint64_t> dfs, naive;
    grid.AdjacentCells(p, alpha, &dfs);
    grid.AdjacentCellsNaive(p, alpha, &naive);
    EXPECT_EQ(dfs, naive) << "dim=" << dim << " side=" << side
                          << " alpha=" << alpha << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdjacencyEquivalence,
    ::testing::Values(std::make_tuple(1, 1.0, 0.8),
                      std::make_tuple(1, 0.5, 1.0),
                      std::make_tuple(2, 0.5, 1.0),   // const-d regime
                      std::make_tuple(2, 1.0, 2.0),
                      std::make_tuple(3, 0.5, 1.0),
                      std::make_tuple(3, 3.0, 1.0),   // high-d regime
                      std::make_tuple(4, 4.0, 1.0),
                      std::make_tuple(5, 5.0, 1.0),
                      std::make_tuple(6, 2.0, 1.5),
                      std::make_tuple(7, 7.0, 1.0)));

// The hot-path key search (breadth-first over partial cell keys) against
// the coordinate DFS folded with CellKeyOf, in the regimes the naive
// enumeration cannot reach: dimensions 8–20 at side d·α, the L1 and L∞
// metrics, and a constant-d grid (side α/2) whose adjacency runs past 64
// cells. Also pins the fused base key (== CellKeyOf(p)) and the node
// count (== the coordinate DFS's).
class AdjacencyKeysVsCoordinateDfs
    : public ::testing::TestWithParam<std::tuple<int, double, double, Metric>> {
};

TEST_P(AdjacencyKeysVsCoordinateDfs, SameKeysBaseAndNodeCount) {
  const auto [dim, side, alpha, metric] = GetParam();
  const size_t d = static_cast<size_t>(dim);
  RandomGrid grid(d, side, static_cast<uint64_t>(dim * 1000) + 11, metric);
  Xoshiro256pp rng(static_cast<uint64_t>(dim) * 37 +
                   static_cast<uint64_t>(metric));
  size_t max_cells = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Point p(d);
    for (size_t j = 0; j < d; ++j) p[j] = 40.0 * (rng.NextDouble() - 0.5);

    std::vector<CellCoord> coords;
    grid.AdjacentCellCoords(p, alpha, &coords);
    const uint64_t ref_nodes = RandomGrid::last_dfs_nodes();
    std::vector<uint64_t> ref;
    for (const CellCoord& c : coords) ref.push_back(CellKeyOf(c));
    std::sort(ref.begin(), ref.end());

    AdjKeyVec keys;
    const uint64_t base = grid.AdjacentCellsWithBase(p, alpha, &keys);
    const uint64_t nodes = RandomGrid::last_dfs_nodes();
    std::vector<uint64_t> plain;
    grid.AdjacentCells(p, alpha, &plain);

    SCOPED_TRACE(::testing::Message() << "trial=" << trial);
    EXPECT_EQ(std::vector<uint64_t>(keys.begin(), keys.end()), ref);
    EXPECT_EQ(plain, ref);
    EXPECT_EQ(base, grid.CellKeyOf(p));
    EXPECT_EQ(nodes, ref_nodes);
    if (d <= 4) {
      std::vector<uint64_t> naive;
      grid.AdjacentCellsNaive(p, alpha, &naive);
      EXPECT_EQ(naive, ref);
    }
    max_cells = std::max(max_cells, ref.size());
  }
  if (dim == 4 && side * 2.0 == alpha) {
    // The constant-d grid grows the frontier past any small fixed bound.
    EXPECT_GT(max_cells, 64u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, AdjacencyKeysVsCoordinateDfs,
    ::testing::Values(std::make_tuple(8, 8.0, 1.0, Metric::kL2),
                      std::make_tuple(12, 12.0, 1.0, Metric::kL2),
                      std::make_tuple(20, 20.0, 1.0, Metric::kL2),
                      std::make_tuple(4, 0.5, 1.0, Metric::kL2),
                      std::make_tuple(3, 0.5, 1.0, Metric::kL1),
                      std::make_tuple(8, 8.0, 1.0, Metric::kL1),
                      std::make_tuple(20, 20.0, 1.0, Metric::kL1),
                      std::make_tuple(3, 0.5, 1.0, Metric::kLinf),
                      std::make_tuple(8, 8.0, 1.0, Metric::kLinf),
                      std::make_tuple(20, 20.0, 1.0, Metric::kLinf)));

TEST(AdjacencyPaperDfsTest, MatchesGeneralDfsWhenSideAtLeastAlpha) {
  // The literal Algorithm 6 explores only ±1 offsets, which is exact when
  // side ≥ α (the regime it was designed for in Section 6.2).
  for (size_t d : {2u, 3u, 5u}) {
    RandomGrid grid(d, static_cast<double>(d), 41 + d);  // side = d·α, α=1
    Xoshiro256pp rng(17 * d);
    std::vector<uint64_t> ours, paper;
    for (int trial = 0; trial < 100; ++trial) {
      Point p(d);
      for (size_t j = 0; j < d; ++j) p[j] = 50.0 * rng.NextDouble();
      grid.AdjacentCells(p, 1.0, &ours);
      grid.AdjacentCellsPaperDfs(p, 1.0, &paper);
      EXPECT_EQ(ours, paper) << "d=" << d << " trial=" << trial;
    }
  }
}

TEST(AdjacencyTest, RadiusMonotone) {
  RandomGrid grid(2, 1.0, 43);
  const Point p{0.0, 0.0};
  std::vector<uint64_t> small, large;
  grid.AdjacentCells(p, 0.5, &small);
  grid.AdjacentCells(p, 2.0, &large);
  // Every cell within 0.5 is within 2.0.
  for (uint64_t key : small) {
    EXPECT_NE(std::find(large.begin(), large.end(), key), large.end());
  }
  EXPECT_GT(large.size(), small.size());
}

TEST(AdjacencyTest, AllEmittedCellsWithinAlphaAndNoneMissed) {
  RandomGrid grid(2, 0.7, 47);
  const Point p{1.234, -0.567};
  const double alpha = 1.1;
  std::vector<CellCoord> coords;
  grid.AdjacentCellCoords(p, alpha, &coords);
  for (const CellCoord& c : coords) {
    EXPECT_LE(grid.DistanceToCell(p, c), alpha + 1e-12);
  }
  // Exhaustive check over a generous block: every cell within alpha is
  // emitted.
  const CellCoord base = grid.CellCoordOf(p);
  size_t within = 0;
  for (int64_t dx = -4; dx <= 4; ++dx) {
    for (int64_t dy = -4; dy <= 4; ++dy) {
      CellCoord c{base[0] + dx, base[1] + dy};
      if (grid.DistanceToCell(p, c) <= alpha) ++within;
    }
  }
  EXPECT_EQ(coords.size(), within);
}

TEST(AdjacencyTest, DfsNodeCounterInstrumentation) {
  RandomGrid grid(5, 5.0, 53);
  Point p(5);
  for (size_t j = 0; j < 5; ++j) p[j] = 2.0 + static_cast<double>(j);
  std::vector<uint64_t> adj;
  grid.AdjacentCells(p, 1.0, &adj);
  const uint64_t nodes = RandomGrid::last_dfs_nodes();
  EXPECT_GE(nodes, 1u);
  // Pruned search must visit far fewer nodes than the full 3^5 tree walk.
  EXPECT_LT(nodes, 3u * 243u);
}

}  // namespace
}  // namespace rl0
