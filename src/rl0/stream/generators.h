// Base dataset generators (Section 6.1 of the paper).
//
// Rand5 and Rand20 are exactly the paper's synthetic datasets (uniform
// points in (0,1)^d). Yacht and Seeds in the paper are UCI datasets which
// are not redistributable here; YachtLike/SeedsLike are synthetic stand-ins
// with the same cardinality, dimension and qualitative structure (see
// docs/BENCHMARKS.md, "Paper-figure reproductions": after the
// rescale-to-unit-min-distance step the sampler only sees the point
// geometry, so the pipeline is exercised identically).
//
// The well-separated / sparse / overlapping generators back the unit and
// property tests for Sections 2–4.

#ifndef RL0_STREAM_GENERATORS_H_
#define RL0_STREAM_GENERATORS_H_

#include <cstdint>

#include "rl0/stream/dataset.h"

namespace rl0 {

/// `n` uniform points in (0,1)^dim (paper's Rand5/Rand20 with n=500).
BaseDataset RandomUniform(size_t n, size_t dim, uint64_t seed,
                          const std::string& name = "RandUniform");

/// Paper Rand5: 500 points in R^5.
BaseDataset Rand5(uint64_t seed = 1);

/// Paper Rand20: 500 points in R^20.
BaseDataset Rand20(uint64_t seed = 2);

/// Synthetic stand-in for the UCI yacht-hydrodynamics dataset: 308 points
/// in R^7 with heterogeneous per-coordinate scales (discrete design
/// parameters plus continuous measurements).
BaseDataset YachtLike(uint64_t seed = 3);

/// Synthetic stand-in for the UCI seeds dataset: 210 points in R^8 drawn
/// from three clusters (the three wheat varieties), 70 points each.
BaseDataset SeedsLike(uint64_t seed = 4);

/// `n` group centers with guaranteed pairwise distance > `beta`
/// (lattice-based construction), for (α, β)-sparsity tests.
BaseDataset SeparatedCenters(size_t n, size_t dim, double beta,
                             uint64_t seed);

/// A general (NOT well-separated) dataset: `n` points arranged in chains of
/// overlapping clusters with spacing between alpha and 2*alpha, so the
/// minimum-cardinality partition is ambiguous (Section 3 setting).
BaseDataset OverlappingChains(size_t n, size_t dim, double alpha,
                              uint64_t seed);

}  // namespace rl0

#endif  // RL0_STREAM_GENERATORS_H_
