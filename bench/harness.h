// Shared benchmark harness: the paper's eight evaluation datasets, the
// distribution / timing / space experiment runners, and table printing.
//
// Reproduction methodology (see docs/BENCHMARKS.md, "Paper-figure
// reproductions"):
//  * Datasets follow Section 6.1: base points → rescale to unit minimum
//    pairwise distance → near-duplicates with uniform {1..100} or
//    power-law ⌈n/i⌉ counts and noise length in (0, 1/(2 d^1.5)) →
//    shuffle. α = d^{-1.5}.
//  * Distribution experiments (Figures 5-12, 15) replay only the group
//    representatives — provably equivalent for the sampling distribution
//    (iw_sampler_test.ReplayEquivalence) and ~50x faster, which is how we
//    can afford paper-scale run counts. Defaults are scaled down from the
//    paper's 200k-500k runs; set RL0_RUNS to raise them.
//  * Timing (Figure 13) and space (Figure 14) run the full streams.

#ifndef RL0_BENCH_HARNESS_H_
#define RL0_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rl0/core/iw_sampler.h"
#include "rl0/metrics/distribution.h"
#include "rl0/stream/dataset.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"

namespace rl0 {
namespace bench {

/// One of the paper's evaluation datasets.
struct DatasetSpec {
  std::string name;      ///< Paper name (Rand5, ..., Seeds-pl).
  int figure;            ///< Paper figure number (5..12).
  uint64_t paper_runs;   ///< #runs the paper used for this dataset.
  uint64_t default_runs; ///< Our default (RL0_RUNS overrides).
  std::function<BaseDataset()> base;
  DupDistribution distribution;
};

/// The eight Section 6.1 datasets in figure order.
const std::vector<DatasetSpec>& PaperDatasets();

/// Finds a dataset spec by paper figure number (5..12).
const DatasetSpec& SpecForFigure(int figure);

/// Generates the noisy stream for a spec (deterministic per seed).
NoisyDataset Materialize(const DatasetSpec& spec, uint64_t seed = 2018);

/// The sampler configuration used throughout the Section 6 experiments:
/// high-dimension grid (side d·α, matching the generated sparsity), fast
/// mixing hash, κ0·log m accept cap.
SamplerOptions PaperSamplerOptions(const NoisyDataset& data, uint64_t seed);

/// Result of a distribution experiment.
struct DistributionResult {
  SampleDistribution distribution;
  uint64_t runs = 0;
  uint64_t empty_runs = 0;  ///< runs where the accept set was empty (≤1/m).
  double seconds = 0.0;

  DistributionResult() : distribution(1) {}
};

/// Runs `runs` independent sampler instances (fresh seeds) over the
/// representative replay of `data` and accumulates which group each
/// returned sample belongs to.
DistributionResult RunDistribution(const NoisyDataset& data, uint64_t runs,
                                   uint64_t seed_base);

/// Prints the Figure 5-12 style report: per-group count summary, a
/// histogram of counts, the paper metrics and the sampling noise floor.
void PrintDistributionReport(const DatasetSpec& spec,
                             const NoisyDataset& data,
                             const DistributionResult& result);

/// Timing result for Figure 13.
struct TimingResult {
  double ns_per_item = 0.0;
  uint64_t stream_length = 0;
  int repeats = 0;
};

/// Scans the full stream `repeats` times (fresh sampler each time,
/// single-threaded) and reports the mean per-item processing time.
TimingResult RunTiming(const NoisyDataset& data, int repeats,
                       uint64_t seed_base);

/// Peak space (words) averaged over `seeds` full-stream passes (Fig 14).
double RunPeakSpace(const NoisyDataset& data, int seeds, uint64_t seed_base);

/// Environment overrides: RL0_RUNS / RL0_REPEATS (0 = keep default).
uint64_t EnvRuns(uint64_t default_runs);
int EnvRepeats(int default_repeats);

}  // namespace bench
}  // namespace rl0

#endif  // RL0_BENCH_HARNESS_H_
