// Ablation (a design choice; see docs/BENCHMARKS.md, "Ablations"): the
// cell-sampling hash family and the accept-cap constant κ0.
//   (a) Mixing hash (experiments' default) vs Θ(log m)-wise independent
//       polynomial hash (theory's assumption), across independence k:
//       per-item time and sampling accuracy must match — the polynomial
//       hash costs O(k) per evaluation but changes no statistics.
//   (b) κ0 sweep: smaller caps save space but raise both the deviation
//       (fewer accepted groups to average over) and the empty-accept
//       failure rate; κ0·log m with κ0 ≈ 4 is the sweet spot the paper's
//       analysis suggests.

#include <chrono>
#include <cstdio>

#include "harness.h"

int main() {
  using namespace rl0;
  using namespace rl0::bench;
  const DatasetSpec& spec = SpecForFigure(5);  // Rand5
  const NoisyDataset data = Materialize(spec);
  const uint64_t runs = EnvRuns(8000);

  std::printf("== Ablation: hash family and accept cap (Rand5) ==\n\n");
  std::printf("-- hash family / independence k --\n");
  std::printf("%-14s %6s %10s %10s %10s\n", "family", "k", "stdDevNm",
              "maxDevNm", "ms/item");

  struct Config {
    const char* label;
    HashFamily family;
    uint32_t k;
  };
  const Config configs[] = {
      {"mix64", HashFamily::kMix64, 0},
      {"kwise-poly", HashFamily::kKWisePoly, 8},
      {"kwise-poly", HashFamily::kKWisePoly, 32},
      {"kwise-poly", HashFamily::kKWisePoly, 128},
  };
  for (const Config& config : configs) {
    const RepresentativeStream reps = ExtractRepresentatives(data);
    SampleDistribution dist(data.num_groups);
    for (uint64_t run = 0; run < runs; ++run) {
      SamplerOptions opts = PaperSamplerOptions(data, 300 + run);
      opts.hash_family = config.family;
      if (config.k > 0) opts.kwise_k = config.k;
      auto sampler = RobustL0SamplerIW::Create(opts).value();
      for (const Point& p : reps.points) sampler.Insert(p);
      Xoshiro256pp rng(SplitMix64(run * 7 + 5));
      if (const auto s = sampler.Sample(&rng)) {
        dist.Record(reps.group_of[s->stream_index]);
      }
    }
    // Timing on the full stream with THIS hash configuration.
    SamplerOptions topts = PaperSamplerOptions(data, 1);
    topts.hash_family = config.family;
    if (config.k > 0) topts.kwise_k = config.k;
    double seconds = 0.0;
    const int repeats = 3;
    for (int rep = 0; rep < repeats; ++rep) {
      auto sampler = RobustL0SamplerIW::Create(topts).value();
      const auto start = std::chrono::steady_clock::now();
      for (const Point& p : data.points) sampler.Insert(p);
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
      if (sampler.accept_size() == 0) std::printf("(empty)\n");
    }
    const double ms_per_item =
        seconds * 1e3 / (static_cast<double>(data.size()) * repeats);
    std::printf("%-14s %6u %10.4f %10.4f %10.5f\n", config.label, config.k,
                dist.StdDevNm(), dist.MaxDevNm(), ms_per_item);
  }

  std::printf("\n-- accept cap sweep (cap = kappa0 * ceil(log2 m)) --\n");
  std::printf("%8s %8s %10s %10s %12s %12s\n", "kappa0", "cap", "stdDevNm",
              "maxDevNm", "empty rate", "peak words");
  for (double kappa0 : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    const RepresentativeStream reps = ExtractRepresentatives(data);
    SampleDistribution dist(data.num_groups);
    uint64_t empty_runs = 0;
    size_t peak = 0;
    size_t cap = 0;
    for (uint64_t run = 0; run < runs; ++run) {
      SamplerOptions opts = PaperSamplerOptions(data, 800 + run);
      opts.kappa0 = kappa0;
      cap = opts.EffectiveAcceptCap();
      auto sampler = RobustL0SamplerIW::Create(opts).value();
      for (const Point& p : reps.points) sampler.Insert(p);
      peak = std::max(peak, sampler.PeakSpaceWords());
      Xoshiro256pp rng(SplitMix64(run * 11 + 3));
      if (const auto s = sampler.Sample(&rng)) {
        dist.Record(reps.group_of[s->stream_index]);
      } else {
        ++empty_runs;
      }
    }
    std::printf("%8.1f %8zu %10.4f %10.4f %12.5f %12zu\n", kappa0, cap,
                dist.StdDevNm(), dist.MaxDevNm(),
                static_cast<double>(empty_runs) / static_cast<double>(runs),
                peak);
  }
  std::printf(
      "\nexpected shape: hash families agree on accuracy; poly-hash time\n"
      "grows with k. Larger kappa0 lowers deviation and the empty-accept\n"
      "rate at the cost of space.\n");
  return 0;
}
