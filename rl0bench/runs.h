// The three kinds of run the benchmark makes: a served end-to-end run
// against an rl0_serve child, an offline end-to-end run in process, and
// the traced per-layer replay of either.

#ifndef RL0BENCH_RUNS_H_
#define RL0BENCH_RUNS_H_

#include <string>
#include <vector>

#include "common.h"
#include "inputs.h"

namespace rl0bench {

struct RunConfig {
  /// The rl0_serve binary the served workloads spawn.
  std::string serve_binary;
  /// How long the measured phase runs (at least one job always runs).
  double seconds = 10.0;
};

/// End-to-end run of a served workload (tracing off).
RunOutcome RunServed(const Workload& w, const RunConfig& cfg);

/// End-to-end run of the offline workload (tracing off).
RunOutcome RunOffline(const Workload& w, const RunConfig& cfg);

/// Traced run: per-layer metrics from replays of the workload's inputs.
RunOutcome RunLayers(const Workload& w, const RunConfig& cfg);

/// The SAMPLE q=<final_draws> response (ITEM lines) a served job must
/// return: a direct ShardedSwSamplerPool fed the same stream — the
/// canonically sorted feed for late tenants — queried with rl0_serve's
/// query-rng derivation.
std::vector<std::string> ExpectedSampleLines(const Workload& w);

}  // namespace rl0bench

#endif  // RL0BENCH_RUNS_H_
