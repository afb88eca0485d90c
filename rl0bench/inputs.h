// Workload inputs of the rl0 benchmark. Everything here is a pure
// function of the workload name and the seed, and is built before any
// timer starts: the streams, the tenant's CREATE line and the served
// workloads' FEED/FEEDSTAMPED lines, already encoded.

#ifndef RL0BENCH_INPUTS_H_
#define RL0BENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/geom/point.h"
#include "rl0/serve/protocol.h"

namespace rl0bench {

/// Every served job runs on one tenant of this name (re-created per job).
constexpr const char* kTenant = "bench";

struct Workload {
  std::string name;
  /// True for the workloads driven through an rl0_serve child process.
  bool served = false;

  /// The stream one job feeds, in arrival order. Stamped workloads also
  /// carry the arrival-order stamps and the canonically sorted feed that
  /// late == strict is checked against.
  std::vector<rl0::Point> points;
  std::vector<int64_t> stamps;
  std::vector<rl0::Point> sorted_points;
  std::vector<int64_t> sorted_stamps;

  /// Points per FEED line (served) or per borrowed chunk (offline).
  size_t chunk = 0;
  /// Offline: `points` is a run of independent segments of this many
  /// points, each with its own groups; a job feeds one segment.
  size_t segment = 0;

  /// Served: the tenant configuration, its CREATE line and the feed lines.
  rl0::serve::CreateParams create;
  std::string create_line;
  std::vector<std::string> feed_lines;
  /// Served late tenants: digest cadence (stamp units) and the EVENT count
  /// one job must produce.
  int64_t digest_every = 0;
  uint64_t expected_events = 0;

  /// Offline: the IW sampler options and the lane count.
  rl0::SamplerOptions iw_options;
  size_t lanes = 0;

  /// Open-loop poller rate (queries per second).
  double query_hz = 0.0;
  /// Draws checked at the end of every job.
  int final_draws = 16;
};

/// Names of every workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds `name`'s inputs for `seed`. `scale` (0, 1] shrinks the stream
/// (the smoke test runs tiny jobs). Returns false for an unknown name or
/// inputs that break the workload's own invariants.
bool BuildWorkload(const std::string& name, uint64_t seed, double scale,
                   Workload* out, std::string* error);

/// The SamplerOptions rl0_serve derives from a CREATE (TenantRegistry's
/// mapping), for the in-process references and replays.
rl0::SamplerOptions TenantSamplerOptions(const rl0::serve::CreateParams& p);

}  // namespace rl0bench

#endif  // RL0BENCH_INPUTS_H_
