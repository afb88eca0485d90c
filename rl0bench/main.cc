// rl0bench — the end-to-end and per-layer benchmark of rl0.
//
//   rl0bench --workload NAME --seed N --seconds S --trace 0|1
//            --serve-binary PATH [--scale F] [--commit C] [--source-digest D]
//
// Builds the workload's inputs from the seed, runs it for S seconds and
// prints two JSON lines on stdout: a report (host and build facts, sample
// counts, generator lag) and, last, the result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Relative paths (the server socket, checkpoint directories)
// resolve against the working directory; run it from an empty directory.
// rl0bench/run.py builds this program and rl0_serve and runs it so.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "rl0/core/dup_filter.h"
#include "rl0/core/rep_table.h"
#include "rl0/geom/distance_kernels.h"
#include "runs.h"

#ifndef RL0BENCH_BUILD_TYPE
#define RL0BENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "rl0bench: %s\nusage: rl0bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-binary PATH [--scale F] "
               "[--commit C] [--source-digest D]\n",
               why.c_str());
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, serve_binary, commit = "unknown", digest = "unknown";
  uint64_t seed = 0;
  double seconds = -1.0, scale = 1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(value);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--serve-binary") {
      serve_binary = value;
    } else if (key == "--scale") {
      scale = std::atof(value);
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--source-digest") {
      digest = value;
    } else {
      return Usage("unknown option " + key);
    }
  }
  if (argc % 2 == 0) return Usage("options come in pairs");
  if (workload.empty() || seconds <= 0 || (trace != 0 && trace != 1) ||
      !(scale > 0 && scale <= 1)) {
    return Usage("missing or bad option");
  }

  rl0bench::Workload w;
  std::string error;
  if (!rl0bench::BuildWorkload(workload, seed, scale, &w, &error)) {
    return Usage(error);
  }
  if (w.served && serve_binary.empty()) return Usage("--serve-binary required");

  const rl0bench::RunConfig cfg{serve_binary, seconds};
  const rl0bench::RunOutcome out =
      trace == 1 ? rl0bench::RunLayers(w, cfg)
                 : (w.served ? rl0bench::RunServed(w, cfg)
                             : rl0bench::RunOffline(w, cfg));

  std::fprintf(stderr, "rl0bench %s seed=%" PRIu64 " trace=%d: %s\n",
               workload.c_str(), seed, trace,
               out.correct ? "checks passed" : out.failure.c_str());
  out.metrics.PrintTable(stderr);

  std::string report = "{\"report\": {\"workload\": " + JsonString(workload) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"trace\": " + std::to_string(trace) +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"distance_kernel\": " +
                       JsonString(rl0::DistanceKernelDispatch()) +
                       ", \"cell_index\": " + JsonString(rl0::CellIndexDispatch()) +
                       ", \"dup_filter_compiled_in\": " +
                       (rl0::DupFilter::kCompiledIn ? "true" : "false") +
                       ", \"build_type\": " + JsonString(RL0BENCH_BUILD_TYPE) +
                       ", \"commit\": " + JsonString(commit) +
                       ", \"source_digest\": " + JsonString(digest) +
                       ", \"points_per_job\": " + std::to_string(w.points.size()) +
                       ", \"error_ratio\": " +
                       std::to_string(out.attempted == 0
                                          ? 0.0
                                          : static_cast<double>(out.failed) /
                                                static_cast<double>(out.attempted));
  for (const auto& [key, value] : out.notes) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value);
    report += ", " + JsonString(key) + ": " + num;
  }
  if (!out.correct) report += ", \"failure\": " + JsonString(out.failure);
  std::printf("%s}}\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              out.metrics.Json().c_str());
  return 0;
}
