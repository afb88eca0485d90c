#include "inputs.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>

#include "rl0/core/reorder_buffer.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/stream/window_stream.h"
#include "rl0/util/rng.h"

namespace rl0bench {

namespace {

using rl0::Point;

// serve_seq5: the paper's Rand5 transformation at bench_serve's size.
constexpr size_t kSeqBasePoints = 1000;
constexpr int64_t kSeqWindow = 8192;
// serve_late_ckpt2: dim-2 stamped stream, disordered within the bound.
constexpr size_t kLateBasePoints = 1000;
constexpr uint32_t kLateMaxGap = 3;
constexpr int64_t kLateness = 64;
constexpr int64_t kLateWindow = 8192;
constexpr uint64_t kCheckpointEvery = 8192;
constexpr int64_t kDigestEvery = 8192;
// offline_iw20: power-law groups, mostly byte-exact repeats.
// A few heavy groups' geometry sets a stream's cost, so each run averages
// over independent segments, each with groups of its own.
constexpr size_t kIwSegments = 8;
constexpr size_t kIwSegmentPoints = 25000;
constexpr size_t kIwGroups = 256;
constexpr double kIwRepeatShare = 0.9;
constexpr size_t kIwRecent = 2;

constexpr size_t kServedShards = 4;
constexpr size_t kFeedChunk = 512;
constexpr size_t kOfflineChunk = 2048;
constexpr double kQueryHz = 100.0;

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(8, static_cast<size_t>(static_cast<double>(n) * scale));
}

void AppendCoords(const Point& p, std::string* out) {
  char num[40];
  for (size_t d = 0; d < p.dim(); ++d) {
    // %.17g round-trips doubles exactly through the server's strtod, so
    // the served tenant sees the generated stream bit for bit.
    const int n = std::snprintf(num, sizeof(num), "%s%.17g", d ? "," : "", p[d]);
    out->append(num, static_cast<size_t>(n));
  }
}

std::vector<std::string> EncodeFeedLines(const std::vector<Point>& points,
                                         const std::vector<int64_t>& stamps,
                                         size_t chunk) {
  std::vector<std::string> lines;
  const bool stamped = !stamps.empty();
  for (size_t off = 0; off < points.size(); off += chunk) {
    std::string line = stamped ? "FEEDSTAMPED " : "FEED ";
    line += kTenant;
    const size_t end = std::min(points.size(), off + chunk);
    for (size_t i = off; i < end; ++i) {
      line += ' ';
      if (stamped) line += std::to_string(stamps[i]) + "@";
      AppendCoords(points[i], &line);
    }
    line += '\n';
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string CreateLine(const rl0::serve::CreateParams& p) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "CREATE %s dim=%zu alpha=%.17g window=%lld shards=%zu "
                "seed=%" PRIu64 " m=%" PRIu64,
                kTenant, p.dim, p.alpha, static_cast<long long>(p.window),
                p.shards, p.seed, p.expected_m);
  std::string line = buf;
  if (p.mode == rl0::serve::TenantMode::kLate) {
    line += " mode=late lateness=" + std::to_string(p.lateness);
  }
  if (p.checkpoint) {
    line += " ckpt=1 every=" + std::to_string(p.checkpoint_every);
  }
  return line + "\n";
}

rl0::NoisyDataset RandNearDup(size_t base_points, size_t dim, uint64_t seed) {
  const rl0::BaseDataset base = rl0::RandomUniform(
      base_points, dim, seed, "Rand" + std::to_string(dim));
  rl0::NearDupOptions nd;
  nd.max_dups = 100;
  nd.seed = seed + 1;
  return rl0::MakeNearDuplicates(base, nd);
}

bool BuildSeq5(uint64_t seed, double scale, Workload* w) {
  const rl0::NoisyDataset data =
      RandNearDup(Scaled(kSeqBasePoints, scale), 5, seed);
  w->served = true;
  w->points = data.points;
  w->chunk = kFeedChunk;
  w->create.dim = 5;
  w->create.alpha = data.alpha;
  w->create.window = kSeqWindow;
  w->create.shards = kServedShards;
  w->create.seed = seed;
  w->create.expected_m = data.size();
  return true;
}

bool BuildLate(uint64_t seed, double scale, Workload* w, std::string* error) {
  const rl0::NoisyDataset data =
      RandNearDup(Scaled(kLateBasePoints, scale), 2, seed);
  const std::vector<rl0::StampedPoint> sorted =
      rl0::TimeStamped(data, kLateMaxGap, seed + 2);
  rl0::SplitStamped(rl0::DisorderWithinBound(sorted, kLateness, seed + 3),
                    &w->points, &w->stamps);
  rl0::SplitStamped(sorted, &w->sorted_points, &w->sorted_stamps);
  rl0::ReorderStage::SortCanonical(&w->sorted_points, &w->sorted_stamps);
  w->served = true;
  w->chunk = kFeedChunk;
  w->create.dim = 2;
  w->create.alpha = data.alpha;
  w->create.window = kLateWindow;
  w->create.mode = rl0::serve::TenantMode::kLate;
  w->create.lateness = kLateness;
  w->create.shards = kServedShards;
  w->create.seed = seed;
  w->create.expected_m = data.size();
  w->create.checkpoint = true;
  w->create.checkpoint_every = kCheckpointEvery;
  w->digest_every = kDigestEvery;

  // A late tenant fires once per feed whose release frontier crosses a
  // multiple of the cadence. When no single feed (nor the final FLUSH)
  // can advance the frontier by a whole cadence, each multiple up to the
  // largest stamp fires exactly once.
  int64_t max_seen = 0, max_advance = 0;
  for (size_t off = 0; off < w->points.size(); off += w->chunk) {
    const size_t end = std::min(w->points.size(), off + w->chunk);
    int64_t line_max = max_seen;
    for (size_t i = off; i < end; ++i) line_max = std::max(line_max, w->stamps[i]);
    max_advance = std::max(max_advance, line_max - max_seen);
    max_seen = line_max;
  }
  if (max_advance + kLateness >= kDigestEvery) {
    *error = "a single feed can cross a whole digest cadence";
    return false;
  }
  w->expected_events = static_cast<uint64_t>(max_seen / kDigestEvery);
  return true;
}

/// One offline segment: `n` arrivals over `groups` Zipf-popular groups
/// of their own, appended to *out.
void AppendIwSegment(size_t groups, size_t n, uint64_t seed, double alpha,
                     std::vector<Point>* out) {
  constexpr size_t kDim = 20;
  rl0::BaseDataset base = rl0::RandomUniform(groups, kDim, seed, "Rand20");
  rl0::RescaleToUnitMinDistance(&base.points);
  // Zipf(1) group popularity: group g is drawn with weight 1/(g+1).
  std::vector<double> cdf(groups);
  double total = 0.0;
  for (size_t g = 0; g < groups; ++g) {
    total += 1.0 / static_cast<double>(g + 1);
    cdf[g] = total;
  }
  rl0::Xoshiro256pp rng(rl0::SplitMix64(seed ^ 0x697732305ULL));
  std::vector<std::vector<Point>> recent(groups);
  std::vector<size_t> next_slot(groups, 0);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t g = std::min<size_t>(
        groups - 1,
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()));
    std::vector<Point>& ring = recent[g];
    if (!ring.empty() && rng.NextDouble() < kIwRepeatShare) {
      out->push_back(ring[rng.NextBounded(ring.size())]);
      continue;
    }
    // A fresh near-duplicate: within 0.4·α of the center, so any two
    // points of a group are within 0.8·α and groups stay well separated.
    Point noise(kDim);
    double norm2 = 0.0;
    for (size_t d = 0; d < kDim; ++d) {
      noise[d] = rng.NextDouble() * 2.0 - 1.0;
      norm2 += noise[d] * noise[d];
    }
    const double len = alpha * 0.4 * rng.NextDouble();
    Point p = base.points[g] + noise * (len / std::sqrt(std::max(norm2, 1e-30)));
    if (ring.size() < kIwRecent) {
      ring.push_back(p);
    } else {
      ring[next_slot[g]] = p;
      next_slot[g] = (next_slot[g] + 1) % kIwRecent;
    }
    out->push_back(std::move(p));
  }
}

bool BuildIw20(uint64_t seed, double scale, Workload* w) {
  constexpr size_t kDim = 20;
  const size_t groups = std::min(kIwGroups, Scaled(kIwGroups, scale * 4));
  w->segment = Scaled(kIwSegmentPoints, scale);
  const double alpha = 1.0 / std::pow(static_cast<double>(kDim), 1.5);
  w->points.reserve(kIwSegments * w->segment);
  for (size_t k = 0; k < kIwSegments; ++k) {
    AppendIwSegment(groups, w->segment, rl0::SplitMix64(seed) + k, alpha, &w->points);
  }
  w->served = false;
  w->chunk = kOfflineChunk;
  w->iw_options.dim = kDim;
  w->iw_options.alpha = alpha;
  w->iw_options.seed = seed;
  w->iw_options.expected_stream_length = w->segment;
  // Every group fits under the cap, so the rate stays 1 and the merged
  // accepted set must equal a serial run's exactly.
  w->iw_options.accept_cap = 2 * groups;
  w->lanes = std::max(1u, std::thread::hardware_concurrency());
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "serve_seq5", "serve_late_ckpt2", "offline_iw20"};
  return names;
}

rl0::SamplerOptions TenantSamplerOptions(const rl0::serve::CreateParams& p) {
  rl0::SamplerOptions opts;
  opts.dim = p.dim;
  opts.alpha = p.alpha;
  opts.metric = p.metric;
  opts.seed = p.seed;
  opts.k = p.k;
  opts.random_representative = p.reservoir;
  opts.expected_stream_length = p.expected_m;
  opts.dup_filter = p.filter;
  if (p.mode == rl0::serve::TenantMode::kLate) opts.allowed_lateness = p.lateness;
  return opts;
}

bool BuildWorkload(const std::string& name, uint64_t seed, double scale,
                   Workload* out, std::string* error) {
  Workload w;
  w.name = name;
  w.query_hz = kQueryHz;
  bool ok = false;
  if (name == "serve_seq5") {
    ok = BuildSeq5(seed, scale, &w);
  } else if (name == "serve_late_ckpt2") {
    ok = BuildLate(seed, scale, &w, error);
  } else if (name == "offline_iw20") {
    ok = BuildIw20(seed, scale, &w);
  } else {
    *error = "unknown workload '" + name + "'";
  }
  if (!ok) return false;
  if (w.served) {
    w.create_line = CreateLine(w.create);
    w.feed_lines = EncodeFeedLines(w.points, w.stamps, w.chunk);
  }
  *out = std::move(w);
  return true;
}

}  // namespace rl0bench
