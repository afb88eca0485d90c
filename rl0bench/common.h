// Shared pieces of the rl0 benchmark: clock, order statistics, the
// pollers' schedule, the span tracer behind the per-layer metrics, and the
// result line.

#ifndef RL0BENCH_COMMON_H_
#define RL0BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rl0/util/rng.h"

namespace rl0bench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Block sizes for BlockTailRatio: ten samples beyond each block's tail
/// quantile (p99 of acknowledgements, p90 of queries).
constexpr size_t kAckBlock = 1000;
constexpr size_t kQueryBlock = 100;

/// How far the tail of a run's typical stretch sits above its median:
/// for each block of `block` consecutive samples (in the order taken; a
/// short last block is dropped, a sample shorter than one block is one
/// block), its q-quantile over its median; then the median over blocks.
/// A change in the host's speed moves both quantiles alike and cancels,
/// and a burst moves only the blocks it falls in, where a pooled tail in
/// ms is set by the slowest of them. 0 when empty.
inline double BlockTailRatio(const std::vector<double>& values, size_t block,
                             double q) {
  if (values.empty()) return 0.0;
  block = std::min(block, values.size());
  std::vector<double> ratios;
  for (size_t off = 0; off + block <= values.size(); off += block) {
    const std::vector<double> part(values.begin() + off,
                                   values.begin() + off + block);
    ratios.push_back(Quantile(part, q) / Median(part));
  }
  return Median(std::move(ratios));
}

/// Salt of the seed of a poller's schedule.
constexpr uint64_t kPollerSeedSalt = 0x7363686564ULL;

/// Due times of an open-loop poller: Poisson arrivals at `hz` per second
/// after `start`, drawn from `seed`. Random gaps sample every phase of the
/// feeder's cycle, where a fixed period can stay in step with it.
class PoissonSchedule {
 public:
  PoissonSchedule(Clock::time_point start, double hz, uint64_t seed)
      : due_(start), mean_s_(1.0 / hz), rng_(seed) {}

  Clock::time_point Next() {
    const std::chrono::duration<double> gap(
        -mean_s_ * std::log(1.0 - rng_.NextDouble()));
    due_ += std::chrono::duration_cast<Clock::duration>(gap);
    return due_;
  }

 private:
  Clock::time_point due_;
  double mean_s_;
  rl0::Xoshiro256pp rng_;
};

/// Spans recorded around calls into one layer, kept in memory and summed
/// per name when the run ends. The benchmark opens them from its own
/// files around each call into a layer's public entry point; a layer's
/// self time is its total minus the totals of the layers it calls,
/// replayed on the same inputs (see layers.cc). Single-threaded: each
/// replay owns its tracer.
class Tracer {
 public:
  struct Totals {
    int64_t total_ns = 0;
    uint64_t count = 0;
  };

  size_t Begin(const char* name) {
    spans_.push_back({name, Clock::now(), Clock::time_point()});
    return spans_.size() - 1;
  }

  void End(size_t id) { spans_[id].end = Clock::now(); }

  size_t span_count() const { return spans_.size(); }

  /// Total duration of every span named `name`, in nanoseconds.
  Totals Get(const std::string& name) const {
    Totals t;
    for (const SpanRecord& s : spans_) {
      if (name != s.name) continue;
      t.total_ns += NanosBetween(s.start, s.end);
      ++t.count;
    }
    return t;
  }

 private:
  struct SpanRecord {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<SpanRecord> spans_;
};

/// RAII span on a tracer.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Span() { tracer_->End(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  size_t id_;
};

/// Named metric values in emission order, each with its unit.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  /// `"metrics": {...}` body (full precision, as measured).
  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", items_[i].name.c_str(),
                    items_[i].value);
      out += buf;
      out += "\"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

  void PrintTable(FILE* f) const {
    for (const auto& m : items_) {
      std::fprintf(f, "  %-44s %16.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// What one run reports besides its metrics.
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  /// Extra facts for the report line (sample counts, generator lag, ...).
  std::vector<std::pair<std::string, double>> notes;
  /// Why a check failed (empty when correct).
  std::string failure;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
  void Note(const std::string& key, double value) {
    notes.emplace_back(key, value);
  }
};

}  // namespace rl0bench

#endif  // RL0BENCH_COMMON_H_
