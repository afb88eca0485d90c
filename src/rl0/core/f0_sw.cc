#include "rl0/core/f0_sw.h"

#include <algorithm>
#include <cmath>

#include "rl0/util/check.h"
#include "rl0/util/rng.h"

namespace rl0 {

Status F0SwOptions::Validate() const {
  Status s = sampler.Validate();
  if (!s.ok()) return s;
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  if (copies < 1) return Status::InvalidArgument("copies must be >= 1");
  if (repetitions < 1) {
    return Status::InvalidArgument("repetitions must be >= 1");
  }
  if (!(phi > 0.0)) return Status::InvalidArgument("phi must be positive");
  return Status::OK();
}

Result<F0EstimatorSW> F0EstimatorSW::Create(const F0SwOptions& options) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  std::vector<RobustL0SamplerSW> samplers;
  samplers.reserve(options.copies * options.repetitions);
  for (size_t i = 0; i < options.copies * options.repetitions; ++i) {
    SamplerOptions per_copy = options.sampler;
    per_copy.seed = SplitMix64(options.sampler.seed + 0x46305357ULL + i);
    Result<RobustL0SamplerSW> sampler =
        RobustL0SamplerSW::Create(per_copy, options.window);
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(std::move(sampler).value());
  }
  return F0EstimatorSW(
      ShardedSwSamplerPool(std::move(samplers), options.window,
                           options.sampler.allowed_lateness,
                           IngestPool::Options(), /*broadcast=*/true),
      options.copies, options.repetitions, options.combiner, options.phi);
}

F0EstimatorSW::F0EstimatorSW(ShardedSwSamplerPool pool, size_t copies,
                             size_t repetitions, F0SwCombiner combiner,
                             double phi)
    : pool_(std::move(pool)),
      copies_(copies),
      repetitions_(repetitions),
      combiner_(combiner),
      phi_(phi) {}

void F0EstimatorSW::Insert(const Point& p, int64_t stamp) {
  // One ingestion mode per estimator: checked on the first serial insert
  // here, and against serial_points_ by the feeds.
  if (serial_points_ == 0) RL0_CHECK(pool_.points_fed() == 0);
  for (size_t c = 0; c < pool_.num_shards(); ++c) {
    pool_.shard(c).Insert(p, stamp);
  }
  ++serial_points_;
  serial_latest_stamp_ = stamp;
}

void F0EstimatorSW::Insert(const Point& p) {
  Insert(p, static_cast<int64_t>(serial_points_));
}

void F0EstimatorSW::Feed(Span<const Point> points) {
  RL0_CHECK(serial_points_ == 0);
  pool_.Feed(points);
}

void F0EstimatorSW::FeedStamped(Span<const Point> points,
                                Span<const int64_t> stamps) {
  RL0_CHECK(serial_points_ == 0);
  pool_.FeedStamped(points, stamps);
}

void F0EstimatorSW::Drain() { pool_.Drain(); }

double F0EstimatorSW::CombineRepetition(size_t rep, int64_t now) {
  // Collect the deepest non-empty level of each copy in this repetition.
  std::vector<double> levels;
  levels.reserve(copies_);
  for (size_t c = 0; c < copies_; ++c) {
    RobustL0SamplerSW& sampler = pool_.shard(rep * copies_ + c);
    const std::optional<uint32_t> deepest = sampler.DeepestNonEmptyLevel(now);
    if (!deepest.has_value()) continue;  // empty window in this copy
    levels.push_back(static_cast<double>(*deepest));
  }
  if (levels.empty()) return 0.0;

  if (combiner_ == F0SwCombiner::kFlajoletMartin) {
    double mean = 0.0;
    for (double l : levels) mean += l;
    mean /= static_cast<double>(levels.size());
    return phi_ * std::pow(2.0, mean);
  }
  // HyperLogLog-style combiner: the harmonic mean of the per-copy 2^level
  // values, φ-corrected like the FM combiner. Classical HLL multiplies by
  // an extra factor r because each of its registers only sees a 1/r slice
  // of the stream; here every copy sees the whole stream, so the harmonic
  // mean itself already estimates 0.77351·n (it only differs from the FM
  // combiner in how outlier copies are damped).
  double denom = 0.0;
  for (double l : levels) denom += std::pow(2.0, -l);
  const double r = static_cast<double>(levels.size());
  return phi_ * r / denom;
}

double F0EstimatorSW::Estimate(int64_t now) {
  std::vector<double> estimates;
  estimates.reserve(repetitions_);
  for (size_t rep = 0; rep < repetitions_; ++rep) {
    estimates.push_back(CombineRepetition(rep, now));
  }
  std::nth_element(estimates.begin(),
                   estimates.begin() + estimates.size() / 2, estimates.end());
  return estimates[estimates.size() / 2];
}

double F0EstimatorSW::EstimateLatest() {
  return Estimate(serial_points_ > 0 ? serial_latest_stamp_ : pool_.now());
}

}  // namespace rl0
