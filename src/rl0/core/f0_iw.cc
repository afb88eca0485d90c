#include "rl0/core/f0_iw.h"

#include <algorithm>
#include <cmath>

#include "rl0/util/check.h"
#include "rl0/util/rng.h"

namespace rl0 {

Status F0Options::Validate() const {
  Status s = sampler.Validate();
  if (!s.ok()) return s;
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (kappa_b <= 0.0) {
    return Status::InvalidArgument("kappa_b must be positive");
  }
  if (copies < 1) {
    return Status::InvalidArgument("copies must be >= 1");
  }
  return Status::OK();
}

size_t F0Options::PerCopyCap() const {
  return std::max<size_t>(
      8, static_cast<size_t>(std::ceil(kappa_b / (epsilon * epsilon))));
}

Result<F0EstimatorIW> F0EstimatorIW::Create(const F0Options& options) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  std::vector<RobustL0SamplerIW> samplers;
  samplers.reserve(options.copies);
  for (size_t i = 0; i < options.copies; ++i) {
    SamplerOptions per_copy = options.sampler;
    // Section 5: replace the κ0·log m threshold with κB/ε².
    per_copy.accept_cap = options.PerCopyCap();
    // Independent randomness per copy, derived from the master seed.
    per_copy.seed = SplitMix64(options.sampler.seed + 0x46300000ULL + i);
    Result<RobustL0SamplerIW> sampler = RobustL0SamplerIW::Create(per_copy);
    if (!sampler.ok()) return sampler.status();
    samplers.push_back(std::move(sampler).value());
  }
  return F0EstimatorIW(ShardedSamplerPool(
      std::move(samplers), IngestPool::Options(), /*broadcast=*/true));
}

F0EstimatorIW::F0EstimatorIW(ShardedSamplerPool pool)
    : pool_(std::move(pool)) {}

void F0EstimatorIW::EnterSerialMode() {
  // Checked once, on the first serial insert; Feed checks the flag.
  if (!serial_) RL0_CHECK(pool_.points_fed() == 0);
  serial_ = true;
}

void F0EstimatorIW::Insert(const Point& p) {
  EnterSerialMode();
  for (size_t c = 0; c < copies(); ++c) pool_.shard(c).Insert(p);
}

void F0EstimatorIW::InsertBatch(Span<const Point> points) {
  EnterSerialMode();
  for (size_t c = 0; c < copies(); ++c) pool_.shard(c).InsertBatch(points);
}

void F0EstimatorIW::Feed(Span<const Point> points) {
  RL0_CHECK(!serial_);
  pool_.Feed(points);
}

void F0EstimatorIW::Drain() { pool_.Drain(); }

std::vector<double> F0EstimatorIW::CopyEstimates() const {
  std::vector<double> estimates;
  estimates.reserve(copies());
  for (size_t c = 0; c < copies(); ++c) {
    const RobustL0SamplerIW& sampler = pool_.shard(c);
    estimates.push_back(static_cast<double>(sampler.accept_size()) *
                        static_cast<double>(sampler.rate_reciprocal()));
  }
  return estimates;
}

double F0EstimatorIW::Estimate() const {
  std::vector<double> estimates = CopyEstimates();
  if (estimates.empty()) return 0.0;
  std::nth_element(estimates.begin(),
                   estimates.begin() + estimates.size() / 2, estimates.end());
  return estimates[estimates.size() / 2];
}

}  // namespace rl0
