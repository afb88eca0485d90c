// Golden decision digests of the sliding-window hierarchy.
//
// Every case feeds one seeded near-duplicate stream through the serial
// sampler path and through a 4-lane ShardedSwSamplerPool, draws a fixed
// sequence of samples between chunks, and folds into one FNV-1a digest:
// every drawn item (coordinate bits and stream position), the space
// meter after every chunk, the cascade/error counters, and the final
// SnapshotSamplerSW bytes of every shard (which carry every level's group
// records, reservoirs and the peak space watermark). The checked-in
// values pin the decisions, RNG draws and snapshot bytes of the current
// implementation, so a refactor of the descent, the group tables or the
// space meter that changes any of them fails here — without having to
// keep a reference implementation around to diff against.
//
// Matrix: stamp mode (seq / time / late) × dim {2, 5, 20} × duplicate
// filter on/off × reservoir on/off × window {300, 8192, 2^33}. The 2^33
// window runs 34 levels, past the 32-bit boundary of any per-level bit
// set. "serial" late mode is a one-lane pool — the only serial
// bounded-lateness path.
//
// Regenerating (only for an intended behaviour change): every mismatch
// prints the case's `{"name", 0x...},` line; paste the new lines over the
// table below.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

constexpr size_t kPoints = 2400;
constexpr size_t kChunk = 257;
constexpr int64_t kLateness = 16;

enum class Mode { kSeq, kTime, kLate };

struct Case {
  Mode mode;
  size_t dim;
  bool filter;
  bool reservoir;
  int64_t window;
};

std::string CaseName(const char* path, const Case& c) {
  const char* mode = c.mode == Mode::kSeq    ? "seq"
                     : c.mode == Mode::kTime ? "time"
                                             : "late";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/%s/d%zu/f%d/r%d/w%lld", path, mode,
                c.dim, c.filter ? 1 : 0, c.reservoir ? 1 : 0,
                static_cast<long long>(c.window));
  return buf;
}

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Item(const std::optional<SampleItem>& item) {
    U64(item.has_value() ? 1 : 0);
    if (!item.has_value()) return;
    U64(item->stream_index);
    Bytes(item->point.data(), item->point.dim() * sizeof(double));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

SamplerOptions OptionsFor(const Case& c) {
  SamplerOptions opts;
  opts.dim = c.dim;
  opts.alpha = 1.0;
  opts.seed = 0x5EED0000 + c.dim;
  opts.expected_stream_length = 1 << 14;
  // A small cap keeps the split cascades (PromoteInto) busy.
  opts.accept_cap = 12;
  opts.dup_filter = c.filter;
  opts.random_representative = c.reservoir;
  if (c.mode == Mode::kLate) opts.allowed_lateness = kLateness;
  return opts;
}

/// A near-duplicate stream: skewed group popularity, jittered members,
/// a quarter exact repeats of recent arrivals (dup-filter hits), and — in
/// the stamped modes — ties, small steps and rare gaps wider than the
/// window. Late mode perturbs each stamp by up to kLateness + 3 back, so
/// a few arrivals fall beyond the bound and are dropped.
struct Stream {
  std::vector<Point> points;
  std::vector<int64_t> stamps;
};

Stream MakeStream(const Case& c) {
  Xoshiro256pp rng(0xD16E57 ^ (c.dim * 131) ^ static_cast<uint64_t>(c.mode));
  const size_t groups = 320;
  std::vector<Point> centers;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> x(c.dim);
    for (double& v : x) v = 60.0 * rng.NextDouble();
    centers.emplace_back(std::move(x));
  }
  Stream s;
  int64_t t = 0;
  for (size_t i = 0; i < kPoints; ++i) {
    if (i > 0 && rng.NextBounded(4) == 0) {
      s.points.push_back(
          s.points[i - 1 - rng.NextBounded(i < 64 ? i : 64)]);
    } else {
      const size_t g = rng.NextBounded(rng.NextBounded(groups) + 1);
      std::vector<double> x(c.dim);
      for (size_t d = 0; d < c.dim; ++d) {
        x[d] = centers[g][d] + 0.3 * (rng.NextDouble() - 0.5);
      }
      s.points.emplace_back(std::move(x));
    }
    if (c.mode == Mode::kSeq) continue;
    t += static_cast<int64_t>(rng.NextBounded(3));
    if (rng.NextBounded(600) == 0) t += c.window + 5;
    int64_t stamp = t;
    if (c.mode == Mode::kLate) {
      stamp -= static_cast<int64_t>(rng.NextBounded(kLateness + 4));
    }
    s.stamps.push_back(stamp);
  }
  return s;
}

void DigestShards(const ShardedSwSamplerPool& pool, Fnv* fnv) {
  for (size_t i = 0; i < pool.num_shards(); ++i) {
    const RobustL0SamplerSW& shard = pool.shard(i);
    fnv->U64(shard.error_count());
    fnv->U64(shard.stuck_split_count());
    fnv->U64(shard.PeakSpaceWords());
    std::string bytes;
    EXPECT_TRUE(SnapshotSamplerSW(shard, &bytes).ok());
    fnv->U64(bytes.size());
    fnv->Bytes(bytes.data(), bytes.size());
  }
}

/// The serial hierarchy: Insert / InsertStamped per point. Late mode has
/// no serial entry point other than a one-lane pool.
uint64_t SerialDigest(const Case& c, const Stream& s) {
  if (c.mode == Mode::kLate) {
    auto pool =
        ShardedSwSamplerPool::Create(OptionsFor(c), c.window, 1).value();
    Fnv fnv;
    Xoshiro256pp rng(77);
    for (size_t b = 0; b < kPoints; b += kChunk) {
      const size_t n = std::min(kChunk, kPoints - b);
      pool.FeedStampedLate(Span<const Point>(&s.points[b], n),
                            Span<const int64_t>(&s.stamps[b], n));
      pool.Drain();
      fnv.Item(pool.SampleLatest(&rng));
      fnv.U64(pool.SpaceWords());
    }
    pool.FlushLate();
    pool.Drain();
    fnv.Item(pool.SampleLatest(&rng));
    DigestShards(pool, &fnv);
    return fnv.value();
  }
  auto sampler = RobustL0SamplerSW::Create(OptionsFor(c), c.window).value();
  Fnv fnv;
  Xoshiro256pp rng(77);
  for (size_t i = 0; i < kPoints; ++i) {
    if (c.mode == Mode::kSeq) {
      sampler.Insert(s.points[i]);
    } else {
      sampler.Insert(s.points[i], s.stamps[i]);
    }
    if ((i + 1) % kChunk == 0 || i + 1 == kPoints) {
      fnv.Item(sampler.Sample(sampler.latest_stamp(), &rng));
      fnv.U64(sampler.SpaceWords());
    }
  }
  fnv.U64(sampler.error_count());
  fnv.U64(sampler.stuck_split_count());
  fnv.U64(sampler.PeakSpaceWords());
  std::string bytes;
  EXPECT_TRUE(SnapshotSamplerSW(sampler, &bytes).ok());
  fnv.U64(bytes.size());
  fnv.Bytes(bytes.data(), bytes.size());
  return fnv.value();
}

uint64_t PoolDigest(const Case& c, const Stream& s) {
  auto pool = ShardedSwSamplerPool::Create(OptionsFor(c), c.window, 4).value();
  Fnv fnv;
  Xoshiro256pp rng(78);
  for (size_t b = 0; b < kPoints; b += kChunk) {
    const size_t n = std::min(kChunk, kPoints - b);
    const Span<const Point> points(&s.points[b], n);
    if (c.mode == Mode::kSeq) {
      pool.Feed(points);
    } else if (c.mode == Mode::kTime) {
      pool.FeedStamped(points, Span<const int64_t>(&s.stamps[b], n));
    } else {
      pool.FeedStampedLate(points, Span<const int64_t>(&s.stamps[b], n));
    }
    pool.Drain();
    fnv.Item(pool.SampleLatest(&rng));
    fnv.U64(pool.SpaceWords());
  }
  if (c.mode == Mode::kLate) {
    pool.FlushLate();
    pool.Drain();
    fnv.Item(pool.SampleLatest(&rng));
  }
  DigestShards(pool, &fnv);
  return fnv.value();
}

// Captured from the implementation before the one-probe-per-arrival
// descent (per-level rehash and cell-index probe, walking space meter).
const std::map<std::string, uint64_t>& Goldens() {
  static const auto* goldens = new std::map<std::string, uint64_t>{
      {"serial/seq/d2/f0/r0/w300", 0x2dbaec8038fddac4ULL},
      {"pool4/seq/d2/f0/r0/w300", 0x45c112518985e351ULL},
      {"serial/seq/d2/f0/r0/w8192", 0xf794cfe2e87efb82ULL},
      {"pool4/seq/d2/f0/r0/w8192", 0x6deddae3d90bfa87ULL},
      {"serial/seq/d2/f0/r0/w8589934592", 0xa9e23d6da9f2c52dULL},
      {"pool4/seq/d2/f0/r0/w8589934592", 0x119c00e71249dc63ULL},
      {"serial/seq/d2/f0/r1/w300", 0x34750d15aa25e228ULL},
      {"pool4/seq/d2/f0/r1/w300", 0x790122fc43093895ULL},
      {"serial/seq/d2/f0/r1/w8192", 0xa3ff9de1e58963f2ULL},
      {"pool4/seq/d2/f0/r1/w8192", 0xc55683a06d7b8eb1ULL},
      {"serial/seq/d2/f0/r1/w8589934592", 0x297c6cf1c8fed30fULL},
      {"pool4/seq/d2/f0/r1/w8589934592", 0xc610d424298e4d97ULL},
      {"serial/seq/d2/f1/r0/w300", 0x2dbaec8038fddac4ULL},
      {"pool4/seq/d2/f1/r0/w300", 0x45c112518985e351ULL},
      {"serial/seq/d2/f1/r0/w8192", 0xf794cfe2e87efb82ULL},
      {"pool4/seq/d2/f1/r0/w8192", 0x6deddae3d90bfa87ULL},
      {"serial/seq/d2/f1/r0/w8589934592", 0xa9e23d6da9f2c52dULL},
      {"pool4/seq/d2/f1/r0/w8589934592", 0x119c00e71249dc63ULL},
      {"serial/seq/d2/f1/r1/w300", 0x34750d15aa25e228ULL},
      {"pool4/seq/d2/f1/r1/w300", 0x790122fc43093895ULL},
      {"serial/seq/d2/f1/r1/w8192", 0xa3ff9de1e58963f2ULL},
      {"pool4/seq/d2/f1/r1/w8192", 0xc55683a06d7b8eb1ULL},
      {"serial/seq/d2/f1/r1/w8589934592", 0x297c6cf1c8fed30fULL},
      {"pool4/seq/d2/f1/r1/w8589934592", 0xc610d424298e4d97ULL},
      {"serial/seq/d5/f0/r0/w300", 0xa4a2102ca1333b19ULL},
      {"pool4/seq/d5/f0/r0/w300", 0x94601612b1b99ddcULL},
      {"serial/seq/d5/f0/r0/w8192", 0x3e71d8c6485d734bULL},
      {"pool4/seq/d5/f0/r0/w8192", 0xeff698de0e0625d5ULL},
      {"serial/seq/d5/f0/r0/w8589934592", 0x9ced64ade7988bdaULL},
      {"pool4/seq/d5/f0/r0/w8589934592", 0xeb06e64c17b4957dULL},
      {"serial/seq/d5/f0/r1/w300", 0xa3a61d008e122a4dULL},
      {"pool4/seq/d5/f0/r1/w300", 0x51dd0350a201cdf8ULL},
      {"serial/seq/d5/f0/r1/w8192", 0x1b0035b9e187b601ULL},
      {"pool4/seq/d5/f0/r1/w8192", 0xbb8caf82b6dc785ULL},
      {"serial/seq/d5/f0/r1/w8589934592", 0xd262678360a5374eULL},
      {"pool4/seq/d5/f0/r1/w8589934592", 0xd9810672a63eb726ULL},
      {"serial/seq/d5/f1/r0/w300", 0xa4a2102ca1333b19ULL},
      {"pool4/seq/d5/f1/r0/w300", 0x94601612b1b99ddcULL},
      {"serial/seq/d5/f1/r0/w8192", 0x3e71d8c6485d734bULL},
      {"pool4/seq/d5/f1/r0/w8192", 0xeff698de0e0625d5ULL},
      {"serial/seq/d5/f1/r0/w8589934592", 0x9ced64ade7988bdaULL},
      {"pool4/seq/d5/f1/r0/w8589934592", 0xeb06e64c17b4957dULL},
      {"serial/seq/d5/f1/r1/w300", 0xa3a61d008e122a4dULL},
      {"pool4/seq/d5/f1/r1/w300", 0x51dd0350a201cdf8ULL},
      {"serial/seq/d5/f1/r1/w8192", 0x1b0035b9e187b601ULL},
      {"pool4/seq/d5/f1/r1/w8192", 0xbb8caf82b6dc785ULL},
      {"serial/seq/d5/f1/r1/w8589934592", 0xd262678360a5374eULL},
      {"pool4/seq/d5/f1/r1/w8589934592", 0xd9810672a63eb726ULL},
      {"serial/seq/d20/f0/r0/w300", 0x73a5eacece28d68aULL},
      {"pool4/seq/d20/f0/r0/w300", 0xee4a2d451012dd62ULL},
      {"serial/seq/d20/f0/r0/w8192", 0x7050e58d50e6f46dULL},
      {"pool4/seq/d20/f0/r0/w8192", 0x32dda814d4b60861ULL},
      {"serial/seq/d20/f0/r0/w8589934592", 0x1c820482f841e32bULL},
      {"pool4/seq/d20/f0/r0/w8589934592", 0x4a6e072f990c0e73ULL},
      {"serial/seq/d20/f0/r1/w300", 0x401e761004c5a7aeULL},
      {"pool4/seq/d20/f0/r1/w300", 0x9c2f796f8507556ULL},
      {"serial/seq/d20/f0/r1/w8192", 0x2dda26ded28d88b7ULL},
      {"pool4/seq/d20/f0/r1/w8192", 0x359219c7b6726eb6ULL},
      {"serial/seq/d20/f0/r1/w8589934592", 0x34073da892839744ULL},
      {"pool4/seq/d20/f0/r1/w8589934592", 0x6fe685520d62477dULL},
      {"serial/seq/d20/f1/r0/w300", 0x73a5eacece28d68aULL},
      {"pool4/seq/d20/f1/r0/w300", 0xee4a2d451012dd62ULL},
      {"serial/seq/d20/f1/r0/w8192", 0x7050e58d50e6f46dULL},
      {"pool4/seq/d20/f1/r0/w8192", 0x32dda814d4b60861ULL},
      {"serial/seq/d20/f1/r0/w8589934592", 0x1c820482f841e32bULL},
      {"pool4/seq/d20/f1/r0/w8589934592", 0x4a6e072f990c0e73ULL},
      {"serial/seq/d20/f1/r1/w300", 0x401e761004c5a7aeULL},
      {"pool4/seq/d20/f1/r1/w300", 0x9c2f796f8507556ULL},
      {"serial/seq/d20/f1/r1/w8192", 0x2dda26ded28d88b7ULL},
      {"pool4/seq/d20/f1/r1/w8192", 0x359219c7b6726eb6ULL},
      {"serial/seq/d20/f1/r1/w8589934592", 0x34073da892839744ULL},
      {"pool4/seq/d20/f1/r1/w8589934592", 0x6fe685520d62477dULL},
      {"serial/time/d2/f0/r0/w300", 0xa725855024ae7317ULL},
      {"pool4/time/d2/f0/r0/w300", 0xc0c22135bf5f550cULL},
      {"serial/time/d2/f0/r0/w8192", 0xa15783f04d21f6d4ULL},
      {"pool4/time/d2/f0/r0/w8192", 0x6c6eb70c0bf4fea0ULL},
      {"serial/time/d2/f0/r0/w8589934592", 0x4e90c790790ff248ULL},
      {"pool4/time/d2/f0/r0/w8589934592", 0x52171089fd0b6418ULL},
      {"serial/time/d2/f0/r1/w300", 0x2aeb6f7c1181ee1eULL},
      {"pool4/time/d2/f0/r1/w300", 0xa8258424b38c2f0eULL},
      {"serial/time/d2/f0/r1/w8192", 0x7bfce6ecdd1ae6a4ULL},
      {"pool4/time/d2/f0/r1/w8192", 0xf82b748caf7e81a6ULL},
      {"serial/time/d2/f0/r1/w8589934592", 0x166b9b32fed44f72ULL},
      {"pool4/time/d2/f0/r1/w8589934592", 0x1bc79347dd78d5feULL},
      {"serial/time/d2/f1/r0/w300", 0xa725855024ae7317ULL},
      {"pool4/time/d2/f1/r0/w300", 0xc0c22135bf5f550cULL},
      {"serial/time/d2/f1/r0/w8192", 0xa15783f04d21f6d4ULL},
      {"pool4/time/d2/f1/r0/w8192", 0x6c6eb70c0bf4fea0ULL},
      {"serial/time/d2/f1/r0/w8589934592", 0x4e90c790790ff248ULL},
      {"pool4/time/d2/f1/r0/w8589934592", 0x52171089fd0b6418ULL},
      {"serial/time/d2/f1/r1/w300", 0x2aeb6f7c1181ee1eULL},
      {"pool4/time/d2/f1/r1/w300", 0xa8258424b38c2f0eULL},
      {"serial/time/d2/f1/r1/w8192", 0x7bfce6ecdd1ae6a4ULL},
      {"pool4/time/d2/f1/r1/w8192", 0xf82b748caf7e81a6ULL},
      {"serial/time/d2/f1/r1/w8589934592", 0x166b9b32fed44f72ULL},
      {"pool4/time/d2/f1/r1/w8589934592", 0x1bc79347dd78d5feULL},
      {"serial/time/d5/f0/r0/w300", 0xf54dece32dcab44aULL},
      {"pool4/time/d5/f0/r0/w300", 0xa4835c7fbd597b98ULL},
      {"serial/time/d5/f0/r0/w8192", 0xa080b164a6cffd9cULL},
      {"pool4/time/d5/f0/r0/w8192", 0xe0655d18fd1971ffULL},
      {"serial/time/d5/f0/r0/w8589934592", 0xd4442c0df5851095ULL},
      {"pool4/time/d5/f0/r0/w8589934592", 0x881fa398d6098e51ULL},
      {"serial/time/d5/f0/r1/w300", 0xd94e75f99208cf81ULL},
      {"pool4/time/d5/f0/r1/w300", 0x13008539f7e2c24aULL},
      {"serial/time/d5/f0/r1/w8192", 0x2f376ed50d845312ULL},
      {"pool4/time/d5/f0/r1/w8192", 0x9555e3644153e8d1ULL},
      {"serial/time/d5/f0/r1/w8589934592", 0x405e05803938779ULL},
      {"pool4/time/d5/f0/r1/w8589934592", 0xe8da1e3d4945f29cULL},
      {"serial/time/d5/f1/r0/w300", 0xf54dece32dcab44aULL},
      {"pool4/time/d5/f1/r0/w300", 0xa4835c7fbd597b98ULL},
      {"serial/time/d5/f1/r0/w8192", 0xa080b164a6cffd9cULL},
      {"pool4/time/d5/f1/r0/w8192", 0xe0655d18fd1971ffULL},
      {"serial/time/d5/f1/r0/w8589934592", 0xd4442c0df5851095ULL},
      {"pool4/time/d5/f1/r0/w8589934592", 0x881fa398d6098e51ULL},
      {"serial/time/d5/f1/r1/w300", 0xd94e75f99208cf81ULL},
      {"pool4/time/d5/f1/r1/w300", 0x13008539f7e2c24aULL},
      {"serial/time/d5/f1/r1/w8192", 0x2f376ed50d845312ULL},
      {"pool4/time/d5/f1/r1/w8192", 0x9555e3644153e8d1ULL},
      {"serial/time/d5/f1/r1/w8589934592", 0x405e05803938779ULL},
      {"pool4/time/d5/f1/r1/w8589934592", 0xe8da1e3d4945f29cULL},
      {"serial/time/d20/f0/r0/w300", 0xfe832f0bd1e4212bULL},
      {"pool4/time/d20/f0/r0/w300", 0xfc9f2a82c5001beaULL},
      {"serial/time/d20/f0/r0/w8192", 0xc2273e83039361faULL},
      {"pool4/time/d20/f0/r0/w8192", 0x508a49c8580fee30ULL},
      {"serial/time/d20/f0/r0/w8589934592", 0x6f66ea22cf4cbe55ULL},
      {"pool4/time/d20/f0/r0/w8589934592", 0xb11b22dcc70dcfe1ULL},
      {"serial/time/d20/f0/r1/w300", 0x640de4cb06cc5f8fULL},
      {"pool4/time/d20/f0/r1/w300", 0x94fd2b1be5c00cf6ULL},
      {"serial/time/d20/f0/r1/w8192", 0xa564a3f2a5bbdff3ULL},
      {"pool4/time/d20/f0/r1/w8192", 0xd681ecd3a4ae1848ULL},
      {"serial/time/d20/f0/r1/w8589934592", 0x5facab4591a05d2aULL},
      {"pool4/time/d20/f0/r1/w8589934592", 0x7d415930776b0b21ULL},
      {"serial/time/d20/f1/r0/w300", 0xfe832f0bd1e4212bULL},
      {"pool4/time/d20/f1/r0/w300", 0xfc9f2a82c5001beaULL},
      {"serial/time/d20/f1/r0/w8192", 0xc2273e83039361faULL},
      {"pool4/time/d20/f1/r0/w8192", 0x508a49c8580fee30ULL},
      {"serial/time/d20/f1/r0/w8589934592", 0x6f66ea22cf4cbe55ULL},
      {"pool4/time/d20/f1/r0/w8589934592", 0xb11b22dcc70dcfe1ULL},
      {"serial/time/d20/f1/r1/w300", 0x640de4cb06cc5f8fULL},
      {"pool4/time/d20/f1/r1/w300", 0x94fd2b1be5c00cf6ULL},
      {"serial/time/d20/f1/r1/w8192", 0xa564a3f2a5bbdff3ULL},
      {"pool4/time/d20/f1/r1/w8192", 0xd681ecd3a4ae1848ULL},
      {"serial/time/d20/f1/r1/w8589934592", 0x5facab4591a05d2aULL},
      {"pool4/time/d20/f1/r1/w8589934592", 0x7d415930776b0b21ULL},
      {"serial/late/d2/f0/r0/w300", 0x8c2b58ecef7adbbbULL},
      {"pool4/late/d2/f0/r0/w300", 0x5134d33a91e45845ULL},
      {"serial/late/d2/f0/r0/w8192", 0x831d5e96816dbcfcULL},
      {"pool4/late/d2/f0/r0/w8192", 0x6cadbac20fe50c7fULL},
      {"serial/late/d2/f0/r0/w8589934592", 0xb3e2dd65172f41b5ULL},
      {"pool4/late/d2/f0/r0/w8589934592", 0xbd2743fb6429658cULL},
      {"serial/late/d2/f0/r1/w300", 0x624d00aea5df2548ULL},
      {"pool4/late/d2/f0/r1/w300", 0xbe247362b6c3e2f9ULL},
      {"serial/late/d2/f0/r1/w8192", 0x1ea53905420bd0f6ULL},
      {"pool4/late/d2/f0/r1/w8192", 0x758f148541266039ULL},
      {"serial/late/d2/f0/r1/w8589934592", 0xf742c78c1532ab5fULL},
      {"pool4/late/d2/f0/r1/w8589934592", 0xffe1ac837da8cd6eULL},
      {"serial/late/d2/f1/r0/w300", 0x8c2b58ecef7adbbbULL},
      {"pool4/late/d2/f1/r0/w300", 0x5134d33a91e45845ULL},
      {"serial/late/d2/f1/r0/w8192", 0x831d5e96816dbcfcULL},
      {"pool4/late/d2/f1/r0/w8192", 0x6cadbac20fe50c7fULL},
      {"serial/late/d2/f1/r0/w8589934592", 0xb3e2dd65172f41b5ULL},
      {"pool4/late/d2/f1/r0/w8589934592", 0xbd2743fb6429658cULL},
      {"serial/late/d2/f1/r1/w300", 0x624d00aea5df2548ULL},
      {"pool4/late/d2/f1/r1/w300", 0xbe247362b6c3e2f9ULL},
      {"serial/late/d2/f1/r1/w8192", 0x1ea53905420bd0f6ULL},
      {"pool4/late/d2/f1/r1/w8192", 0x758f148541266039ULL},
      {"serial/late/d2/f1/r1/w8589934592", 0xf742c78c1532ab5fULL},
      {"pool4/late/d2/f1/r1/w8589934592", 0xffe1ac837da8cd6eULL},
      {"serial/late/d5/f0/r0/w300", 0xeb74c4f4d667ea3dULL},
      {"pool4/late/d5/f0/r0/w300", 0x8d5d6717eb137013ULL},
      {"serial/late/d5/f0/r0/w8192", 0xb70883e62df9589eULL},
      {"pool4/late/d5/f0/r0/w8192", 0x8025b44f45f4e73cULL},
      {"serial/late/d5/f0/r0/w8589934592", 0xf8e09533459dd0c9ULL},
      {"pool4/late/d5/f0/r0/w8589934592", 0x791ae9a950c46b44ULL},
      {"serial/late/d5/f0/r1/w300", 0x144386c0627185f5ULL},
      {"pool4/late/d5/f0/r1/w300", 0xfc1f8ad723defefdULL},
      {"serial/late/d5/f0/r1/w8192", 0x48a9ffe491a18523ULL},
      {"pool4/late/d5/f0/r1/w8192", 0xc71938753e2f5ec8ULL},
      {"serial/late/d5/f0/r1/w8589934592", 0x56de48c93a2f8f0bULL},
      {"pool4/late/d5/f0/r1/w8589934592", 0x6ac3e11c6a2c971fULL},
      {"serial/late/d5/f1/r0/w300", 0xeb74c4f4d667ea3dULL},
      {"pool4/late/d5/f1/r0/w300", 0x8d5d6717eb137013ULL},
      {"serial/late/d5/f1/r0/w8192", 0xb70883e62df9589eULL},
      {"pool4/late/d5/f1/r0/w8192", 0x8025b44f45f4e73cULL},
      {"serial/late/d5/f1/r0/w8589934592", 0xf8e09533459dd0c9ULL},
      {"pool4/late/d5/f1/r0/w8589934592", 0x791ae9a950c46b44ULL},
      {"serial/late/d5/f1/r1/w300", 0x144386c0627185f5ULL},
      {"pool4/late/d5/f1/r1/w300", 0xfc1f8ad723defefdULL},
      {"serial/late/d5/f1/r1/w8192", 0x48a9ffe491a18523ULL},
      {"pool4/late/d5/f1/r1/w8192", 0xc71938753e2f5ec8ULL},
      {"serial/late/d5/f1/r1/w8589934592", 0x56de48c93a2f8f0bULL},
      {"pool4/late/d5/f1/r1/w8589934592", 0x6ac3e11c6a2c971fULL},
      {"serial/late/d20/f0/r0/w300", 0xc00cb0ceb97d8c3eULL},
      {"pool4/late/d20/f0/r0/w300", 0x6adb86c8b290f2c4ULL},
      {"serial/late/d20/f0/r0/w8192", 0xbcf8936cadf512d7ULL},
      {"pool4/late/d20/f0/r0/w8192", 0x1696eb469be22d0aULL},
      {"serial/late/d20/f0/r0/w8589934592", 0x2e577c0ee1286e6cULL},
      {"pool4/late/d20/f0/r0/w8589934592", 0x4e45948a287b0bf7ULL},
      {"serial/late/d20/f0/r1/w300", 0xca2fc268ad1b5cf8ULL},
      {"pool4/late/d20/f0/r1/w300", 0xb9c77846b3846adeULL},
      {"serial/late/d20/f0/r1/w8192", 0x7f46d4d7468d389dULL},
      {"pool4/late/d20/f0/r1/w8192", 0x3eb6296c6d94214dULL},
      {"serial/late/d20/f0/r1/w8589934592", 0x89fabba49a8f965cULL},
      {"pool4/late/d20/f0/r1/w8589934592", 0xb09c3d4267e47ea6ULL},
      {"serial/late/d20/f1/r0/w300", 0xc00cb0ceb97d8c3eULL},
      {"pool4/late/d20/f1/r0/w300", 0x6adb86c8b290f2c4ULL},
      {"serial/late/d20/f1/r0/w8192", 0xbcf8936cadf512d7ULL},
      {"pool4/late/d20/f1/r0/w8192", 0x1696eb469be22d0aULL},
      {"serial/late/d20/f1/r0/w8589934592", 0x2e577c0ee1286e6cULL},
      {"pool4/late/d20/f1/r0/w8589934592", 0x4e45948a287b0bf7ULL},
      {"serial/late/d20/f1/r1/w300", 0xca2fc268ad1b5cf8ULL},
      {"pool4/late/d20/f1/r1/w300", 0xb9c77846b3846adeULL},
      {"serial/late/d20/f1/r1/w8192", 0x7f46d4d7468d389dULL},
      {"pool4/late/d20/f1/r1/w8192", 0x3eb6296c6d94214dULL},
      {"serial/late/d20/f1/r1/w8589934592", 0x89fabba49a8f965cULL},
      {"pool4/late/d20/f1/r1/w8589934592", 0xb09c3d4267e47ea6ULL},
  };
  return *goldens;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (Mode mode : {Mode::kSeq, Mode::kTime, Mode::kLate}) {
    for (size_t dim : {2, 5, 20}) {
      for (bool filter : {false, true}) {
        for (bool reservoir : {false, true}) {
          for (int64_t window : {int64_t{300}, int64_t{8192},
                                 int64_t{1} << 33}) {
            cases.push_back(Case{mode, dim, filter, reservoir, window});
          }
        }
      }
    }
  }
  return cases;
}

TEST(SwGoldenDigestTest, SerialAndPoolDecisionsMatchCheckedInDigests) {
  const auto& goldens = Goldens();
  size_t checked = 0;
  for (const Case& c : AllCases()) {
    const Stream stream = MakeStream(c);
    const std::pair<const char*, uint64_t> runs[] = {
        {"serial", SerialDigest(c, stream)}, {"pool4", PoolDigest(c, stream)}};
    for (const auto& run : runs) {
      const std::string name = CaseName(run.first, c);
      const auto it = goldens.find(name);
      const bool match = it != goldens.end() && it->second == run.second;
      EXPECT_TRUE(match) << "{\"" << name << "\", 0x" << std::hex
                         << run.second << "ULL},";
      ++checked;
    }
  }
  EXPECT_EQ(checked, goldens.size());
}

}  // namespace
}  // namespace rl0
