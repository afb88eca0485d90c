// Golden decision digests of the infinite-window sampler (Algorithm 1).
//
// Every case feeds one seeded near-duplicate stream through the serial
// RobustL0SamplerIW and through a 4-lane ShardedSamplerPool, draws a
// fixed sequence of samples between chunks, and folds into one FNV-1a
// digest: every drawn item (coordinate bits and stream position) or
// SampleK draw, the space meter after every chunk, and the final
// SnapshotSampler bytes of the serial sampler, of every shard and of the
// merged pool (which carry the level, the representative table with its
// accept flags and reservoirs, and the peak space watermark). The pool
// side draws from Merged() after every Drain; its chunks rotate through
// Feed, FeedBorrowed and ConsumeParallel, and the final merge is taken
// through MergedQuiesced. The checked-in values pin the decisions, RNG
// draws and snapshot bytes of the current implementation, so a refactor
// of the pool's lane wiring, the merge or the sampler that changes any of
// them fails here.
//
// Matrix: dim {2, 5, 20} × reservoir on/off × k {1, 3} × accept cap
// {default, 6}. Every case starts at rate 1; the
// default cap ends at rate 1/2–1/8 and the cap of 6 at 1/32–1/64, so
// level raises, rejections and AbsorbFrom's re-filtering at a common
// level all run.
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

#include "rl0/core/iw_sampler.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

constexpr size_t kPoints = 2400;
constexpr size_t kChunk = 257;
constexpr size_t kSmallCap = 6;

struct Case {
  size_t dim;
  bool reservoir;
  size_t k;
  size_t cap;  // 0 = the options' default cap
};

std::string CaseName(const char* path, const Case& c) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s/d%zu/r%d/k%zu/c%zu", path, c.dim,
                c.reservoir ? 1 : 0, c.k, c.cap);
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
  void Item(const SampleItem& item) {
    U64(item.stream_index);
    Bytes(item.point.data(), item.point.dim() * sizeof(double));
  }
  void Snapshot(const RobustL0SamplerIW& sampler) {
    std::string bytes;
    EXPECT_TRUE(SnapshotSampler(sampler, &bytes).ok());
    U64(bytes.size());
    Bytes(bytes.data(), bytes.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

SamplerOptions OptionsFor(const Case& c) {
  SamplerOptions opts;
  opts.dim = c.dim;
  opts.alpha = 1.0;
  opts.seed = 0x1E0000 + c.dim;
  opts.expected_stream_length = 1 << 14;
  opts.accept_cap = c.cap;
  opts.k = c.k;
  opts.random_representative = c.reservoir;
  return opts;
}

/// A near-duplicate stream: skewed group popularity, jittered members and
/// a quarter exact repeats of recent arrivals.
std::vector<Point> MakeStream(const Case& c) {
  Xoshiro256pp rng(0x1D16E57 ^ (c.dim * 131));
  const size_t groups = 320;
  std::vector<Point> centers;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> x(c.dim);
    for (double& v : x) v = 60.0 * rng.NextDouble();
    centers.emplace_back(std::move(x));
  }
  std::vector<Point> points;
  for (size_t i = 0; i < kPoints; ++i) {
    if (i > 0 && rng.NextBounded(4) == 0) {
      points.push_back(points[i - 1 - rng.NextBounded(i < 64 ? i : 64)]);
      continue;
    }
    const size_t g = rng.NextBounded(rng.NextBounded(groups) + 1);
    std::vector<double> x(c.dim);
    for (size_t d = 0; d < c.dim; ++d) {
      x[d] = centers[g][d] + 0.3 * (rng.NextDouble() - 0.5);
    }
    points.emplace_back(std::move(x));
  }
  return points;
}

/// One query: Sample for k = 1, SampleK(k) otherwise (a failed SampleK
/// folds its status code), then the sampler's space meter.
void DigestQuery(const Case& c, const RobustL0SamplerIW& sampler,
                 Xoshiro256pp* rng, Fnv* fnv) {
  if (c.k == 1) {
    const std::optional<SampleItem> item = sampler.Sample(rng);
    fnv->U64(item.has_value() ? 1 : 0);
    if (item.has_value()) fnv->Item(*item);
  } else {
    const Result<std::vector<SampleItem>> items = sampler.SampleK(c.k, rng);
    fnv->U64(static_cast<uint64_t>(items.status().code()));
    if (items.ok()) {
      fnv->U64(items.value().size());
      for (const SampleItem& item : items.value()) fnv->Item(item);
    }
  }
  fnv->U64(sampler.SpaceWords());
}

uint64_t SerialDigest(const Case& c, const std::vector<Point>& points) {
  auto sampler = RobustL0SamplerIW::Create(OptionsFor(c)).value();
  Fnv fnv;
  Xoshiro256pp rng(77);
  for (size_t i = 0; i < kPoints; ++i) {
    sampler.Insert(points[i]);
    if ((i + 1) % kChunk == 0 || i + 1 == kPoints) {
      DigestQuery(c, sampler, &rng, &fnv);
    }
  }
  fnv.Snapshot(sampler);
  return fnv.value();
}

uint64_t PoolDigest(const Case& c, const std::vector<Point>& points) {
  auto pool = ShardedSamplerPool::Create(OptionsFor(c), 4).value();
  Fnv fnv;
  Xoshiro256pp rng(78);
  for (size_t b = 0; b < kPoints; b += kChunk) {
    const Span<const Point> chunk(&points[b], std::min(kChunk, kPoints - b));
    switch ((b / kChunk) % 3) {
      case 0:
        pool.Feed(chunk);
        break;
      case 1:
        pool.FeedBorrowed(chunk);
        break;
      default:
        pool.ConsumeParallel(chunk);
        break;
    }
    pool.Drain();
    DigestQuery(c, pool.Merged().value(), &rng, &fnv);
    fnv.U64(pool.SpaceWords());
    fnv.U64(pool.points_processed());
  }
  for (size_t s = 0; s < pool.num_shards(); ++s) fnv.Snapshot(pool.shard(s));
  fnv.Snapshot(pool.MergedQuiesced().value());
  return fnv.value();
}

// Captured from the implementation before the pools shared one lane base.
const std::map<std::string, uint64_t>& Goldens() {
  static const auto* goldens = new std::map<std::string, uint64_t>{
      {"serial/d2/r0/k1/c0", 0x23f96c0e5849c886ULL},
      {"pool4/d2/r0/k1/c0", 0x9c2cbc5d79a95cb4ULL},
      {"serial/d2/r0/k1/c6", 0x94e88a45f12db716ULL},
      {"pool4/d2/r0/k1/c6", 0x3556367d1b41e337ULL},
      {"serial/d2/r0/k3/c0", 0x1feb44046bea5488ULL},
      {"pool4/d2/r0/k3/c0", 0x324a6e2485b9f149ULL},
      {"serial/d2/r0/k3/c6", 0x21393d27b7b4b909ULL},
      {"pool4/d2/r0/k3/c6", 0x11ca43638048844bULL},
      {"serial/d2/r1/k1/c0", 0x1656640253139340ULL},
      {"pool4/d2/r1/k1/c0", 0xf47ee657d70faf4eULL},
      {"serial/d2/r1/k1/c6", 0xe8e907f75ba23085ULL},
      {"pool4/d2/r1/k1/c6", 0x73c66797a3c6f046ULL},
      {"serial/d2/r1/k3/c0", 0xed8fd8dc3a4fcf93ULL},
      {"pool4/d2/r1/k3/c0", 0x6c572335e626ae86ULL},
      {"serial/d2/r1/k3/c6", 0x4991b6c89aa27c6dULL},
      {"pool4/d2/r1/k3/c6", 0x6790b4452464aa75ULL},
      {"serial/d5/r0/k1/c0", 0x9cd63c637f9d34faULL},
      {"pool4/d5/r0/k1/c0", 0x4ad80d01ede0a454ULL},
      {"serial/d5/r0/k1/c6", 0x92252333ac7bfe1eULL},
      {"pool4/d5/r0/k1/c6", 0x488b7d02b387be51ULL},
      {"serial/d5/r0/k3/c0", 0xdf1ddc4d24a2601cULL},
      {"pool4/d5/r0/k3/c0", 0xd4d8df2ff087f03fULL},
      {"serial/d5/r0/k3/c6", 0xd358515d469c77b8ULL},
      {"pool4/d5/r0/k3/c6", 0xdcf189b980350073ULL},
      {"serial/d5/r1/k1/c0", 0xab7768df4c9d1f64ULL},
      {"pool4/d5/r1/k1/c0", 0x4e5fa0d0d0c0747cULL},
      {"serial/d5/r1/k1/c6", 0xc4aaa72b4d19c4f8ULL},
      {"pool4/d5/r1/k1/c6", 0x35f14673887eb9f7ULL},
      {"serial/d5/r1/k3/c0", 0x3f83e86c432fada2ULL},
      {"pool4/d5/r1/k3/c0", 0x4f43cf83fe4bb0faULL},
      {"serial/d5/r1/k3/c6", 0x17266a8389b1fe25ULL},
      {"pool4/d5/r1/k3/c6", 0x7ab24e337e4d8f49ULL},
      {"serial/d20/r0/k1/c0", 0x87919e57177c2fd2ULL},
      {"pool4/d20/r0/k1/c0", 0xa28c58ec176c15d9ULL},
      {"serial/d20/r0/k1/c6", 0xd6aca844f2f76ec0ULL},
      {"pool4/d20/r0/k1/c6", 0x1c111dcad1e136f7ULL},
      {"serial/d20/r0/k3/c0", 0xc28fa387056dd61cULL},
      {"pool4/d20/r0/k3/c0", 0xdae9847b1187c0e0ULL},
      {"serial/d20/r0/k3/c6", 0xd7f5daecede12347ULL},
      {"pool4/d20/r0/k3/c6", 0x4455f20ec341036dULL},
      {"serial/d20/r1/k1/c0", 0x32830589a26644e7ULL},
      {"pool4/d20/r1/k1/c0", 0xf3031f382a3871a9ULL},
      {"serial/d20/r1/k1/c6", 0x9efdc9e3ab877c17ULL},
      {"pool4/d20/r1/k1/c6", 0xfdb904dd4ae0a778ULL},
      {"serial/d20/r1/k3/c0", 0xd5c09f3d91945567ULL},
      {"pool4/d20/r1/k3/c0", 0xe95825b1527e5556ULL},
      {"serial/d20/r1/k3/c6", 0xb258a817850bb67dULL},
      {"pool4/d20/r1/k3/c6", 0xacc410d54eeb4f4eULL},
  };
  return *goldens;
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (size_t dim : {2, 5, 20}) {
    for (bool reservoir : {false, true}) {
      for (size_t k : {1, 3}) {
        for (size_t cap : {size_t{0}, kSmallCap}) {
          cases.push_back(Case{dim, reservoir, k, cap});
        }
      }
    }
  }
  return cases;
}

TEST(IwGoldenDigestTest, SerialAndPoolDecisionsMatchCheckedInDigests) {
  const auto& goldens = Goldens();
  size_t checked = 0;
  for (const Case& c : AllCases()) {
    const std::vector<Point> stream = MakeStream(c);
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
