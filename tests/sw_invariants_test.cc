// Structural invariants of the Algorithm 2/3 bookkeeping that the other
// suites exercise only implicitly: the key-value store A holds exactly one
// pair per candidate group with its value inside the window, subwindow
// Fact 3 (each non-empty level ends with an accepted latest point... as
// maintained by the split rule), and the split threshold restoration.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rl0/core/snapshot.h"
#include "rl0/core/sw_fixed_sampler.h"
#include "rl0/core/sw_group_table.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/space.h"

namespace rl0 {
namespace {

SamplerOptions BaseOptions(uint64_t seed) {
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.expected_stream_length = 1 << 16;
  return opts;
}

TEST(SwInvariantsTest, OnePairPerGroupValuesInWindow) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(1), 0, 20).value();
  Xoshiro256pp rng(2);
  for (int t = 0; t < 400; ++t) {
    // 30 groups revisited with jitter.
    const int g = static_cast<int>(rng.NextBounded(30));
    sampler->Insert(Point{10.0 * g + 0.3 * (rng.NextDouble() - 0.5)}, t);

    std::vector<GroupRecord> groups;
    sampler->SnapshotGroups(&groups);
    // (a) all latest stamps inside the window (t-20, t];
    // (b) representatives pairwise > alpha apart (one pair per group);
    // (c) latest point within alpha of its representative.
    for (size_t i = 0; i < groups.size(); ++i) {
      ASSERT_GT(groups[i].latest_stamp, t - 20);
      ASSERT_LE(groups[i].latest_stamp, t);
      ASSERT_LE(Distance(groups[i].rep, groups[i].latest), 1.0 + 1e-12);
      for (size_t j = i + 1; j < groups.size(); ++j) {
        ASSERT_GT(Distance(groups[i].rep, groups[j].rep), 1.0);
      }
    }
  }
}

TEST(SwInvariantsTest, RepIndexNeverAfterLatestIndex) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(3), 1, 50).value();
  Xoshiro256pp rng(4);
  for (int t = 0; t < 500; ++t) {
    const int g = static_cast<int>(rng.NextBounded(40));
    PreparedPoint prep;
    Point p{10.0 * g + 0.2 * (rng.NextDouble() - 0.5)};
    std::vector<uint64_t> adj;
    prep.stamp = t;
    prep.stream_index = static_cast<uint64_t>(t);
    sampler->context().Prepare(p, &adj, &prep);
    sampler->InsertPrepared(prep);

    std::vector<GroupRecord> groups;
    sampler->SnapshotGroups(&groups);
    for (const GroupRecord& g2 : groups) {
      ASSERT_LE(g2.rep_index, g2.latest_index);
    }
  }
}

TEST(SwInvariantsTest, HierarchyGroupsPartitionAcrossLevels) {
  // A group representative tracked as *accepted* must appear at exactly
  // one level (rejected bookkeeping entries may shadow it above).
  SamplerOptions opts = BaseOptions(5);
  opts.accept_cap = 8;
  auto sampler = RobustL0SamplerSW::Create(opts, 128).value();
  Xoshiro256pp rng(6);
  for (int t = 0; t < 1500; ++t) {
    const int g = static_cast<int>(rng.NextBounded(300));
    sampler.Insert(Point{10.0 * g + 0.2 * (rng.NextDouble() - 0.5)}, t);
    if (t % 100 != 99) continue;
    std::set<int> accepted_groups;
    for (size_t l = 0; l < sampler.num_levels(); ++l) {
      std::vector<GroupRecord> groups;
      sampler.level(l).SnapshotGroups(&groups);
      for (const GroupRecord& record : groups) {
        if (!record.accepted) continue;
        const int group = static_cast<int>(record.rep[0] / 10.0 + 0.5);
        ASSERT_TRUE(accepted_groups.insert(group).second)
            << "group " << group << " accepted at two levels, t=" << t;
      }
    }
  }
}

TEST(SwInvariantsTest, SplitRestoresCapAtThisLevel) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(7), 0, 1 << 20)
          .value();
  for (int i = 0; i < 100; ++i) sampler->Insert(Point{10.0 * i}, i);
  const size_t before = sampler->accept_size();
  std::vector<GroupRecord> promoted;
  ASSERT_TRUE(sampler->SplitPromote(&promoted));
  // Accounting: every previously accepted group is now kept, promoted as
  // accepted, or was demoted/dropped by the rate halving.
  size_t promoted_accepted = 0;
  for (const GroupRecord& g : promoted) promoted_accepted += g.accepted;
  EXPECT_LT(sampler->accept_size(), before);
  EXPECT_GT(promoted_accepted, 0u);
  EXPECT_LE(sampler->accept_size() + promoted_accepted, before);
  // The kept suffix is all unsampled at the next level (that is what
  // makes the split threshold effective).
  std::vector<GroupRecord> kept;
  sampler->SnapshotGroups(&kept);
  for (const GroupRecord& g : kept) {
    if (g.accepted) {
      EXPECT_FALSE(sampler->context().hasher.SampledAtLevel(g.rep_cell, 1));
    }
  }
}

TEST(SwInvariantsTest, ExpireIsIdempotent) {
  auto sampler =
      SwFixedRateSampler::CreateStandalone(BaseOptions(9), 0, 10).value();
  for (int t = 0; t < 30; ++t) sampler->Insert(Point{10.0 * t}, t);
  sampler->Expire(35);
  const size_t after_first = sampler->group_count();
  sampler->Expire(35);
  EXPECT_EQ(sampler->group_count(), after_first);
  sampler->Expire(30);  // earlier horizon: no effect either
  EXPECT_EQ(sampler->group_count(), after_first);
}

// The hierarchy's level mask must equal the one recomputed from the level
// tables (bit ℓ of key k ⇔ level ℓ has a live group whose representative
// lies in cell k), with no stale entries.
void ExpectMaskMatchesTables(const RobustL0SamplerSW& s, int step) {
  std::map<uint64_t, uint64_t> expected;
  for (size_t l = 0; l < s.num_levels(); ++l) {
    const SwGroupTable& table = s.level(l).table();
    for (uint32_t slot = 0; slot < table.slot_count(); ++slot) {
      if (table.IsLive(slot)) {
        expected[table.rep_cell(slot)] |= uint64_t{1} << l;
      }
    }
  }
  ASSERT_EQ(s.level_masks().live(), expected.size()) << "step " << step;
  for (const auto& entry : expected) {
    ASSERT_EQ(s.level_masks().Find(entry.first), entry.second)
        << "step " << step << " key " << entry.first;
  }
}

// The running space meter must equal a from-scratch recount of every
// level (the walk the meter replaced: every live group plus its
// reservoir).
void ExpectSpaceMatchesRecount(const RobustL0SamplerSW& s, int step) {
  const size_t dim = s.options().dim;
  size_t total = 8;
  for (size_t l = 0; l < s.num_levels(); ++l) {
    const SwGroupTable& table = s.level(l).table();
    size_t words = table.live() * GroupArenaWords(dim) + 4;
    for (uint32_t slot = 0; slot < table.slot_count(); ++slot) {
      if (table.IsLive(slot) && s.options().random_representative) {
        words += table.reservoir(slot).SpaceWords(dim);
      }
    }
    ASSERT_EQ(s.level(l).SpaceWords(), words) << "step " << step << " l=" << l;
    total += words;
  }
  ASSERT_EQ(s.SpaceWords(), total) << "step " << step;
}

// A seeded run through every operation that creates or erases a cell
// chain at some level: new representatives, expiry (also across a gap
// wider than the window, which compacts the tables), pruning resets,
// split cascades, query-time expiry, and a snapshot restore that
// rebuilds every level through adoption.
TEST(SwInvariantsTest, LevelMaskAndSpaceMeterMatchRecountAfterEveryStep) {
  for (bool reservoir : {false, true}) {
    SamplerOptions opts = BaseOptions(11);
    opts.dim = 2;
    opts.accept_cap = 80;
    opts.random_representative = reservoir;
    // A short time window over many ties: the top level (rate 1/8) is
    // never pruned, so its table grows past the compaction threshold.
    const int64_t window = 8;
    auto sampler = std::make_unique<RobustL0SamplerSW>(
        RobustL0SamplerSW::Create(opts, window).value());
    Xoshiro256pp rng(12);
    int64_t t = 0;
    size_t peak_slots = 0;
    size_t upper_groups = 0;
    for (int step = 0; step < 6000; ++step) {
      const int g = static_cast<int>(rng.NextBounded(1500));
      const Point p{10.0 * (g % 40) + 0.4 * (rng.NextDouble() - 0.5),
                    10.0 * (g / 40) + 0.4 * (rng.NextDouble() - 0.5)};
      if (rng.NextBounded(40) == 0) t += 1;
      if (rng.NextBounded(1500) == 0) t += 2 * window;
      sampler->Insert(p, t);
      if (rng.NextBounded(50) == 0) {
        Xoshiro256pp query(static_cast<uint64_t>(step));
        sampler->Sample(t, &query);
      }
      if (rng.NextBounded(400) == 0) {
        std::string blob;
        ASSERT_TRUE(SnapshotSamplerSW(*sampler, &blob).ok());
        sampler = std::make_unique<RobustL0SamplerSW>(
            RestoreSamplerSW(blob).value());
      }
      ExpectMaskMatchesTables(*sampler, step);
      ExpectSpaceMatchesRecount(*sampler, step);
      if (HasFatalFailure()) return;
      for (size_t l = 0; l < sampler->num_levels(); ++l) {
        peak_slots = std::max(peak_slots, sampler->level(l).table().slot_count());
        if (l >= 2) upper_groups += sampler->level(l).group_count();
      }
    }
    EXPECT_GE(peak_slots, 64u) << peak_slots;  // a gap can trigger compaction
    EXPECT_GT(upper_groups, 0u);  // the cascades did reach upper levels
  }
}

// The mask against a std::map reference under random Set/Reset traffic
// over a small key space (long probe runs, wrap-around, growth and
// backward-shift deletion), with levels up to 60 — no 32-bit boundary.
TEST(SwInvariantsTest, CellLevelMaskMatchesReferenceMap) {
  CellLevelMask mask;
  std::map<uint64_t, uint64_t> reference;
  Xoshiro256pp rng(13);
  for (int step = 0; step < 200000; ++step) {
    const uint64_t key = rng.NextBounded(3000) * 0x10001;
    const uint32_t level = static_cast<uint32_t>(rng.NextBounded(61));
    if (rng.NextBounded(2) == 0) {
      mask.Set(key, level);
      reference[key] |= uint64_t{1} << level;
    } else {
      mask.Reset(key, level);
      auto it = reference.find(key);
      if (it != reference.end()) {
        it->second &= ~(uint64_t{1} << level);
        if (it->second == 0) reference.erase(it);
      }
    }
    if (step % 997 == 0) {
      ASSERT_EQ(mask.live(), reference.size());
      for (uint64_t k = 0; k < 3000; ++k) {
        const auto it = reference.find(k * 0x10001);
        ASSERT_EQ(mask.Find(k * 0x10001),
                  it == reference.end() ? 0 : it->second);
      }
    }
  }
}

// Slot ids in slot order (the iteration Sample / snapshots / the split
// planner use).
std::vector<uint64_t> IdsBySlot(const SwGroupTable& table) {
  std::vector<uint64_t> ids;
  for (uint32_t slot = 0; slot < table.slot_count(); ++slot) {
    ids.push_back(table.IsLive(slot) ? table.id(slot) : ~uint64_t{0});
  }
  return ids;
}

// A Clear on an already-cleared table (also one compacted since) is a
// no-op: two tables driven in lockstep, one of which repeats every Clear,
// allocate the same slots and iterate in the same order throughout.
TEST(SwInvariantsTest, ClearOnClearedTableChangesNothing) {
  PointStore store_a(1), store_b(1);
  CellLevelMask masks_a, masks_b;
  SwGroupTable a, b;
  a.Bind(&store_a, &masks_a, 3);
  b.Bind(&store_b, &masks_b, 3);
  Xoshiro256pp rng(14);
  uint64_t id = 0;
  int64_t stamp = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(100);
    if (op < 70) {
      const Point p{static_cast<double>(rng.NextBounded(50))};
      const uint64_t cell = rng.NextBounded(40);
      const bool accepted = rng.NextBounded(2) == 0;
      ++stamp;
      ASSERT_EQ(a.Add(id, p, id, cell, accepted, stamp),
                b.Add(id, p, id, cell, accepted, stamp));
      ++id;
    } else if (op < 85) {
      if (a.live() > 0) {
        const uint32_t slot = a.OldestSlot();
        a.Remove(slot);
        b.Remove(slot);
      }
    } else if (op < 95) {
      a.Clear();
      b.Clear();
      b.Clear();
      if (rng.NextBounded(3) == 0) {
        a.MaybeCompact();
        b.MaybeCompact();
        b.Clear();
      }
    } else {
      a.MaybeCompact();
      b.MaybeCompact();
    }
    ASSERT_EQ(a.live(), b.live());
    ASSERT_EQ(IdsBySlot(a), IdsBySlot(b)) << "step " << step;
    ASSERT_EQ(masks_a.live(), masks_b.live());
  }
}

}  // namespace
}  // namespace rl0
