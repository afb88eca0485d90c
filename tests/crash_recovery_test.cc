// Crash-recovery differential (core/checkpoint.h): kill the journal at
// random byte offsets — including mid-record torn tails — across random
// chunkings and lane counts, and pin the recovered pool against a
// reference that processed the same surviving prefix without a crash.
//
// Byte-level equality (per-shard snapshot bytes + lockstep query draws)
// is pinned against a reference sharing the restore point: restored
// tables are packed dense while a never-restored pool's freed slots
// recycle in LIFO order, so the references below re-feed the suffix on
// top of the same restored checkpoint. The empty-checkpoint sub-case has
// no such layout skew, so there the reference is a genuinely
// uninterrupted pool and equality is absolute.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "rl0/core/checkpoint.h"
#include "rl0/core/snapshot.h"
#include "rl0/serve/checkpointer.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

SamplerOptions PoolOptions(uint64_t seed) {
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = seed;
  opts.accept_cap = 8;
  opts.expected_stream_length = 1 << 14;
  return opts;
}

std::vector<Point> Revisits(size_t n, size_t groups, uint64_t seed) {
  std::vector<Point> points;
  points.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed));
  for (size_t i = 0; i < n; ++i) {
    const double g = static_cast<double>(rng.NextBounded(groups));
    Point p(1);
    p[0] = 10.0 * g + 0.3 * (rng.NextDouble() - 0.5);
    points.push_back(std::move(p));
  }
  return points;
}

std::vector<int64_t> MonotoneStamps(size_t n, uint64_t seed) {
  std::vector<int64_t> stamps;
  stamps.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed ^ 0x5354414DULL));
  int64_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += 1 + static_cast<int64_t>(rng.NextBounded(4));
    stamps.push_back(t);
  }
  return stamps;
}

std::vector<std::string> ShardBlobs(const ShardedSwSamplerPool& pool) {
  std::vector<std::string> blobs(pool.num_shards());
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    EXPECT_TRUE(SnapshotSamplerSW(pool.shard(s), &blobs[s]).ok());
  }
  return blobs;
}

void ExpectLockstepDraws(ShardedSwSamplerPool* a, ShardedSwSamplerPool* b) {
  Xoshiro256pp rng_a(SplitMix64(2718));
  Xoshiro256pp rng_b(SplitMix64(2718));
  for (int q = 0; q < 16; ++q) {
    const auto da = a->SampleLatest(&rng_a);
    const auto db = b->SampleLatest(&rng_b);
    ASSERT_EQ(da.has_value(), db.has_value()) << "draw " << q;
    if (da.has_value()) {
      EXPECT_EQ(da->stream_index, db->stream_index) << "draw " << q;
      EXPECT_EQ(da->point, db->point) << "draw " << q;
    }
  }
}

/// The surviving post-checkpoint suffix of a torn journal, concatenated
/// back into flat arrays for the reference re-feed.
struct SurvivingSuffix {
  std::vector<Point> points;
  std::vector<int64_t> stamps;  // empty in sequence mode
};

SurvivingSuffix SuffixOf(const std::string& torn_journal,
                         uint64_t checkpoint_seq) {
  SurvivingSuffix suffix;
  JournalContents contents;
  EXPECT_TRUE(ReadJournal(torn_journal, &contents).ok());
  for (const JournalRecord& rec : contents.records) {
    if (rec.seq < checkpoint_seq) continue;
    suffix.points.insert(suffix.points.end(), rec.points.begin(),
                         rec.points.end());
    suffix.stamps.insert(suffix.stamps.end(), rec.stamps.begin(),
                         rec.stamps.end());
  }
  return suffix;
}

/// Re-feeds `suffix` in randomized chunk sizes — different from the
/// journaled chunking, so the differential also pins replay's
/// chunking-invariance (the global-residue partition).
void RefeedRandomChunks(ShardedSwSamplerPool* pool,
                        const SurvivingSuffix& suffix, uint64_t chunk_seed) {
  Xoshiro256pp rng(SplitMix64(chunk_seed));
  size_t offset = 0;
  while (offset < suffix.points.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBounded(171),
                         suffix.points.size() - offset);
    if (suffix.stamps.empty()) {
      pool->Feed(Span<const Point>(suffix.points.data() + offset, chunk));
    } else {
      pool->FeedStamped(
          Span<const Point>(suffix.points.data() + offset, chunk),
          Span<const int64_t>(suffix.stamps.data() + offset, chunk));
    }
    offset += chunk;
  }
  pool->Drain();
}

/// One full crash scenario: feed with a journal tap, checkpoint partway
/// through, keep feeding, then tear the journal at random offsets and
/// compare RecoverPool's replay against a restore-plus-refeed reference.
void RunDifferential(size_t lanes, bool time_mode, uint64_t seed) {
  const std::vector<Point> points = Revisits(2200, 55, seed);
  const std::vector<int64_t> stamps =
      time_mode ? MonotoneStamps(points.size(), seed) : std::vector<int64_t>();
  const SamplerOptions opts = PoolOptions(seed * 3 + 1);
  const int64_t window = 347;

  auto pool = ShardedSwSamplerPool::Create(opts, window, lanes).value();
  std::string journal;
  JournalWriter writer(&journal, opts.dim);
  AttachJournal(&pool, &writer);

  Xoshiro256pp rng(SplitMix64(seed ^ 0xC4A54ULL));
  const size_t checkpoint_at = 700 + rng.NextBounded(400);
  std::string ckpt;
  uint64_t checkpoint_seq = 0;
  size_t checkpoint_bytes = 0;
  size_t offset = 0;
  while (offset < points.size()) {
    if (ckpt.empty() && offset >= checkpoint_at) {
      pool.Drain();
      checkpoint_seq = writer.next_seq();
      checkpoint_bytes = journal.size();
      ASSERT_TRUE(CheckpointPool(&pool, checkpoint_seq, &ckpt).ok());
    }
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBounded(131), points.size() - offset);
    if (time_mode) {
      pool.FeedStamped(Span<const Point>(points.data() + offset, chunk),
                       Span<const int64_t>(stamps.data() + offset, chunk));
    } else {
      pool.Feed(Span<const Point>(points.data() + offset, chunk));
    }
    offset += chunk;
  }
  pool.Drain();
  ASSERT_FALSE(ckpt.empty());
  ASSERT_GT(journal.size(), checkpoint_bytes);

  // Tear offsets: the exact checkpoint boundary, the intact end, and
  // random cuts in between (byte-level, so most land mid-record).
  std::vector<size_t> tears = {checkpoint_bytes, journal.size()};
  for (int t = 0; t < 5; ++t) {
    tears.push_back(checkpoint_bytes +
                    rng.NextBounded(journal.size() - checkpoint_bytes + 1));
  }
  for (const size_t tear : tears) {
    SCOPED_TRACE("tear at byte " + std::to_string(tear) + "/" +
                 std::to_string(journal.size()));
    const std::string torn = journal.substr(0, tear);

    auto recovered_r = RecoverPool(ckpt, torn);
    ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
    ShardedSwSamplerPool recovered = std::move(recovered_r).value();

    const SurvivingSuffix suffix = SuffixOf(torn, checkpoint_seq);
    auto reference_r = RecoverPool(ckpt, "");
    ASSERT_TRUE(reference_r.ok());
    ShardedSwSamplerPool reference = std::move(reference_r).value();
    RefeedRandomChunks(&reference, suffix, seed ^ tear);

    EXPECT_EQ(recovered.points_processed(), reference.points_processed());
    EXPECT_EQ(ShardBlobs(recovered), ShardBlobs(reference));
    ExpectLockstepDraws(&recovered, &reference);
  }
}

TEST(CrashRecoveryTest, SequenceModeDifferentialAcrossLanesAndTears) {
  for (const size_t lanes : {1, 2, 8}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    RunDifferential(lanes, /*time_mode=*/false, 9000 + lanes);
  }
}

TEST(CrashRecoveryTest, TimeModeDifferentialAcrossLanesAndTears) {
  for (const size_t lanes : {1, 2, 8}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    RunDifferential(lanes, /*time_mode=*/true, 9100 + lanes);
  }
}

TEST(CrashRecoveryTest, EmptyCheckpointEqualsTrulyUninterruptedRun) {
  // A checkpoint cut before any feeding restores perfectly packed
  // (empty) tables — no layout skew — so recovery must equal a pool that
  // never crashed at all, byte-for-byte, at every tear offset.
  for (const size_t lanes : {1, 2, 8}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    const std::vector<Point> points = Revisits(1400, 45, 70 + lanes);
    const SamplerOptions opts = PoolOptions(71 + lanes);
    const int64_t window = 401;

    auto pool = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    std::string journal;
    JournalWriter writer(&journal, opts.dim);
    AttachJournal(&pool, &writer);
    std::string ckpt;
    ASSERT_TRUE(CheckpointPool(&pool, writer.next_seq(), &ckpt).ok());

    Xoshiro256pp rng(SplitMix64(72 + lanes));
    size_t offset = 0;
    while (offset < points.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(149), points.size() - offset);
      pool.Feed(Span<const Point>(points.data() + offset, chunk));
      offset += chunk;
    }
    pool.Drain();

    for (int t = 0; t < 5; ++t) {
      const size_t tear = rng.NextBounded(journal.size() + 1);
      SCOPED_TRACE("tear at byte " + std::to_string(tear));
      const std::string torn = journal.substr(0, tear);
      auto recovered_r = RecoverPool(ckpt, torn);
      ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
      ShardedSwSamplerPool recovered = std::move(recovered_r).value();

      const SurvivingSuffix suffix = SuffixOf(torn, 0);
      auto uninterrupted =
          ShardedSwSamplerPool::Create(opts, window, lanes).value();
      if (!suffix.points.empty()) {
        uninterrupted.Feed(suffix.points);
      }
      uninterrupted.Drain();

      EXPECT_EQ(recovered.points_processed(), suffix.points.size());
      EXPECT_EQ(ShardBlobs(recovered), ShardBlobs(uninterrupted));
      ExpectLockstepDraws(&recovered, &uninterrupted);
    }
  }
}

/// Canonical (id-sorted) per-level record equality for pools whose slot
/// layouts legitimately differ (see the file comment).
void ExpectSameCanonicalState(const RobustL0SamplerSW& a,
                              const RobustL0SamplerSW& b) {
  ASSERT_EQ(a.num_levels(), b.num_levels());
  for (size_t l = 0; l < a.num_levels(); ++l) {
    SCOPED_TRACE("level " + std::to_string(l));
    std::vector<GroupRecord> ga, gb;
    a.level(l).SnapshotGroups(&ga);
    b.level(l).SnapshotGroups(&gb);
    const auto by_id = [](const GroupRecord& x, const GroupRecord& y) {
      return x.id < y.id;
    };
    std::sort(ga.begin(), ga.end(), by_id);
    std::sort(gb.begin(), gb.end(), by_id);
    ASSERT_EQ(ga.size(), gb.size());
    for (size_t i = 0; i < ga.size(); ++i) {
      ASSERT_EQ(ga[i].id, gb[i].id);
      EXPECT_EQ(ga[i].rep_index, gb[i].rep_index);
      EXPECT_EQ(ga[i].accepted, gb[i].accepted);
      EXPECT_EQ(ga[i].latest_stamp, gb[i].latest_stamp);
      EXPECT_EQ(ga[i].latest_index, gb[i].latest_index);
      EXPECT_EQ(ga[i].rep, gb[i].rep);
      EXPECT_EQ(ga[i].latest, gb[i].latest);
      ASSERT_EQ(ga[i].reservoir.size(), gb[i].reservoir.size());
      for (size_t r = 0; r < ga[i].reservoir.size(); ++r) {
        EXPECT_EQ(ga[i].reservoir[r].priority, gb[i].reservoir[r].priority);
        EXPECT_EQ(ga[i].reservoir[r].stream_index,
                  gb[i].reservoir[r].stream_index);
        EXPECT_EQ(ga[i].reservoir[r].point, gb[i].reservoir[r].point);
      }
    }
  }
}

TEST(CrashRecoveryTest, LateFeedJournalReplaysWatermarkRecords) {
  // Bounded-lateness runs journal the *released* chunks plus the
  // watermark broadcasts. Recovery from a mid-run checkpoint + the full
  // journal must land in the same state as restoring an end-of-run
  // checkpoint — watermark records and all. (Canonical comparison: the
  // two sides' slot layouts differ per the LIFO caveat.)
  for (const size_t lanes : {1, 2}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    SamplerOptions opts = PoolOptions(81 + lanes);
    opts.allowed_lateness = 12;
    const int64_t window = 211;
    const std::vector<Point> points = Revisits(1600, 40, 82 + lanes);
    std::vector<int64_t> stamps = MonotoneStamps(points.size(), 83 + lanes);
    // Bounded disorder: swap adjacent stamped pairs (gap ≤ 8 < lateness).
    for (size_t i = 0; i + 1 < stamps.size(); i += 2) {
      std::swap(stamps[i], stamps[i + 1]);
    }

    auto pool = ShardedSwSamplerPool::Create(opts, window, lanes).value();
    std::string journal;
    JournalWriter writer(&journal, opts.dim);
    AttachJournal(&pool, &writer);

    Xoshiro256pp rng(SplitMix64(84 + lanes));
    std::string mid_ckpt;
    uint64_t mid_seq = 0;
    size_t offset = 0;
    while (offset < points.size()) {
      if (mid_ckpt.empty() && offset >= 600) {
        pool.Drain();
        mid_seq = writer.next_seq();
        ASSERT_TRUE(CheckpointPool(&pool, mid_seq, &mid_ckpt).ok());
      }
      const size_t chunk =
          std::min<size_t>(2 + 2 * rng.NextBounded(60),
                           points.size() - offset);
      pool.FeedStampedLate(
          Span<const Point>(points.data() + offset, chunk),
          Span<const int64_t>(stamps.data() + offset, chunk));
      offset += chunk;
    }
    pool.FlushLate();
    pool.Drain();
    EXPECT_EQ(pool.late_stats().late_dropped, 0u);
    std::string end_ckpt;
    ASSERT_TRUE(CheckpointPool(&pool, writer.next_seq(), &end_ckpt).ok());

    auto replayed_r = RecoverPool(mid_ckpt, journal);
    ASSERT_TRUE(replayed_r.ok()) << replayed_r.status().ToString();
    ShardedSwSamplerPool replayed = std::move(replayed_r).value();
    auto restored_r = RecoverPool(end_ckpt, "");
    ASSERT_TRUE(restored_r.ok());
    ShardedSwSamplerPool restored = std::move(restored_r).value();

    EXPECT_EQ(replayed.points_processed(), restored.points_processed());
    for (size_t s = 0; s < lanes; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      EXPECT_EQ(replayed.shard(s).watermark(), restored.shard(s).watermark());
      ExpectSameCanonicalState(replayed.shard(s), restored.shard(s));
    }

    // Torn late-mode journals must still recover cleanly (watermark
    // records can be the torn record) — equal to recovering the valid
    // prefix explicitly.
    for (int t = 0; t < 4; ++t) {
      const size_t tear = rng.NextBounded(journal.size() + 1);
      SCOPED_TRACE("tear at byte " + std::to_string(tear));
      const std::string torn = journal.substr(0, tear);
      auto a = RecoverPool(mid_ckpt, torn);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      JournalContents contents;
      ASSERT_TRUE(ReadJournal(torn, &contents).ok());
      auto b = RecoverPool(mid_ckpt, torn.substr(0, contents.valid_bytes));
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(ShardBlobs(a.value()), ShardBlobs(b.value()));
    }
  }
}

TEST(CrashRecoveryTest, CheckpointFilesAreAtomicAndTempDebrisIsIgnored) {
  // serve::PoolCheckpointer writes every file as <name>.tmp and renames
  // it into place: a completed run leaves no temp file, and a process
  // killed mid-write leaves only a truncated temp file that
  // LoadCheckpointChain never reads — recovery is unchanged by it. A
  // full cut also removes the deltas of the chain it replaces.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("rl0_atomic_ckpt_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  const std::vector<Point> points = Revisits(3000, 40, 61);
  size_t cuts = 0;
  {
    auto pool = ShardedSwSamplerPool::Create(PoolOptions(7), 400, 2).value();
    serve::PoolCheckpointer ckpt(&pool, dir.string(), /*every=*/512,
                                 /*dim=*/1);
    const Span<const Point> all(points);
    for (size_t offset = 0; offset < all.size(); offset += 300) {
      pool.Feed(all.subspan(offset, 300));
      ASSERT_TRUE(ckpt.MaybeCut().ok());
    }
    pool.Drain();
    ASSERT_TRUE(ckpt.Finish().ok());
    cuts = ckpt.cuts();
  }
  ASSERT_GE(cuts, 4u);
  size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, cuts + 1);  // the chain plus journal.log

  const auto recover = [&dir] {
    auto chain = serve::LoadCheckpointChain(dir.string());
    EXPECT_TRUE(chain.ok()) << chain.status().ToString();
    auto pool = RecoverPool(chain.value().checkpoint, chain.value().journal);
    EXPECT_TRUE(pool.ok()) << pool.status().ToString();
    return std::move(pool).value();
  };
  ShardedSwSamplerPool clean = recover();
  EXPECT_EQ(clean.points_processed(), points.size());

  // Crash debris of the next cut: a torn delta and a torn journal, both
  // still under their temp names.
  const std::string torn_delta =
      serve::CheckpointFileName(dir.string(), cuts, /*full=*/false) + ".tmp";
  {
    auto chain = serve::LoadCheckpointChain(dir.string());
    ASSERT_TRUE(chain.ok());
    std::ofstream(torn_delta, std::ios::binary)
        << chain.value().checkpoint.substr(0, 37);
    std::ofstream((dir / "journal.log.tmp").string(), std::ios::binary)
        << chain.value().journal.substr(0, 11);
  }
  ShardedSwSamplerPool with_debris = recover();
  EXPECT_EQ(ShardBlobs(with_debris), ShardBlobs(clean));
  ExpectLockstepDraws(&with_debris, &clean);

  // A shorter run reusing the directory: its full cut must retire the
  // longer chain's deltas, or recovery would try to fold them onto the
  // new base.
  {
    auto pool = ShardedSwSamplerPool::Create(PoolOptions(8), 400, 2).value();
    serve::PoolCheckpointer ckpt(&pool, dir.string(), /*every=*/512,
                                 /*dim=*/1);
    pool.Feed(Span<const Point>(points.data(), 700));
    ASSERT_TRUE(ckpt.MaybeCut().ok());
    pool.Drain();
    ASSERT_TRUE(ckpt.Finish().ok());
    ASSERT_LT(ckpt.cuts(), cuts);
    ShardedSwSamplerPool rerun = recover();
    EXPECT_EQ(ShardBlobs(rerun), ShardBlobs(pool));
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rl0
