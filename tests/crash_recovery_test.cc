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
#include "rl0/serve/registry.h"
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

TEST(CrashRecoveryTest, RecoveredLatePoolKeepsItsLatenessBound) {
  // Shard snapshots do not carry the lateness bound; the pool header
  // does. A recovered late pool must keep reordering within-bound
  // disorder exactly like its uninterrupted twin instead of dropping it.
  SamplerOptions opts = PoolOptions(91);
  opts.allowed_lateness = 12;
  const std::vector<Point> points = Revisits(150, 20, 92);
  std::vector<int64_t> stamps = MonotoneStamps(points.size(), 93);
  // Bounded disorder: swap adjacent stamped pairs (gap ≤ 8 < lateness).
  for (size_t i = 0; i + 1 < stamps.size(); i += 2) {
    std::swap(stamps[i], stamps[i + 1]);
  }
  const auto feed = [&](ShardedSwSamplerPool* pool, size_t begin,
                        size_t end) {
    pool->FeedStampedLate(
        Span<const Point>(points.data() + begin, end - begin),
        Span<const int64_t>(stamps.data() + begin, end - begin));
    pool->FlushLate();
    pool->Drain();
  };

  auto twin = ShardedSwSamplerPool::Create(opts, 211, 2).value();
  feed(&twin, 0, 100);
  std::string ckpt;
  ASSERT_TRUE(CheckpointPool(&twin, 0, &ckpt).ok());
  auto recovered_r = RecoverPool(ckpt, "");
  ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
  ShardedSwSamplerPool recovered = std::move(recovered_r).value();

  feed(&twin, 100, points.size());
  feed(&recovered, 100, points.size());
  EXPECT_EQ(twin.late_stats().late_dropped, 0u);
  EXPECT_EQ(recovered.late_stats().late_dropped, 0u);
  EXPECT_EQ(recovered.points_processed(), twin.points_processed());
  ExpectLockstepDraws(&recovered, &twin);
}

TEST(CrashRecoveryTest, CheckpointFilesAreAtomicAndTempDebrisIsIgnored) {
  // serve::PoolCheckpointer writes every file as <name>.tmp and renames
  // it into place: a completed run leaves no temp file, and a process
  // killed mid-write leaves only a truncated temp file that
  // LoadCheckpointChain never reads — recovery is unchanged by it. Every
  // cut rewrites the one full checkpoint, and removes the delta files an
  // older build's chain left behind.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("rl0_atomic_ckpt_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  const std::vector<Point> points = Revisits(3000, 40, 61);
  size_t cuts = 0;
  {
    auto pool = ShardedSwSamplerPool::Create(PoolOptions(7), 400, 2).value();
    auto ckpt = serve::PoolCheckpointer::Open(&pool, dir.string(),
                                              /*every=*/512, /*dim=*/1,
                                              /*recovered=*/nullptr)
                    .value();
    const Span<const Point> all(points);
    for (size_t offset = 0; offset < all.size(); offset += 300) {
      pool.Feed(all.subspan(offset, 300));
      ASSERT_TRUE(ckpt->MaybeCut().ok());
    }
    pool.Drain();
    ASSERT_TRUE(ckpt->Finish().ok());
    cuts = ckpt->cuts();
  }
  ASSERT_GE(cuts, 4u);
  size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 2u);  // ckpt-000000.full plus journal.log

  const auto recover = [&dir] {
    auto chain = serve::LoadCheckpointChain(dir.string());
    EXPECT_TRUE(chain.ok()) << chain.status().ToString();
    auto pool = RecoverPool(chain.value().checkpoint, chain.value().journal);
    EXPECT_TRUE(pool.ok()) << pool.status().ToString();
    return std::move(pool).value();
  };
  ShardedSwSamplerPool clean = recover();
  EXPECT_EQ(clean.points_processed(), points.size());

  // Crash debris of the next cut: a torn checkpoint and a torn journal,
  // both still under their temp names.
  const std::string torn_checkpoint =
      serve::CheckpointFileName(dir.string(), 0, /*full=*/true) + ".tmp";
  {
    auto chain = serve::LoadCheckpointChain(dir.string());
    ASSERT_TRUE(chain.ok());
    std::ofstream(torn_checkpoint, std::ios::binary)
        << chain.value().checkpoint.substr(0, 37);
    std::ofstream((dir / "journal.log.tmp").string(), std::ios::binary)
        << chain.value().journal.substr(0, 11);
  }
  ShardedSwSamplerPool with_debris = recover();
  EXPECT_EQ(ShardBlobs(with_debris), ShardBlobs(clean));
  ExpectLockstepDraws(&with_debris, &clean);

  // A shorter run reusing the directory, which also holds a delta file
  // of an older build's chain: its open cut replaces the checkpoint and
  // removes the delta.
  const std::string stale_delta =
      serve::CheckpointFileName(dir.string(), 1, /*full=*/false);
  std::ofstream(stale_delta, std::ios::binary) << "stale";
  {
    auto pool = ShardedSwSamplerPool::Create(PoolOptions(8), 400, 2).value();
    auto ckpt = serve::PoolCheckpointer::Open(&pool, dir.string(),
                                              /*every=*/512, /*dim=*/1,
                                              /*recovered=*/nullptr)
                    .value();
    pool.Feed(Span<const Point>(points.data(), 700));
    ASSERT_TRUE(ckpt->MaybeCut().ok());
    pool.Drain();
    ASSERT_TRUE(ckpt->Finish().ok());
    ASSERT_LT(ckpt->cuts(), cuts);
    EXPECT_FALSE(fs::exists(stale_delta));
    ShardedSwSamplerPool rerun = recover();
    EXPECT_EQ(ShardBlobs(rerun), ShardBlobs(pool));
  }
  fs::remove_all(dir);
}

TEST(CrashRecoveryTest, WriteFileBytesFailsOnWriteErrorsAndKeepsNoFile) {
  // A temp file that cannot be written in full must never be renamed
  // into place: /dev/full accepts open() and fails every write with
  // ENOSPC, the way a full disk fails a buffered write late.
  namespace fs = std::filesystem;
  ASSERT_TRUE(fs::exists("/dev/full"));
  const fs::path dir =
      fs::temp_directory_path() /
      ("rl0_write_error_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string name = (dir / "ckpt-000000.full").string();
  fs::create_symlink("/dev/full", name + ".tmp");
  EXPECT_FALSE(serve::WriteFileBytes(name, std::string(100, 'x')));
  EXPECT_FALSE(fs::exists(fs::symlink_status(name)));
  fs::remove_all(dir);
}

enum class FeedMode { kSequence, kTime, kLate };

/// A dim-1 stream for `mode`: revisited groups, plus stamps — monotone
/// in time mode, disordered within lateness 12 in late mode.
struct ModeStream {
  SamplerOptions opts;
  std::vector<Point> points;
  std::vector<int64_t> stamps;  // empty in sequence mode
};

ModeStream MakeModeStream(FeedMode mode, size_t n, uint64_t seed) {
  ModeStream stream;
  stream.opts = PoolOptions(seed);
  stream.points = Revisits(n, 40, seed + 1);
  if (mode != FeedMode::kSequence) {
    stream.stamps = MonotoneStamps(n, seed + 2);
  }
  if (mode == FeedMode::kLate) {
    stream.opts.allowed_lateness = 12;
    // Bounded disorder: swap adjacent stamped pairs (gap ≤ 8 < lateness).
    for (size_t i = 0; i + 1 < n; i += 2) {
      std::swap(stream.stamps[i], stream.stamps[i + 1]);
    }
  }
  return stream;
}

void FeedModeChunk(ShardedSwSamplerPool* pool, FeedMode mode,
                   const ModeStream& stream, size_t offset, size_t len) {
  const Span<const Point> points(stream.points.data() + offset, len);
  if (mode == FeedMode::kSequence) {
    pool->Feed(points);
    return;
  }
  const Span<const int64_t> stamps(stream.stamps.data() + offset, len);
  if (mode == FeedMode::kTime) {
    pool->FeedStamped(points, stamps);
  } else {
    pool->FeedStampedLate(points, stamps);
  }
}

std::string ReadJournalFile(const std::filesystem::path& dir) {
  auto bytes = serve::ReadFileBytes((dir / "journal.log").string());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::string();
}

TEST(CrashRecoveryTest, AckedFeedsSinceLastCutRecoverFromDisk) {
  // Every chunk fed before a MaybeCut() that returned OK is in
  // journal.log, so recovering the live directory — as after a kill -9
  // right there — equals a pool that never went down, even past the last
  // cut. The file also equals, byte for byte, a reference JournalWriter
  // tapping a twin pool fed the same chunks.
  namespace fs = std::filesystem;
  for (const FeedMode mode :
       {FeedMode::kSequence, FeedMode::kTime, FeedMode::kLate}) {
    const int m = static_cast<int>(mode);
    SCOPED_TRACE("mode " + std::to_string(m));
    const fs::path dir = fs::temp_directory_path() /
                         ("rl0_acked_feeds_" +
                          std::to_string(static_cast<long>(::getpid())) +
                          "_" + std::to_string(m));
    fs::remove_all(dir);
    const ModeStream stream = MakeModeStream(mode, 1500, 90 + 10 * m);
    // Wider than the stream: no slot is ever freed, so the dense tables
    // a restore builds match the live ones byte for byte (file comment).
    const int64_t window = int64_t{1} << 20;
    const size_t lanes = 2;

    auto pool =
        ShardedSwSamplerPool::Create(stream.opts, window, lanes).value();
    auto twin =
        ShardedSwSamplerPool::Create(stream.opts, window, lanes).value();
    std::string reference;
    JournalWriter reference_writer(&reference, stream.opts.dim);
    AttachJournal(&twin, &reference_writer);
    auto ckpt = serve::PoolCheckpointer::Open(&pool, dir.string(),
                                              /*every=*/512, stream.opts.dim,
                                              /*recovered=*/nullptr)
                    .value();
    EXPECT_TRUE(ReadJournalFile(dir) == reference);  // the header
    for (size_t offset = 0; offset < stream.points.size(); offset += 100) {
      const size_t len = std::min<size_t>(100, stream.points.size() - offset);
      FeedModeChunk(&pool, mode, stream, offset, len);
      FeedModeChunk(&twin, mode, stream, offset, len);
      ASSERT_TRUE(ckpt->MaybeCut().ok());
      EXPECT_EQ(ckpt->journal_bytes(), reference.size());
      EXPECT_TRUE(ReadJournalFile(dir) == reference) << "offset " << offset;
    }
    ASSERT_EQ(ckpt->cuts(), 3u);  // at open, 512 and 1024 fed points
    ASSERT_GT(pool.points_fed(), 1024u);
    twin.Drain();

    auto chain = serve::LoadCheckpointChain(dir.string());
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    auto recovered_r =
        RecoverPool(chain.value().checkpoint, chain.value().journal);
    ASSERT_TRUE(recovered_r.ok()) << recovered_r.status().ToString();
    ShardedSwSamplerPool recovered = std::move(recovered_r).value();
    EXPECT_EQ(recovered.points_processed(), twin.points_processed());
    EXPECT_TRUE(ShardBlobs(recovered) == ShardBlobs(twin));
    ExpectLockstepDraws(&recovered, &twin);
    fs::remove_all(dir);
  }
}

TEST(CrashRecoveryTest, RecoveredCheckpointerAppendsAfterTornJournal) {
  // A crash mid-append leaves a torn record at the end of journal.log.
  // The recovered checkpointer's open cut rewrites the file as the valid
  // prefix, and its later appends follow that prefix, so a second
  // recovery replays every record fed after the first one.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("rl0_torn_append_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(dir);
  const std::vector<Point> points = Revisits(2000, 40, 101);
  const SamplerOptions opts = PoolOptions(102);
  const Span<const Point> all(points);
  {
    auto pool = ShardedSwSamplerPool::Create(opts, 400, 2).value();
    auto ckpt = serve::PoolCheckpointer::Open(&pool, dir.string(),
                                              /*every=*/512, opts.dim,
                                              /*recovered=*/nullptr)
                    .value();
    for (size_t offset = 0; offset < 1300; offset += 100) {
      pool.Feed(all.subspan(offset, 100));
      ASSERT_TRUE(ckpt->MaybeCut().ok());
    }
    pool.Drain();
  }
  const fs::path log = dir / "journal.log";
  fs::resize_file(log, fs::file_size(log) - 7);  // tear the last record

  auto chain = serve::LoadCheckpointChain(dir.string());
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  const std::string valid_prefix = chain.value().journal;
  const uint64_t valid_records = chain.value().journal_records;
  ASSERT_EQ(valid_records, 12u);  // 13 chunks fed, the last one torn
  auto live_r = RecoverPool(chain.value().checkpoint, valid_prefix);
  ASSERT_TRUE(live_r.ok()) << live_r.status().ToString();
  ShardedSwSamplerPool live = std::move(live_r).value();
  {
    auto ckpt = serve::PoolCheckpointer::Open(&live, dir.string(),
                                              /*every=*/512, opts.dim,
                                              &chain.value())
                    .value();
    EXPECT_TRUE(ReadJournalFile(dir) == valid_prefix);
    for (size_t offset = 1300; offset < 2000; offset += 100) {
      live.Feed(all.subspan(offset, 100));
      ASSERT_TRUE(ckpt->MaybeCut().ok());
    }
    live.Drain();

    const std::string journal = ReadJournalFile(dir);
    EXPECT_EQ(journal.compare(0, valid_prefix.size(), valid_prefix), 0);
    JournalContents contents;
    ASSERT_TRUE(ReadJournal(journal, &contents).ok());
    EXPECT_EQ(contents.valid_bytes, journal.size());
    EXPECT_EQ(contents.records.size(), valid_records + 7);
  }

  auto again = serve::LoadCheckpointChain(dir.string());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto second_r = RecoverPool(again.value().checkpoint, again.value().journal);
  ASSERT_TRUE(second_r.ok()) << second_r.status().ToString();
  ShardedSwSamplerPool second = std::move(second_r).value();
  EXPECT_EQ(second.points_processed(), live.points_processed());
  for (size_t s = 0; s < live.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    ExpectSameCanonicalState(second.shard(s), live.shard(s));
  }
  ExpectLockstepDraws(&second, &live);
  fs::remove_all(dir);
}

/// A registry whose ckpt=1 tenants live under `root`.
serve::TenantRegistry::Options RegistryOptions(
    const std::filesystem::path& root) {
  serve::TenantRegistry::Options options;
  options.fleet_threads = 2;
  options.checkpoint_root = root.string();
  return options;
}

serve::CreateParams CheckpointedTenant(uint64_t every) {
  serve::CreateParams params;
  params.dim = 1;
  params.alpha = 1.0;
  params.window = 400;
  params.shards = 2;
  params.seed = 17;
  params.expected_m = 1 << 14;
  params.checkpoint = true;
  params.checkpoint_every = every;
  return params;
}

/// Feeds `points` to tenant `name` in acked 500-point FEEDs.
void FeedTenant(serve::TenantRegistry* registry, const std::string& name,
                const std::vector<Point>& points) {
  for (size_t offset = 0; offset < points.size(); offset += 500) {
    const size_t end = std::min(points.size(), offset + 500);
    ASSERT_TRUE(registry
                    ->Feed(name, std::vector<Point>(points.begin() + offset,
                                                    points.begin() + end))
                    .ok());
  }
}

/// Recovers tenant `name` from what is on disk under `live_root` right
/// now — what a kill -9 of the live server would leave — into a second
/// registry, and checks it against the live tenant: same fed count,
/// same sample lines.
void ExpectDiskRecoversLiveTenant(serve::TenantRegistry* live,
                                  const std::filesystem::path& live_root,
                                  const std::string& name,
                                  serve::CreateParams params) {
  namespace fs = std::filesystem;
  const fs::path root = live_root.string() + "_killed";
  fs::remove_all(root);
  fs::create_directories(root);
  fs::copy(live_root / name, root / name, fs::copy_options::recursive);
  serve::TenantRegistry recovered(RegistryOptions(root));
  params.recover = true;
  const Status created = recovered.Create(name, params);
  ASSERT_TRUE(created.ok()) << created.ToString();
  const auto stats = recovered.StatsLines(name).value();
  const auto live_stats = live->StatsLines(name).value();
  const auto points_of = [](const std::string& line) {
    const size_t begin = line.find(" points=");
    return line.substr(begin, line.find(' ', begin + 1) - begin);
  };
  EXPECT_EQ(points_of(stats[0]), points_of(live_stats[0]));
  EXPECT_EQ(recovered.Sample(name, 8, false, 0).value(),
            live->Sample(name, 8, false, 0).value());
  fs::remove_all(root);
}

TEST(CrashRecoveryTest, CheckpointedTenantRecoversBeforeItsFirstCadenceCut) {
  // CREATE cuts the chain as it opens the directory, so acked feeds are
  // on disk before the first `every` boundary: a tenant killed at 3000
  // of every=4096 points recovers all 3000.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("rl0_open_cut_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(root);
  {
    serve::TenantRegistry registry(RegistryOptions(root));
    const serve::CreateParams params = CheckpointedTenant(/*every=*/4096);
    ASSERT_TRUE(registry.Create("x", params).ok());
    FeedTenant(&registry, "x", Revisits(3000, 40, 201));
    ExpectDiskRecoversLiveTenant(&registry, root, "x", params);
  }
  fs::remove_all(root);
}

TEST(CrashRecoveryTest, FreshCreateRetiresThePreviousOccupantsChain) {
  // A CLOSEd tenant leaves its chain behind. Re-creating the name
  // without recover=1 must start a new chain at once: a kill -9 after a
  // few acked feeds of a different stream recovers those feeds, never
  // the closed tenant's stream.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("rl0_reoccupy_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(root);
  {
    serve::TenantRegistry registry(RegistryOptions(root));
    const serve::CreateParams params = CheckpointedTenant(/*every=*/0);
    ASSERT_TRUE(registry.Create("x", params).ok());
    FeedTenant(&registry, "x", Revisits(2000, 40, 202));
    ASSERT_TRUE(registry.Close("x").ok());
    ASSERT_TRUE(registry.Create("x", params).ok());
    FeedTenant(&registry, "x", Revisits(300, 25, 203));
    ExpectDiskRecoversLiveTenant(&registry, root, "x", params);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace rl0
