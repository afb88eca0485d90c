// Fuzz-style robustness tests: malformed external inputs (CSV text,
// snapshot blobs) must produce clean Status errors — never crashes or
// silent corruption — and extreme numeric inputs must not break the
// samplers' invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "rl0/baseline/legacy_sw_sampler.h"
#include "rl0/core/checkpoint.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/core/snapshot.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/serve/protocol.h"
#include "rl0/stream/csv.h"
#include "rl0/util/rng.h"

namespace rl0 {
namespace {

std::string RandomBytes(size_t n, Xoshiro256pp* rng) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>((*rng)() & 0xFF);
  return out;
}

TEST(FuzzTest, CsvParserNeverCrashesOnRandomBytes) {
  Xoshiro256pp rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string garbage = RandomBytes(rng.NextBounded(200), &rng);
    std::istringstream in(garbage);
    const auto result = ParseCsvPoints(in);
    // Either parses (random bytes can form numbers) or errors — both fine.
    if (result.ok()) {
      for (const Point& p : result.value()) EXPECT_GE(p.dim(), 1u);
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(FuzzTest, CsvParserNeverCrashesOnPrintableGarbage) {
  Xoshiro256pp rng(2);
  const std::string alphabet = "0123456789.,-+eE #\nNaN()abc";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    for (size_t i = 0; i < rng.NextBounded(120); ++i) {
      text += alphabet[rng.NextBounded(alphabet.size())];
    }
    std::istringstream in(text);
    (void)ParseCsvPoints(in);  // must not crash
  }
}

TEST(FuzzTest, SnapshotRestoreNeverCrashesOnRandomBytes) {
  Xoshiro256pp rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string garbage = RandomBytes(rng.NextBounded(400), &rng);
    const auto result = RestoreSampler(garbage);
    EXPECT_FALSE(result.ok());  // random bytes can't pass the checksum
  }
}

TEST(FuzzTest, SnapshotRestoreNeverCrashesOnMutations) {
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 4;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  for (int i = 0; i < 30; ++i) {
    sampler.Insert(Point{10.0 * i, -5.0 * i});
  }
  std::string blob;
  ASSERT_TRUE(SnapshotSampler(sampler, &blob).ok());

  Xoshiro256pp rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = blob;
    // 1-4 random byte mutations.
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng() & 0xFF);
    }
    const auto result = RestoreSampler(mutated);
    // The checksum rejects any actual change; mutations that happen to
    // rewrite a byte to its original value still restore fine.
    if (mutated == blob) {
      EXPECT_TRUE(result.ok());
    } else {
      EXPECT_FALSE(result.ok());
    }
  }
}

TEST(FuzzTest, SnapshotRestoreNeverCrashesOnTruncations) {
  SamplerOptions opts;
  opts.dim = 3;
  opts.alpha = 0.5;
  opts.seed = 6;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  for (int i = 0; i < 10; ++i) {
    sampler.Insert(Point{5.0 * i, 0.0, 1.0});
  }
  std::string blob;
  ASSERT_TRUE(SnapshotSampler(sampler, &blob).ok());
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(RestoreSampler(blob.substr(0, len)).ok()) << len;
  }
}

TEST(FuzzTest, SwSnapshotRestoreNeverCrashesOnRandomBytes) {
  Xoshiro256pp rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string garbage = RandomBytes(rng.NextBounded(400), &rng);
    EXPECT_FALSE(RestoreSamplerSW(garbage).ok());
  }
}

TEST(FuzzTest, SwSnapshotRestoreNeverCrashesOnMutationsOrTruncations) {
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 32;
  opts.random_representative = true;
  auto sampler = RobustL0SamplerSW::Create(opts, 64).value();
  for (int i = 0; i < 120; ++i) {
    sampler.Insert(Point{10.0 * (i % 25), -5.0 * (i % 25)}, i);
  }
  std::string blob;
  ASSERT_TRUE(SnapshotSamplerSW(sampler, &blob).ok());

  Xoshiro256pp rng(33);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = blob;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng() & 0xFF);
    }
    // Either the checksum/structural checks reject it, or the mutation
    // was payload-neutral — never a crash or corrupt sampler.
    auto restored = RestoreSamplerSW(mutated);
    if (restored.ok()) {
      Xoshiro256pp qrng(34);
      (void)restored.value().SampleLatest(&qrng);
    }
  }
  for (size_t len = 0; len < blob.size(); len += 7) {
    EXPECT_FALSE(RestoreSamplerSW(blob.substr(0, len)).ok()) << len;
  }
}

/// Random SW stream: random group revisits with random stamp gaps (gaps
/// regularly exceed the window, straddling expiry) — the fuzz surface of
/// the window-semantics battery.
struct SwFuzzStream {
  std::vector<Point> points;
  std::vector<int64_t> stamps;
};

SwFuzzStream RandomSwStream(size_t n, size_t groups, Xoshiro256pp* rng) {
  SwFuzzStream stream;
  int64_t stamp = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t g = rng->NextBounded(groups);
    stream.points.push_back(
        Point{10.0 * static_cast<double>(g) + 0.3 * (rng->NextDouble() - 0.5)});
    // Mostly dense stamps, occasionally a jump past several windows.
    stamp += rng->NextBounded(50) == 0
                 ? static_cast<int64_t>(rng->NextBounded(400))
                 : static_cast<int64_t>(rng->NextBounded(3));
    stream.stamps.push_back(stamp);
  }
  return stream;
}

TEST(FuzzTest, SwRandomStreamsLegacyDifferentialAtRateOne) {
  // The flat-index refactor against the node-based legacy hierarchy on
  // random streams, windows and group counts — bit-identical state at
  // rate 1, including streams whose stamp jumps empty whole windows.
  Xoshiro256pp rng(35);
  for (int trial = 0; trial < 25; ++trial) {
    SamplerOptions opts;
    opts.dim = 1;
    opts.alpha = 1.0;
    opts.seed = 3500 + trial;
    opts.accept_cap = 1 << 20;  // rate 1
    opts.expected_stream_length = 1 << 12;
    const int64_t window = 8 + static_cast<int64_t>(rng.NextBounded(120));
    const SwFuzzStream stream =
        RandomSwStream(300, 5 + rng.NextBounded(40), &rng);

    auto flat = RobustL0SamplerSW::Create(opts, window).value();
    auto legacy = LegacySwSampler::Create(opts, window).value();
    for (size_t i = 0; i < stream.points.size(); ++i) {
      flat.Insert(stream.points[i], stream.stamps[i]);
      legacy.Insert(stream.points[i], stream.stamps[i]);
    }
    ASSERT_EQ(flat.num_levels(), legacy.num_levels());
    for (size_t l = 0; l < flat.num_levels(); ++l) {
      std::vector<GroupRecord> a, b;
      flat.level(l).SnapshotGroups(&a);
      legacy.level(l).SnapshotGroups(&b);
      const auto by_id = [](const GroupRecord& x, const GroupRecord& y) {
        return x.id < y.id;
      };
      std::sort(a.begin(), a.end(), by_id);
      std::sort(b.begin(), b.end(), by_id);
      ASSERT_EQ(a.size(), b.size()) << "trial " << trial << " level " << l;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].id, b[i].id);
        ASSERT_EQ(a[i].rep_index, b[i].rep_index);
        ASSERT_EQ(a[i].accepted, b[i].accepted);
        ASSERT_EQ(a[i].latest_stamp, b[i].latest_stamp);
        ASSERT_EQ(a[i].latest_index, b[i].latest_index);
        ASSERT_EQ(a[i].rep, b[i].rep);
        ASSERT_EQ(a[i].latest, b[i].latest);
      }
    }
  }
}

TEST(FuzzTest, SwRandomStreamsKeepWindowInvariants) {
  // At any cap and window, every tracked group's latest stamp stays
  // inside the window and a sample (when one exists) is a window point.
  Xoshiro256pp rng(36);
  for (int trial = 0; trial < 25; ++trial) {
    SamplerOptions opts;
    opts.dim = 1;
    opts.alpha = 1.0;
    opts.seed = 3600 + trial;
    opts.accept_cap = 4 + rng.NextBounded(16);
    opts.expected_stream_length = 1 << 12;
    const int64_t window = 8 + static_cast<int64_t>(rng.NextBounded(120));
    const SwFuzzStream stream =
        RandomSwStream(400, 5 + rng.NextBounded(60), &rng);

    auto sampler = RobustL0SamplerSW::Create(opts, window).value();
    Xoshiro256pp qrng(37);
    for (size_t i = 0; i < stream.points.size(); ++i) {
      sampler.Insert(stream.points[i], stream.stamps[i]);
      if (i % 16 != 15) continue;
      const int64_t now = stream.stamps[i];
      for (size_t l = 0; l < sampler.num_levels(); ++l) {
        std::vector<GroupRecord> groups;
        sampler.level(l).SnapshotGroups(&groups);
        for (const GroupRecord& g : groups) {
          ASSERT_GT(g.latest_stamp, now - window);
          ASSERT_LE(g.latest_stamp, now);
          ASSERT_LE(g.rep_index, g.latest_index);
        }
      }
      const auto sample = sampler.Sample(now, &qrng);
      ASSERT_TRUE(sample.has_value());  // the newest point is in-window
    }
  }
}

TEST(FuzzTest, DeltaFoldNeverCrashesOnMalformedInputs) {
  // ApplySamplerDeltaSW over random bytes, byte mutations of both
  // operands, and truncations: a clean Status every time, and an accepted
  // fold must itself restore.
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 51;
  opts.accept_cap = 8;
  opts.expected_stream_length = 2048;

  auto sw = RobustL0SamplerSW::Create(opts, 64).value();
  for (int i = 0; i < 150; ++i) sw.Insert(Point{9.0 * (i % 20), 1.0 * i}, i);
  std::string base;
  ASSERT_TRUE(SnapshotSamplerFullSW(&sw, &base).ok());
  for (int i = 150; i < 300; ++i) {
    sw.Insert(Point{9.0 * (i % 31), -2.0 * i}, i);
  }
  std::string delta;
  ASSERT_TRUE(
      SnapshotSamplerDeltaSW(&sw, SnapshotChainChecksum(base), &delta).ok());

  Xoshiro256pp rng(52);
  for (int trial = 0; trial < 400; ++trial) {
    std::string out;
    (void)ApplySamplerDeltaSW(base, RandomBytes(rng.NextBounded(300), &rng),
                              &out);
  }
  for (int trial = 0; trial < 400; ++trial) {
    std::string mut_base = base;
    std::string mut_delta = delta;
    std::string& victim = trial % 2 == 0 ? mut_delta : mut_base;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      victim[rng.NextBounded(victim.size())] = static_cast<char>(rng() & 0xFF);
    }
    std::string out;
    if (ApplySamplerDeltaSW(mut_base, mut_delta, &out).ok()) {
      // Mutation-neutral (or checksum-consistent): the fold must be a
      // restorable full blob.
      EXPECT_TRUE(RestoreSamplerSW(out).ok());
    }
  }
  for (size_t len = 0; len < delta.size(); len += 5) {
    std::string out;
    EXPECT_FALSE(ApplySamplerDeltaSW(base, delta.substr(0, len), &out).ok())
        << len;
  }
}

TEST(FuzzTest, JournalReaderNeverCrashesAndPrefixIsIdempotent) {
  // ReadJournal over random bytes, mutations and every truncation: a
  // clean Status, valid_bytes never past the input, and re-reading the
  // reported valid prefix must reproduce it exactly.
  std::string journal;
  JournalWriter writer(&journal, 2);
  Xoshiro256pp rng(53);
  uint64_t index = 0;
  for (int r = 0; r < 12; ++r) {
    std::vector<Point> points;
    std::vector<int64_t> stamps;
    for (size_t i = 0; i < 1 + rng.NextBounded(9); ++i) {
      points.push_back(Point{rng.NextDouble(), rng.NextDouble()});
      stamps.push_back(static_cast<int64_t>(3 * index + i));
    }
    switch (r % 3) {
      case 0:
        writer.AppendPoints(points, index);
        index += points.size();
        break;
      case 1:
        writer.AppendStamped(points, stamps, index);
        index += points.size();
        break;
      default:
        writer.AppendWatermark(static_cast<int64_t>(3 * index), index);
        break;
    }
  }

  for (int trial = 0; trial < 400; ++trial) {
    JournalContents contents;
    (void)ReadJournal(RandomBytes(rng.NextBounded(400), &rng), &contents);
  }
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = journal;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng() & 0xFF);
    }
    JournalContents contents;
    const Status status = ReadJournal(mutated, &contents);
    if (!status.ok()) continue;  // header mutation: clean reject
    ASSERT_LE(contents.valid_bytes, mutated.size());
    JournalContents reread;
    ASSERT_TRUE(
        ReadJournal(mutated.substr(0, contents.valid_bytes), &reread).ok());
    EXPECT_EQ(reread.valid_bytes, contents.valid_bytes);
    EXPECT_EQ(reread.records.size(), contents.records.size());
  }
  for (size_t len = 0; len <= journal.size(); ++len) {
    JournalContents contents;
    const Status status = ReadJournal(journal.substr(0, len), &contents);
    if (len >= 20) {
      ASSERT_TRUE(status.ok()) << len;  // torn tails are never errors
      ASSERT_LE(contents.valid_bytes, len);
    }
  }
}

TEST(FuzzTest, PoolRecoveryNeverCrashesOnMalformedInputs) {
  // FoldPoolDelta / RecoverPool over random bytes and mutated
  // checkpoints and journals: a clean Status or a usable pool, never a
  // crash. Journal mutations in particular must degrade to a shorter
  // replay (torn-tail semantics), not corruption.
  SamplerOptions opts;
  opts.dim = 1;
  opts.alpha = 1.0;
  opts.seed = 54;
  opts.accept_cap = 8;
  opts.expected_stream_length = 2048;
  auto pool = ShardedSwSamplerPool::Create(opts, 97, 2).value();
  std::string journal;
  JournalWriter writer(&journal, opts.dim);
  AttachJournal(&pool, &writer);

  Xoshiro256pp rng(55);
  std::vector<Point> points;
  for (int i = 0; i < 500; ++i) {
    points.push_back(Point{10.0 * static_cast<double>(rng.NextBounded(25))});
  }
  pool.Feed(Span<const Point>(points.data(), 250));
  pool.Drain();
  std::string base;
  ASSERT_TRUE(CheckpointPool(&pool, writer.next_seq(), &base).ok());
  pool.Feed(Span<const Point>(points.data() + 250, 250));
  pool.Drain();
  std::string delta;
  ASSERT_TRUE(CheckpointPoolDelta(&pool, base, writer.next_seq(), &delta).ok());
  std::string folded;
  ASSERT_TRUE(FoldPoolDelta(base, delta, &folded).ok());

  for (int trial = 0; trial < 200; ++trial) {
    const std::string garbage = RandomBytes(rng.NextBounded(400), &rng);
    std::string out;
    (void)FoldPoolDelta(base, garbage, &out);
    EXPECT_FALSE(RecoverPool(garbage, journal).ok());
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = folded;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng() & 0xFF);
    }
    auto recovered = RecoverPool(mutated, journal);
    if (mutated == folded) {
      EXPECT_TRUE(recovered.ok());
    } else {
      EXPECT_FALSE(recovered.ok());
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = journal;
    const size_t mutations = 1 + rng.NextBounded(4);
    for (size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<char>(rng() & 0xFF);
    }
    auto recovered = RecoverPool(folded, mutated);
    if (recovered.ok()) {
      Xoshiro256pp qrng(56);
      (void)recovered.value().SampleLatest(&qrng);
      EXPECT_LE(recovered.value().points_processed(), points.size());
    }
  }
  for (size_t len = 0; len <= journal.size(); len += 3) {
    auto recovered = RecoverPool(folded, journal.substr(0, len));
    ASSERT_TRUE(recovered.ok()) << len;  // torn tails always recover
  }
}

TEST(FuzzTest, ExtremeCoordinatesKeepInvariants) {
  Xoshiro256pp rng(7);
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 1.0;
  opts.seed = 8;
  opts.accept_cap = 10;
  opts.expected_stream_length = 4096;
  auto sampler = RobustL0SamplerIW::Create(opts).value();
  const double magnitudes[] = {1e-9, 1.0, 1e3, 1e9, 1e12};
  for (int i = 0; i < 2000; ++i) {
    const double mag = magnitudes[rng.NextBounded(5)];
    Point p{mag * (rng.NextDouble() * 2 - 1), mag * (rng.NextDouble() * 2 - 1)};
    sampler.Insert(p);
    ASSERT_LE(sampler.accept_size(), 10u);
    ASSERT_GE(sampler.accept_size(), 1u);
  }
  Xoshiro256pp qrng(9);
  EXPECT_TRUE(sampler.Sample(&qrng).has_value());
}

TEST(FuzzTest, RandomStreamsNeverViolateDefinition22) {
  Xoshiro256pp rng(10);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    SamplerOptions opts;
    opts.dim = 2;
    opts.alpha = 1.0;
    opts.seed = 100 + seed;
    opts.accept_cap = 8;
    opts.expected_stream_length = 1024;
    auto sampler = RobustL0SamplerIW::Create(opts).value();
    // Clustered random walk: a mix of near-duplicates and far jumps.
    Point current{0.0, 0.0};
    for (int i = 0; i < 500; ++i) {
      if (rng.NextBernoulli(0.7)) {
        current[0] += 0.3 * (rng.NextDouble() - 0.5);
        current[1] += 0.3 * (rng.NextDouble() - 0.5);
      } else {
        current[0] = 1e4 * (rng.NextDouble() - 0.5);
        current[1] = 1e4 * (rng.NextDouble() - 0.5);
      }
      sampler.Insert(current);
    }
    std::vector<uint64_t> adj;
    for (const SampleItem& item : sampler.AcceptedRepresentatives()) {
      ASSERT_TRUE(sampler.hasher().SampledAtLevel(
          sampler.grid().CellKeyOf(item.point), sampler.level()));
    }
    for (const SampleItem& item : sampler.RejectedRepresentatives()) {
      ASSERT_FALSE(sampler.hasher().SampledAtLevel(
          sampler.grid().CellKeyOf(item.point), sampler.level()));
      sampler.grid().AdjacentCells(item.point, opts.alpha, &adj);
      bool near = false;
      for (uint64_t key : adj) {
        near = near || sampler.hasher().SampledAtLevel(key, sampler.level());
      }
      ASSERT_TRUE(near);
    }
  }
}

// ------------------------- rl0_serve line protocol (serve/protocol.h)

/// Runs arbitrary bytes through the server's decode→parse path exactly
/// as a session reader would: every byte sequence must yield lines and
/// oversize notices, every line a Command or a clean error — never a
/// crash. Returns the number of complete lines seen.
size_t DecodeAndParseAll(const std::string& wire, size_t max_line,
                         Xoshiro256pp* rng) {
  serve::LineDecoder decoder(max_line);
  // Random split points exercise partial-arrival reassembly.
  size_t offset = 0;
  while (offset < wire.size()) {
    const size_t n = std::min<size_t>(wire.size() - offset,
                                      1 + rng->NextBounded(97));
    decoder.Append(wire.data() + offset, n);
    offset += n;
  }
  size_t lines = 0;
  std::string line;
  for (;;) {
    const auto event = decoder.Next(&line);
    if (event == serve::LineDecoder::Event::kNone) break;
    if (event == serve::LineDecoder::Event::kOversized) continue;
    ++lines;
    const auto parsed = serve::ParseCommand(line);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty()) << line;
    }
  }
  return lines;
}

TEST(FuzzTest, ServeProtocolNeverCrashesOnRandomBytes) {
  Xoshiro256pp rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string wire = RandomBytes(rng.NextBounded(400), &rng);
    DecodeAndParseAll(wire, 64, &rng);
  }
}

TEST(FuzzTest, ServeProtocolNeverCrashesOnProtocolShapedGarbage) {
  // Garbage built from real protocol vocabulary: verbs, key=value
  // fragments, stamps, numbers — far likelier to reach deep parser
  // branches than raw bytes.
  Xoshiro256pp rng(43);
  const char* words[] = {
      "CREATE",   "FEED",      "FEEDSTAMPED", "SAMPLE",  "SUBSCRIBE",
      "STATS",    "FLUSH",     "CLOSE",       "QUIT",    "PING",
      "t1",       "dim=",      "alpha=",      "window=", "mode=",
      "seq",      "time",      "late",        "every=",  "q=",
      "seed=",    "threshold=", "1,2",        "3.5,4.5", "10@1,2",
      "@",        "=",         "1e308",       "-1e309",  "nan",
      "inf",      "0x10",      "18446744073709551616",   ",,",
      "1,",       ",1",        "@@",          "-",       "digest",
      "f0",       "churn",     "\r",          "lateness=",
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::string wire;
    const size_t tokens = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < tokens; ++i) {
      wire += words[rng.NextBounded(sizeof(words) / sizeof(words[0]))];
      wire += rng.NextBernoulli(0.3) ? "\n" : " ";
    }
    wire += "\n";
    DecodeAndParseAll(wire, 256, &rng);
  }
}

TEST(FuzzTest, ServeProtocolSurvivesTruncatedAndMutatedValidCommands) {
  Xoshiro256pp rng(47);
  const std::string valid[] = {
      "CREATE t dim=3 alpha=0.5 window=100 mode=late lateness=10 "
      "shards=2 seed=9 metric=l1 m=1000 k=2 reservoir=1 filter=0",
      "FEED t 1.5,2.5,3 4,5,6 7,8,9",
      "FEEDSTAMPED t 10@1,2,3 12@4,5,6 15@7,8,9",
      "SAMPLE t q=3 seed=17",
      "SUBSCRIBE t churn every=25 threshold=0.125",
      "UNSUBSCRIBE t 7",
  };
  for (int trial = 0; trial < 600; ++trial) {
    std::string line = valid[rng.NextBounded(6)];
    // Truncate, splice or flip a few bytes.
    if (rng.NextBernoulli(0.5)) {
      line.resize(rng.NextBounded(line.size() + 1));
    }
    const size_t flips = rng.NextBounded(4);
    for (size_t f = 0; f < flips && !line.empty(); ++f) {
      line[rng.NextBounded(line.size())] =
          static_cast<char>(rng() & 0x7F);
    }
    const auto parsed = serve::ParseCommand(line);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty()) << line;
    }
  }
}

TEST(FuzzTest, ServeDecoderGiantTokensStayBounded) {
  // Multi-megabyte single "lines" against a small cap: memory stays
  // bounded at the cap and the stream recovers at the next newline.
  Xoshiro256pp rng(53);
  serve::LineDecoder decoder(1024);
  std::string chunk(64 * 1024, 'a');
  for (int i = 0; i < 64; ++i) {
    decoder.Append(chunk.data(), chunk.size());
    ASSERT_LE(decoder.buffered_bytes(), 1025u);
  }
  decoder.Append("\nPING\n", 6);
  std::string line;
  size_t notices = 0;
  size_t lines = 0;
  for (;;) {
    const auto event = decoder.Next(&line);
    if (event == serve::LineDecoder::Event::kNone) break;
    if (event == serve::LineDecoder::Event::kOversized) {
      ++notices;
    } else {
      ++lines;
      EXPECT_EQ(line, "PING");
    }
  }
  EXPECT_EQ(notices, 1u);  // one notice for the whole 4MB run
  EXPECT_EQ(lines, 1u);
}

TEST(FuzzTest, ServeDecoderPipelinedRoundTripUnderRandomSplits) {
  // A long pipelined script of valid commands must survive any
  // re-chunking bit-for-bit: same lines, same order.
  Xoshiro256pp rng(59);
  std::vector<std::string> script;
  for (int i = 0; i < 200; ++i) {
    script.push_back("FEED t" + std::to_string(i % 7) + " " +
                     std::to_string(i) + "," + std::to_string(i + 1));
  }
  std::string wire;
  for (const std::string& s : script) wire += s + "\n";

  for (int trial = 0; trial < 20; ++trial) {
    serve::LineDecoder decoder(1 << 16);
    size_t offset = 0;
    while (offset < wire.size()) {
      const size_t n = std::min<size_t>(wire.size() - offset,
                                        1 + rng.NextBounded(31));
      decoder.Append(wire.data() + offset, n);
      offset += n;
    }
    std::string line;
    size_t index = 0;
    while (decoder.Next(&line) == serve::LineDecoder::Event::kLine) {
      ASSERT_LT(index, script.size());
      EXPECT_EQ(line, script[index]);
      ASSERT_TRUE(serve::ParseCommand(line).ok()) << line;
      ++index;
    }
    EXPECT_EQ(index, script.size());
  }
}

}  // namespace
}  // namespace rl0
