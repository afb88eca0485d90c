// Protocol battery for rl0_serve (serve/protocol.h + serve/server.h):
// the LineDecoder's framing under partial, pipelined and oversized
// arrivals; ParseCommand's total-function contract on malformed lines;
// and a real in-process Server driven over unix sockets — error paths,
// per-tenant isolation, and the differential pin: a server-fed tenant's
// SAMPLE lines must be byte-identical to querying a directly-fed
// ShardedSwSamplerPool with the CLI's query-rng derivation, in all
// three stamp modes (sequence, time, bounded-lateness).

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rl0/core/sharded_pool.h"
#include "rl0/serve/protocol.h"
#include "rl0/serve/server.h"
#include "rl0/util/rng.h"
#include "serve_test_util.h"

namespace rl0 {
namespace serve {
namespace {

// ----------------------------------------------------------- LineDecoder

std::vector<std::pair<bool, std::string>> DrainDecoder(LineDecoder* d) {
  std::vector<std::pair<bool, std::string>> out;
  std::string line;
  for (;;) {
    const auto event = d->Next(&line);
    if (event == LineDecoder::Event::kNone) break;
    out.emplace_back(event == LineDecoder::Event::kOversized, line);
  }
  return out;
}

TEST(LineDecoderTest, SplitsPipelinedLinesAndToleratesCrlf) {
  LineDecoder d(64);
  const std::string wire = "PING\r\nSTATS\nQUIT\n";
  d.Append(wire.data(), wire.size());
  const auto got = DrainDecoder(&d);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].second, "PING");
  EXPECT_EQ(got[1].second, "STATS");
  EXPECT_EQ(got[2].second, "QUIT");
  EXPECT_EQ(d.buffered_bytes(), 0u);
}

TEST(LineDecoderTest, ReassemblesArbitrarySplitPoints) {
  const std::string wire = "CREATE t dim=2 alpha=0.5 window=10\nPING\n";
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    LineDecoder d(256);
    d.Append(wire.data(), cut);
    d.Append(wire.data() + cut, wire.size() - cut);
    const auto got = DrainDecoder(&d);
    ASSERT_EQ(got.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(got[0].second, "CREATE t dim=2 alpha=0.5 window=10");
    EXPECT_EQ(got[1].second, "PING");
  }
}

TEST(LineDecoderTest, OversizedLineKeepsWireOrderAndBoundedMemory) {
  LineDecoder d(16);  // the constructor clamps smaller caps up to 16
  const std::string wire = "ok1\n0123456789abcdef-too-long\nok2\n";
  d.Append(wire.data(), wire.size());
  const auto got = DrainDecoder(&d);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(got[0].first);
  EXPECT_EQ(got[0].second, "ok1");
  EXPECT_TRUE(got[1].first);  // the notice sits where the line was
  EXPECT_FALSE(got[2].first);
  EXPECT_EQ(got[2].second, "ok2");
}

TEST(LineDecoderTest, OversizedRunNeverBuffersPastTheCap) {
  LineDecoder d(16);
  const std::string chunk(1000, 'x');
  for (int i = 0; i < 50; ++i) {
    d.Append(chunk.data(), chunk.size());
    EXPECT_LE(d.buffered_bytes(), 17u);  // cap + the overflowing byte
  }
  d.Append("\nPING\n", 6);
  const auto got = DrainDecoder(&d);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].first);   // one notice for the whole 50KB run
  EXPECT_EQ(got[1].second, "PING");
}

/// The byte-at-a-time decoder that LineDecoder's bulk scan replaced,
/// kept verbatim as the reference for its event stream.
class ByteAtATimeDecoder {
 public:
  explicit ByteAtATimeDecoder(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes < 16 ? 16 : max_line_bytes) {}

  void Append(const char* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const char c = data[i];
      if (discarding_) {
        if (c == '\n') discarding_ = false;
        continue;
      }
      if (c == '\n') {
        if (!partial_.empty() && partial_.back() == '\r') {
          partial_.pop_back();
        }
        events_.emplace_back(false, std::move(partial_));
        partial_.clear();
        continue;
      }
      partial_.push_back(c);
      if (partial_.size() > max_line_bytes_) {
        partial_.clear();
        events_.emplace_back(true, std::string());
        discarding_ = true;
      }
    }
  }

  std::vector<std::pair<bool, std::string>> Drain() {
    std::vector<std::pair<bool, std::string>> out;
    out.swap(events_);
    return out;
  }

  size_t buffered_bytes() const { return partial_.size(); }

 private:
  std::string partial_;
  size_t max_line_bytes_;
  bool discarding_ = false;
  std::vector<std::pair<bool, std::string>> events_;
};

/// As DrainDecoder, with an empty string for every oversize notice (the
/// reference's shape).
std::vector<std::pair<bool, std::string>> DrainEvents(LineDecoder* d) {
  std::vector<std::pair<bool, std::string>> out;
  std::string line;
  for (;;) {
    const auto event = d->Next(&line);
    if (event == LineDecoder::Event::kNone) break;
    const bool oversized = event == LineDecoder::Event::kOversized;
    out.emplace_back(oversized, oversized ? std::string() : line);
  }
  return out;
}

/// Feeds `pieces` to both decoders, comparing the buffered bytes after
/// every Append and the events either after every Append (`drain_each`)
/// or once at the end.
void ExpectMatchesReference(size_t cap,
                            const std::vector<std::string>& pieces,
                            bool drain_each, const std::string& label) {
  LineDecoder d(cap);
  ByteAtATimeDecoder ref(cap);
  std::vector<std::pair<bool, std::string>> got, want;
  for (const std::string& piece : pieces) {
    d.Append(piece.data(), piece.size());
    ref.Append(piece.data(), piece.size());
    ASSERT_EQ(d.buffered_bytes(), ref.buffered_bytes()) << label;
    if (drain_each) {
      for (auto& e : DrainEvents(&d)) got.push_back(std::move(e));
      for (auto& e : ref.Drain()) want.push_back(std::move(e));
      ASSERT_EQ(got, want) << label;
    }
  }
  for (auto& e : DrainEvents(&d)) got.push_back(std::move(e));
  for (auto& e : ref.Drain()) want.push_back(std::move(e));
  ASSERT_EQ(got, want) << label;
}

TEST(LineDecoderTest, MatchesByteAtATimeReferenceAtTheCap) {
  // Lines at and around the cap: exactly cap bytes, cap + 1, cap bytes
  // plus CRLF (the '\r' counts toward the cap, so that line is
  // oversized), cap - 1 plus CRLF, empty lines bare and with CRLF, a
  // lone '\r', and an oversized run longer than any one append.
  const size_t cap = 16;
  const std::string at_cap(cap, 'a');
  const std::string wire = at_cap + "\n" + std::string(cap + 1, 'b') +
                           "\n" + at_cap + "\r\n" +
                           std::string(cap - 1, 'c') + "\r\n\n\r\n\r\r\n" +
                           std::string(5 * cap, 'd') + "\r\nPING\n" +
                           at_cap + "\r" + "\n" + "tail";
  for (size_t cut = 0; cut <= wire.size(); ++cut) {
    for (const bool drain_each : {false, true}) {
      ExpectMatchesReference(
          cap, {wire.substr(0, cut), wire.substr(cut)}, drain_each,
          "cut=" + std::to_string(cut) + " drain_each=" +
              std::to_string(drain_each));
    }
  }
  // Every split into pieces of one size, down to byte-at-a-time.
  for (size_t size = 1; size <= 2 * cap + 3; ++size) {
    std::vector<std::string> pieces;
    for (size_t at = 0; at < wire.size(); at += size) {
      pieces.push_back(wire.substr(at, size));
    }
    ExpectMatchesReference(cap, pieces, /*drain_each=*/true,
                           "size=" + std::to_string(size));
  }
}

TEST(LineDecoderTest, MatchesByteAtATimeReferenceOnRandomStreams) {
  // Bytes drawn from {x, \r, \n} with lines clustered around the cap,
  // random append sizes and random drain points.
  Xoshiro256pp rng(71);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t cap = 16 + rng.NextBounded(24);
    std::string wire;
    while (wire.size() < 400) {
      const size_t len = cap - 3 + rng.NextBounded(7);
      wire += std::string(len, 'x');
      const uint64_t end = rng.NextBounded(4);
      wire += end == 0 ? "\r\n" : end == 1 ? "\r" : "\n";
    }
    std::vector<std::string> pieces;
    for (size_t at = 0; at < wire.size();) {
      const size_t n = 1 + rng.NextBounded(3 * cap);
      pieces.push_back(wire.substr(at, n));
      at += n;
    }
    ExpectMatchesReference(cap, pieces, rng.NextBounded(2) == 0,
                           "trial=" + std::to_string(trial));
  }
}

// ---------------------------------------------------------- ParseCommand

TEST(ParseCommandTest, ParsesEveryVerb) {
  auto create = ParseCommand(
      "CREATE t1 dim=3 alpha=0.25 window=500 mode=late lateness=40 "
      "shards=4 seed=7 metric=l1 m=10000 k=2 reservoir=1 filter=0");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  EXPECT_EQ(create.value().type, CommandType::kCreate);
  EXPECT_EQ(create.value().tenant, "t1");
  EXPECT_EQ(create.value().create.dim, 3u);
  EXPECT_DOUBLE_EQ(create.value().create.alpha, 0.25);
  EXPECT_EQ(create.value().create.window, 500);
  EXPECT_EQ(create.value().create.mode, TenantMode::kLate);
  EXPECT_EQ(create.value().create.lateness, 40);
  EXPECT_EQ(create.value().create.shards, 4u);
  EXPECT_EQ(create.value().create.seed, 7u);
  EXPECT_EQ(create.value().create.metric, Metric::kL1);
  EXPECT_EQ(create.value().create.expected_m, 10000u);
  EXPECT_EQ(create.value().create.k, 2u);
  EXPECT_TRUE(create.value().create.reservoir);
  EXPECT_FALSE(create.value().create.filter);

  auto feed = ParseCommand("FEED t1 1.5,2 3,4 -0.25,1e3");
  ASSERT_TRUE(feed.ok());
  ASSERT_EQ(feed.value().points.size(), 3u);
  EXPECT_DOUBLE_EQ(feed.value().points[2][1], 1e3);

  auto stamped = ParseCommand("FEEDSTAMPED t1 10@1,2 12@3,4");
  ASSERT_TRUE(stamped.ok());
  ASSERT_EQ(stamped.value().stamps.size(), 2u);
  EXPECT_EQ(stamped.value().stamps[1], 12);

  // Disorder parses: whether it is legal depends on the tenant's mode,
  // which only the registry knows.
  EXPECT_TRUE(ParseCommand("FEEDSTAMPED t1 12@1,2 10@3,4").ok());

  auto sample = ParseCommand("SAMPLE t1 q=5 seed=99");
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample.value().queries, 5);
  EXPECT_TRUE(sample.value().seed_set);
  EXPECT_EQ(sample.value().seed, 99u);

  auto sub = ParseCommand("SUBSCRIBE t1 churn every=50 threshold=0.2");
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub.value().query, QueryKind::kChurn);
  EXPECT_EQ(sub.value().every, 50u);
  EXPECT_DOUBLE_EQ(sub.value().threshold, 0.2);

  EXPECT_TRUE(ParseCommand("UNSUBSCRIBE t1 3").ok());
  EXPECT_TRUE(ParseCommand("FLUSH t1").ok());
  EXPECT_TRUE(ParseCommand("STATS").ok());
  EXPECT_TRUE(ParseCommand("STATS t1").ok());
  EXPECT_TRUE(ParseCommand("CLOSE t1").ok());
  EXPECT_TRUE(ParseCommand("PING").ok());
  EXPECT_TRUE(ParseCommand("QUIT").ok());
}

TEST(ParseCommandTest, RejectsMalformedLinesWithMessages) {
  const char* bad[] = {
      "",
      "   ",
      "NOSUCHVERB x",
      "CREATE",
      "CREATE t1",                               // missing dim/alpha/window
      "CREATE t1 dim=0 alpha=0.5 window=10",     // zero dim
      "CREATE t1 dim=2 alpha=nan window=10",     // non-finite alpha
      "CREATE t1 dim=2 alpha=0.5 window=-3",     // negative window
      "CREATE t1 dim=2 alpha=0.5 window=10 mode=banana",
      "CREATE t1 dim=2 alpha=0.5 window=10 metric=l7",
      "CREATE .hidden dim=2 alpha=0.5 window=10",  // leading-dot tenant
      "CREATE bad/name dim=2 alpha=0.5 window=10",
      "FEED",
      "FEED t1",                                 // no points
      "FEED t1 1,2 3",                           // inconsistent dims
      "FEED t1 1,abc",
      "FEED t1 1,inf",
      "FEED t1 1,,2",
      "FEEDSTAMPED t1 1,2",                      // missing stamp@
      "FEEDSTAMPED t1 x@1,2",
      "FEEDSTAMPED t1 1@",
      "SAMPLE",
      "SAMPLE t1 q=0",
      "SAMPLE t1 q=abc",
      "SUBSCRIBE t1",
      "SUBSCRIBE t1 digest",                     // missing every
      "SUBSCRIBE t1 digest every=0",
      // 2^63: would wrap negative in the registry's int64 trigger math.
      "SUBSCRIBE t1 digest every=9223372036854775808",
      "SUBSCRIBE t1 churn every=10",             // missing threshold
      "SUBSCRIBE t1 nosuchkind every=10",
      "UNSUBSCRIBE t1",
      "UNSUBSCRIBE t1 notanid",
      "PING extra",
  };
  for (const char* line : bad) {
    const auto result = ParseCommand(line);
    EXPECT_FALSE(result.ok()) << "accepted: " << line;
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty()) << line;
    }
  }
}

TEST(ParseCommandTest, FeedPointCountIsBounded) {
  std::string line = "FEED t1";
  for (size_t i = 0; i < kMaxPointsPerFeed + 1; ++i) line += " 1";
  EXPECT_FALSE(ParseCommand(line).ok());
}

// ------------------------------------- FEED parse vs the strtod rule
//
// ParseCommand scans FEED lines in place and decides most coordinates
// with std::from_chars. Below is a verbatim copy of the token-based
// strtod parser it replaced; over a seeded mix of well-formed and edge
// inputs the two must agree on the outcome, the error text, every
// coordinate's bits and every stamp.

namespace strtod_reference {

bool ParseDoubleToken(const std::string& tok, double* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) return false;
  if (errno == ERANGE || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseI64Token(const std::string& tok, int64_t* out) {
  if (tok.empty() || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size()) return false;
  if (errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line, start, i - start);
  }
  return tokens;
}

Status Err(const std::string& msg) { return Status::InvalidArgument(msg); }

bool ParsePointToken(const std::string& tok, Point* out) {
  std::vector<double> coords;
  size_t start = 0;
  for (;;) {
    const size_t comma = tok.find(',', start);
    const std::string piece =
        comma == std::string::npos ? tok.substr(start)
                                   : tok.substr(start, comma - start);
    double v;
    if (!ParseDoubleToken(piece, &v)) return false;
    coords.push_back(v);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  *out = Point(std::move(coords));
  return true;
}

Result<Command> ParseFeed(const std::vector<std::string>& tokens,
                          bool stamped) {
  Command cmd;
  cmd.type = stamped ? CommandType::kFeedStamped : CommandType::kFeed;
  const char* name = stamped ? "FEEDSTAMPED" : "FEED";
  if (tokens.size() < 2) {
    return Err(std::string(name) + ": missing tenant name");
  }
  cmd.tenant = tokens[1];
  if (tokens.size() < 3) {
    return Err(std::string(name) + ": no points");
  }
  if (tokens.size() - 2 > kMaxPointsPerFeed) {
    return Err(std::string(name) + ": too many points in one command");
  }
  size_t dim = 0;
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string coords_tok = tokens[i];
    if (stamped) {
      const size_t at = coords_tok.find('@');
      if (at == std::string::npos) {
        return Err("FEEDSTAMPED: expected stamp@coords, got '" +
                   tokens[i] + "'");
      }
      int64_t stamp;
      if (!ParseI64Token(coords_tok.substr(0, at), &stamp)) {
        return Err("FEEDSTAMPED: bad stamp in '" + tokens[i] + "'");
      }
      cmd.stamps.push_back(stamp);
      coords_tok.erase(0, at + 1);
    }
    Point point;
    if (!ParsePointToken(coords_tok, &point)) {
      return Err(std::string(name) + ": bad point '" + tokens[i] + "'");
    }
    if (i == 2) {
      dim = point.dim();
    } else if (point.dim() != dim) {
      return Err(std::string(name) + ": inconsistent dimensions");
    }
    cmd.points.push_back(std::move(point));
  }
  return cmd;
}

Result<Command> ParseFeedLine(const std::string& line) {
  const std::vector<std::string> tokens = SplitTokens(line);
  return ParseFeed(tokens, tokens[0] == "FEEDSTAMPED");
}

}  // namespace strtod_reference

/// Coordinate atoms around every boundary of the two number grammars.
const char* const kEdgeAtoms[] = {
    "+1", "+.5", "\v1", "\f1", "\r1", "0x1p3", "0X1P-3", "-0x1p3",
    "1e-310", "4.9e-324", "-4.9e-324", "2.2250738585072011e-308",
    "2.2250738585072012e-308", "2.2250738585072014e-308",
    "-2.2250738585072014e-308", "2.2250738585072015e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.8e308",
    "1e400", "-1e400", "0", "-0", "0.0", "0e-400", "00", "007", "inf",
    "-inf", "Infinity", "nan", "-nan", "nan(1)", "1.", ".5", "-.5", "1e",
    "1e+", "1e-", "e5", ".", "-", "--1", "1..2", "1e5", "1E5", "1e+05",
    "", "1 ", "1\v", "1x", "0.1e-307", "123456789012345678901234567890",
    "0.000000000000000000000000000001", "9007199254740993", "-1e-5",
    // Run-on numbers and stray separators: a single-pass scan must stop
    // on each of these and fall back to the piece, never split it.
    "1@2", "1e5x", "1.5.2", "1-2", "1e5e5", "0x", "1\t", "1\t2", "1\t \t",
};

std::string RandomCoordinate(Xoshiro256pp* rng) {
  char buf[64];
  switch (rng->NextBounded(6)) {
    case 0:
      return kEdgeAtoms[rng->NextBounded(std::size(kEdgeAtoms))];
    case 1: {
      // Any magnitude, subnormals and overflow included.
      const double mant = rng->NextDouble() * 2.0 - 1.0;
      const int exp = static_cast<int>(rng->NextBounded(660)) - 330;
      std::snprintf(buf, sizeof(buf), "%.17ge%d", mant, exp);
      return buf;
    }
    case 2:
      std::snprintf(buf, sizeof(buf), "%.6g",
                    (rng->NextDouble() - 0.5) * 2000.0);
      return buf;
    default:
      std::snprintf(buf, sizeof(buf), "%.17g",
                    (rng->NextDouble() - 0.5) * 200.0);
      return buf;
  }
}

std::string RandomStamp(Xoshiro256pp* rng) {
  static const char* const kBadStamps[] = {
      "", "+5", "-", "abc", "5x", "9223372036854775808",
      "-9223372036854775809", "\v5", "0x10", "1.5"};
  if (rng->NextBounded(8) == 0) {
    return kBadStamps[rng->NextBounded(std::size(kBadStamps))];
  }
  return std::to_string(static_cast<int64_t>(rng->NextBounded(2000000)) -
                        1000000);
}

std::string RandomFeedLine(Xoshiro256pp* rng) {
  const bool stamped = rng->NextBounded(2) == 0;
  const auto blank = [rng] {
    switch (rng->NextBounded(12)) {
      case 0: return std::string("\t");
      case 1: return std::string("  ");
      case 2: return std::string("\t \t");
      default: return std::string(" ");
    }
  };
  std::string line = stamped ? "FEEDSTAMPED" : "FEED";
  if (rng->NextBounded(50) == 0) return line;  // no tenant
  line += blank() + "t" + std::to_string(rng->NextBounded(4));
  const size_t points = rng->NextBounded(6);  // 0: no points
  const size_t dim = 1 + rng->NextBounded(5);
  for (size_t i = 0; i < points; ++i) {
    line += blank();
    if (stamped && rng->NextBounded(30) != 0) line += RandomStamp(rng) + "@";
    // A stray '@': a plain FEED's point, or a stamped token's second one.
    if (rng->NextBounded(40) == 0) line += RandomStamp(rng) + "@";
    const size_t d = rng->NextBounded(10) == 0 ? 1 + rng->NextBounded(6) : dim;
    for (size_t j = 0; j < d; ++j) {
      if (j > 0) line += rng->NextBounded(60) == 0 ? ",," : ",";
      line += RandomCoordinate(rng);
    }
    if (rng->NextBounded(40) == 0) line += ",";
  }
  if (rng->NextBounded(4) == 0) line += blank();
  return line;
}

void ExpectSameParse(const std::string& line) {
  const Result<Command> want = strtod_reference::ParseFeedLine(line);
  const Result<Command> got = ParseCommand(line);
  ASSERT_EQ(got.ok(), want.ok()) << line;
  if (!want.ok()) {
    ASSERT_EQ(got.status().message(), want.status().message()) << line;
    return;
  }
  const Command& a = got.value();
  const Command& b = want.value();
  ASSERT_EQ(a.type, b.type) << line;
  ASSERT_EQ(a.tenant, b.tenant) << line;
  ASSERT_EQ(a.stamps, b.stamps) << line;
  ASSERT_EQ(a.points.size(), b.points.size()) << line;
  for (size_t i = 0; i < a.points.size(); ++i) {
    ASSERT_EQ(a.points[i].dim(), b.points[i].dim()) << line;
    ASSERT_EQ(std::memcmp(a.points[i].data(), b.points[i].data(),
                          a.points[i].dim() * sizeof(double)),
              0)
        << line;
  }
}

TEST(ParseCommandTest, FeedMatchesStrtodReference) {
  Xoshiro256pp rng(0xFEED);
  size_t accepted = 0;
  for (int i = 0; i < 120000; ++i) {
    const std::string line = RandomFeedLine(&rng);
    ExpectSameParse(line);
    if (HasFatalFailure()) return;
    accepted += ParseCommand(line).ok() ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted, 20000u);
  EXPECT_LT(accepted, 100000u);

  // Every atom alone, as a whole point and behind a stamp.
  for (const char* atom : kEdgeAtoms) {
    ExpectSameParse(std::string("FEED t ") + atom);
    ExpectSameParse(std::string("FEED t 1,") + atom);
    ExpectSameParse(std::string("FEEDSTAMPED t 3@") + atom);
  }

  // A point ends at a tab as at a space, and any blank run may trail.
  for (const char* line :
       {"FEED t 1,2\t3,4", "FEED t 1,2\t3,4\t", "FEED t 1,2 \t3,4\t \t",
        "FEEDSTAMPED t 1@1,2\t2@3,4\t \t", "FEED t 1@2", "FEED t 1,2 1@2",
        "FEEDSTAMPED t 1@2@3", "FEEDSTAMPED t 1@2 3@4@5"}) {
    ExpectSameParse(line);
  }

  // The point-count bound wins over a bad (or mis-dimensioned) point.
  for (const char* first : {"x", "1,2", "7@1", "@"}) {
    for (bool stamped : {false, true}) {
      std::string line = stamped ? "FEEDSTAMPED t " : "FEED t ";
      line += first;
      for (size_t i = 0; i < kMaxPointsPerFeed; ++i) {
        line += stamped ? " 1@1" : " 1";
      }
      ExpectSameParse(line);
    }
  }
}

// --------------------------------------------------- server over sockets

struct ServerFixture {
  std::string path;
  std::unique_ptr<Server> server;

  explicit ServerFixture(const char* tag, size_t fleet_threads = 2) {
    path = TestSocketPath(tag);
    Server::Options options;
    options.unix_path = path;
    options.fleet_threads = fleet_threads;
    auto started = Server::Start(options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    if (started.ok()) server = std::move(started).value();
  }

  ~ServerFixture() {
    if (server != nullptr) server->Shutdown();
  }
};

TEST(ServeProtocolTest, PingErrorsAndUnknownCommands) {
  ServerFixture fx("ping");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(client.Command("PING"),
            std::vector<std::string>{"OK pong"});
  auto unknown = client.Command("BOGUS stuff");
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0].rfind("ERR", 0), 0u);

  // Feeding / querying a tenant that does not exist.
  EXPECT_EQ(client.Command("FEED nobody 1,2")[0].rfind("ERR", 0), 0u);
  EXPECT_EQ(client.Command("SAMPLE nobody")[0].rfind("ERR", 0), 0u);
  EXPECT_EQ(client.Command("CLOSE nobody")[0].rfind("ERR", 0), 0u);

  // Duplicate CREATE.
  EXPECT_EQ(client.Command("CREATE dup dim=2 alpha=0.5 window=10"),
            std::vector<std::string>{"OK"});
  EXPECT_EQ(client.Command("CREATE dup dim=2 alpha=0.5 window=10")[0].rfind(
                "ERR", 0),
            0u);

  // Wrong dimension and wrong feed verb for the mode.
  EXPECT_EQ(client.Command("FEED dup 1,2,3")[0].rfind("ERR", 0), 0u);
  EXPECT_EQ(client.Command("FEEDSTAMPED dup 1@1,2")[0].rfind("ERR", 0), 0u);

  // Sampling an empty window.
  EXPECT_EQ(client.Command("SAMPLE dup")[0].rfind("ERR", 0), 0u);

  // ckpt=1 without a checkpoint root.
  EXPECT_EQ(client.Command(
                "CREATE ck dim=2 alpha=0.5 window=10 ckpt=1")[0].rfind(
                "ERR", 0),
            0u);
}

TEST(ServeProtocolTest, PartialAndPipelinedFraming) {
  ServerFixture fx("frame");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());

  // One command dribbled in three raw writes.
  ASSERT_TRUE(client.SendRaw("PI"));
  ASSERT_TRUE(client.SendRaw("N"));
  ASSERT_TRUE(client.SendRaw("G\n"));
  EXPECT_EQ(client.ReadUnit(), std::vector<std::string>{"OK pong"});

  // Three commands pipelined in one write: responses come back in
  // command order.
  ASSERT_TRUE(client.SendRaw(
      "CREATE p dim=1 alpha=0.5 window=10\nFEED p 1 2 3\nSAMPLE p\n"));
  EXPECT_EQ(client.ReadUnit(), std::vector<std::string>{"OK"});
  EXPECT_EQ(client.ReadUnit(), std::vector<std::string>{"OK fed=3"});
  const auto sample = client.ReadUnit();
  ASSERT_EQ(sample.size(), 2u);
  EXPECT_EQ(sample[0].rfind("ITEM ", 0), 0u);
  EXPECT_EQ(sample[1], "OK");
}

TEST(ServeProtocolTest, OversizedLineGetsErrorAndConnectionSurvives) {
  std::string path = TestSocketPath("oversz");
  Server::Options options;
  options.unix_path = path;
  options.fleet_threads = 1;
  options.max_line_bytes = 128;
  auto started = Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();

  TestClient client(path);
  ASSERT_TRUE(client.connected());
  const std::string giant(1000, 'z');
  ASSERT_TRUE(client.SendRaw(giant + "\n"));
  const auto err = client.ReadUnit();
  ASSERT_EQ(err.size(), 1u);
  EXPECT_EQ(err[0].rfind("ERR", 0), 0u);
  // Same connection keeps working after the oversized line.
  EXPECT_EQ(client.Command("PING"), std::vector<std::string>{"OK pong"});
  started.value()->Shutdown();
}

TEST(ServeProtocolTest, TimeModeStampRegressionIsAnErrorNotACrash) {
  ServerFixture fx("regress");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(client.Command("CREATE tm dim=1 alpha=0.5 window=50 mode=time"),
            std::vector<std::string>{"OK"});
  EXPECT_EQ(client.Command("FEEDSTAMPED tm 10@1 20@2"),
            std::vector<std::string>{"OK fed=2"});
  // Regression across batches.
  EXPECT_EQ(client.Command("FEEDSTAMPED tm 15@3")[0].rfind("ERR", 0), 0u);
  // Regression inside one batch.
  EXPECT_EQ(client.Command("FEEDSTAMPED tm 30@4 25@5")[0].rfind("ERR", 0),
            0u);
  // The tenant survives and keeps accepting ordered batches.
  EXPECT_EQ(client.Command("FEEDSTAMPED tm 30@6"),
            std::vector<std::string>{"OK fed=1"});
}

// Clustered 2-d revisit stream: `groups` centers 10 apart with jitter.
std::vector<Point> Clustered(size_t n, size_t groups, uint64_t seed) {
  std::vector<Point> points;
  points.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed));
  for (size_t i = 0; i < n; ++i) {
    const double g = static_cast<double>(rng.NextBounded(groups));
    Point p(2);
    p[0] = 10.0 * g + 0.3 * (rng.NextDouble() - 0.5);
    p[1] = 10.0 * g + 0.3 * (rng.NextDouble() - 0.5);
    points.push_back(std::move(p));
  }
  return points;
}

/// %.17g coordinates so the server's strtod reconstructs the exact
/// doubles — the same trick rl0_client's feed path uses.
std::string CoordToken(const Point& p) {
  char buf[64];
  std::string out;
  for (size_t d = 0; d < p.dim(); ++d) {
    std::snprintf(buf, sizeof(buf), "%.17g", p[d]);
    if (d > 0) out += ',';
    out += buf;
  }
  return out;
}

/// Draws `q` CLI-style samples from a drained pool: fresh query rng
/// seeded exactly like `rl0_cli sample` / the server's SAMPLE.
std::vector<std::string> DirectSampleLines(ShardedSwSamplerPool* pool,
                                           uint64_t seed, int q) {
  Xoshiro256pp rng(SplitMix64(seed ^ kQuerySeedSalt));
  std::vector<std::string> lines;
  for (int i = 0; i < q; ++i) {
    const auto sample = pool->SampleLatest(&rng);
    if (!sample.has_value()) {
      lines.push_back("<empty>");
      continue;
    }
    lines.push_back("ITEM " +
                    FormatSampleLine(sample->point, sample->stream_index));
  }
  return lines;
}

TEST(ServeProtocolTest, SequenceModeSampleMatchesDirectPoolByteForByte) {
  const size_t kN = 4000;
  const uint64_t kSeed = 11;
  const auto points = Clustered(kN, 60, 5);

  ServerFixture fx("diffseq");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());
  char create[160];
  std::snprintf(create, sizeof(create),
                "CREATE d dim=2 alpha=0.8 window=600 shards=3 seed=%llu "
                "m=%zu",
                static_cast<unsigned long long>(kSeed), kN);
  ASSERT_EQ(client.Command(create), std::vector<std::string>{"OK"});

  // Feed in ragged chunks (prime stride) — chunking must be invisible.
  for (size_t offset = 0; offset < kN;) {
    const size_t end = std::min(kN, offset + 137);
    std::string feed = "FEED d";
    for (size_t i = offset; i < end; ++i) feed += " " + CoordToken(points[i]);
    const auto reply = client.Command(feed);
    ASSERT_EQ(reply.size(), 1u);
    ASSERT_EQ(reply[0].rfind("OK fed=", 0), 0u) << reply[0];
    offset = end;
  }

  // The reference pool: same options, dedicated pipeline threads (the
  // fleet-vs-dedicated determinism contract is part of the pin).
  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 0.8;
  opts.seed = kSeed;
  opts.expected_stream_length = kN;
  auto pool = ShardedSwSamplerPool::Create(opts, 600, 3);
  ASSERT_TRUE(pool.ok());
  pool.value().FeedBorrowed(
      Span<const Point>(points.data(), points.size()));
  pool.value().Drain();
  const auto expected = DirectSampleLines(&pool.value(), kSeed, 5);

  auto got = client.Command("SAMPLE d q=5");
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.back(), "OK");
  got.pop_back();
  EXPECT_EQ(got, expected);

  // A different query seed also matches.
  const auto expected99 = DirectSampleLines(&pool.value(), 99, 3);
  auto got99 = client.Command("SAMPLE d q=3 seed=99");
  ASSERT_EQ(got99.size(), 4u);
  got99.pop_back();
  EXPECT_EQ(got99, expected99);
}

TEST(ServeProtocolTest, TimeModeSampleMatchesDirectPoolByteForByte) {
  const size_t kN = 3000;
  const uint64_t kSeed = 23;
  const auto points = Clustered(kN, 50, 6);
  std::vector<int64_t> stamps(kN);
  Xoshiro256pp gaps(77);
  int64_t t = 0;
  for (size_t i = 0; i < kN; ++i) {
    t += static_cast<int64_t>(gaps.NextBounded(4));
    stamps[i] = t;
  }

  ServerFixture fx("difftime");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());
  char create[160];
  std::snprintf(create, sizeof(create),
                "CREATE d dim=2 alpha=0.8 window=900 mode=time shards=2 "
                "seed=%llu m=%zu",
                static_cast<unsigned long long>(kSeed), kN);
  ASSERT_EQ(client.Command(create), std::vector<std::string>{"OK"});

  char stamp[32];
  for (size_t offset = 0; offset < kN;) {
    const size_t end = std::min(kN, offset + 211);
    std::string feed = "FEEDSTAMPED d";
    for (size_t i = offset; i < end; ++i) {
      std::snprintf(stamp, sizeof(stamp), " %lld@",
                    static_cast<long long>(stamps[i]));
      feed += stamp + CoordToken(points[i]);
    }
    const auto reply = client.Command(feed);
    ASSERT_EQ(reply.size(), 1u);
    ASSERT_EQ(reply[0].rfind("OK fed=", 0), 0u) << reply[0];
    offset = end;
  }

  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 0.8;
  opts.seed = kSeed;
  opts.expected_stream_length = kN;
  auto pool = ShardedSwSamplerPool::Create(opts, 900, 2);
  ASSERT_TRUE(pool.ok());
  pool.value().FeedStamped(
      Span<const Point>(points.data(), points.size()),
      Span<const int64_t>(stamps.data(), stamps.size()));
  pool.value().Drain();
  const auto expected = DirectSampleLines(&pool.value(), kSeed, 4);

  auto got = client.Command("SAMPLE d q=4");
  ASSERT_EQ(got.size(), 5u);
  got.pop_back();
  EXPECT_EQ(got, expected);
}

TEST(ServeProtocolTest, LateModeSampleMatchesDirectPoolByteForByte) {
  const size_t kN = 3000;
  const uint64_t kSeed = 31;
  const int64_t kLateness = 40;
  const auto points = Clustered(kN, 50, 8);
  // Sorted stamps, then bounded disorder within the lateness budget.
  std::vector<int64_t> stamps(kN);
  Xoshiro256pp rng(123);
  int64_t t = 0;
  for (size_t i = 0; i < kN; ++i) {
    t += static_cast<int64_t>(rng.NextBounded(3));
    stamps[i] = t;
  }
  std::vector<int64_t> disordered = stamps;
  for (size_t i = 0; i < kN; ++i) {
    const int64_t back = static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(kLateness / 2)));
    disordered[i] = std::max<int64_t>(0, stamps[i] - back);
  }

  ServerFixture fx("difflate");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());
  char create[200];
  std::snprintf(create, sizeof(create),
                "CREATE d dim=2 alpha=0.8 window=900 mode=late "
                "lateness=%lld shards=2 seed=%llu m=%zu",
                static_cast<long long>(kLateness),
                static_cast<unsigned long long>(kSeed), kN);
  ASSERT_EQ(client.Command(create), std::vector<std::string>{"OK"});

  char stamp[32];
  for (size_t offset = 0; offset < kN;) {
    const size_t end = std::min(kN, offset + 173);
    std::string feed = "FEEDSTAMPED d";
    for (size_t i = offset; i < end; ++i) {
      std::snprintf(stamp, sizeof(stamp), " %lld@",
                    static_cast<long long>(disordered[i]));
      feed += stamp + CoordToken(points[i]);
    }
    const auto reply = client.Command(feed);
    ASSERT_EQ(reply.size(), 1u);
    ASSERT_EQ(reply[0].rfind("OK fed=", 0), 0u) << reply[0];
    offset = end;
  }
  ASSERT_EQ(client.Command("FLUSH d"), std::vector<std::string>{"OK"});

  SamplerOptions opts;
  opts.dim = 2;
  opts.alpha = 0.8;
  opts.seed = kSeed;
  opts.expected_stream_length = kN;
  opts.allowed_lateness = kLateness;
  auto pool = ShardedSwSamplerPool::Create(opts, 900, 2);
  ASSERT_TRUE(pool.ok());
  pool.value().FeedStampedLate(
      Span<const Point>(points.data(), points.size()),
      Span<const int64_t>(disordered.data(), disordered.size()));
  pool.value().FlushLate();
  pool.value().Drain();
  const auto expected = DirectSampleLines(&pool.value(), kSeed, 4);

  auto got = client.Command("SAMPLE d q=4");
  ASSERT_EQ(got.size(), 5u);
  got.pop_back();
  EXPECT_EQ(got, expected);
}

TEST(ServeProtocolTest, TenantsAreIsolated) {
  ServerFixture fx("isolate");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(client.Command("CREATE a dim=1 alpha=0.5 window=100 seed=1"),
            std::vector<std::string>{"OK"});
  ASSERT_EQ(client.Command("CREATE b dim=1 alpha=0.5 window=100 seed=1"),
            std::vector<std::string>{"OK"});
  ASSERT_EQ(client.Command("FEED a 10 20 30"),
            std::vector<std::string>{"OK fed=3"});
  ASSERT_EQ(client.Command("FEED b 1000 2000"),
            std::vector<std::string>{"OK fed=2"});

  // a's samples draw only from a's groups (values ≤ 30); b's only from
  // b's (values ≥ 1000).
  for (int trial = 0; trial < 5; ++trial) {
    char cmd[48];
    std::snprintf(cmd, sizeof(cmd), "SAMPLE a seed=%d", trial);
    const auto sa = client.Command(cmd);
    ASSERT_EQ(sa.size(), 2u);
    EXPECT_TRUE(sa[0].find("(10)") != std::string::npos ||
                sa[0].find("(20)") != std::string::npos ||
                sa[0].find("(30)") != std::string::npos)
        << sa[0];
    std::snprintf(cmd, sizeof(cmd), "SAMPLE b seed=%d", trial);
    const auto sb = client.Command(cmd);
    ASSERT_EQ(sb.size(), 2u);
    EXPECT_TRUE(sb[0].find("(1000)") != std::string::npos ||
                sb[0].find("(2000)") != std::string::npos)
        << sb[0];
  }

  // Closing a leaves b fully functional.
  ASSERT_EQ(client.Command("CLOSE a"), std::vector<std::string>{"OK"});
  EXPECT_EQ(client.Command("SAMPLE a seed=1")[0].rfind("ERR", 0), 0u);
  EXPECT_EQ(client.Command("SAMPLE b seed=1").size(), 2u);
}

TEST(ServeProtocolTest, StatsReportTenantsAndQuitEndsSession) {
  ServerFixture fx("stats");
  ASSERT_NE(fx.server, nullptr);
  TestClient client(fx.path);
  ASSERT_TRUE(client.connected());

  ASSERT_EQ(client.Command("CREATE s dim=1 alpha=0.5 window=10"),
            std::vector<std::string>{"OK"});
  ASSERT_EQ(client.Command("FEED s 1 2 3 4"),
            std::vector<std::string>{"OK fed=4"});

  const auto per_tenant = client.Command("STATS s");
  ASSERT_EQ(per_tenant.size(), 2u);
  EXPECT_NE(per_tenant[0].find("tenant=s"), std::string::npos);
  EXPECT_NE(per_tenant[0].find("points=4"), std::string::npos);
  EXPECT_NE(per_tenant[0].find("mode=seq"), std::string::npos);

  const auto global = client.Command("STATS");
  ASSERT_EQ(global.size(), 2u);
  EXPECT_NE(global[0].find("tenants=1"), std::string::npos);

  EXPECT_EQ(client.Command("QUIT"), std::vector<std::string>{"OK bye"});
  // Server closed the connection: the next read hits EOF.
  const auto after = client.ReadUnit(2000);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], "<io error>");
}

}  // namespace
}  // namespace serve
}  // namespace rl0
