// Line protocol of the standing-query streaming server (rl0_serve).
//
// The wire format is line-oriented text over a byte stream (unix or TCP
// socket): commands are single '\n'-terminated lines ('\r\n' tolerated),
// ASCII tokens separated by single spaces. Every command elicits zero or
// more data lines (ITEM/STAT) followed by exactly one status line — `OK
// [key=value ...]` or `ERR <message>` — in command order per connection.
// Standing-query output (EVENT blocks, see registry.h) is asynchronous:
// an EVENT block may appear between two responses, never inside one.
//
// Commands:
//   PING
//   CREATE <tenant> dim=D alpha=A window=W [mode=seq|time|late]
//          [lateness=L] [shards=S] [seed=N] [metric=l2|l1|linf] [m=M]
//          [k=K] [reservoir=0|1] [filter=0|1] [ckpt=1 [every=N]]
//          [recover=1]
//   FEED <tenant> <x,y,...> [<x,y,...> ...]          (sequence mode)
//   FEEDSTAMPED <tenant> <stamp>@<x,y,...> [...]     (time/late modes)
//   SAMPLE <tenant> [q=N] [seed=S]
//   F0 <tenant>
//   SUBSCRIBE <tenant> digest every=N [q=K] [seed=S]
//   SUBSCRIBE <tenant> f0 every=N
//   SUBSCRIBE <tenant> churn every=N threshold=T
//   UNSUBSCRIBE <tenant> <sub-id>
//   FLUSH <tenant>
//   STATS [<tenant>]
//   CLOSE <tenant>
//   QUIT
//
// CREATE accepts filter=0|1 but ignores it: no sampler has a
// duplicate-suppression front-end (core/dup_filter.h).
//
// This header is the pure, socket-free half: a LineDecoder that turns
// arbitrary byte arrivals (partial reads, pipelined commands, oversized
// garbage) into complete lines, and ParseCommand, which turns one line
// into a validated Command or a parse error. Both are deliberately
// total functions of their input — any byte sequence yields lines +
// oversize notices, any line yields a Command or a Status, never a
// crash — which is what the fuzz battery pins
// (tests/fuzz_robustness_test.cc).

#ifndef RL0_SERVE_PROTOCOL_H_
#define RL0_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "rl0/core/options.h"
#include "rl0/geom/metric.h"
#include "rl0/geom/point.h"
#include "rl0/util/status.h"

namespace rl0 {
namespace serve {

/// The query-rng salt shared with rl0_cli: SAMPLE draws with
/// Xoshiro256pp(SplitMix64(seed ^ kQuerySeedSalt)), so a server tenant
/// and a one-shot CLI run over the same stream produce byte-identical
/// samples (the CI smoke step diffs them).
constexpr uint64_t kQuerySeedSalt = 0x5175657279ULL;  // "Query"

/// Splits a raw byte stream into protocol lines. Handles partial reads
/// (bytes accumulate until a '\n'), pipelined input (many lines per
/// Append), and oversized lines (beyond `max_line_bytes` the line's
/// bytes are discarded through its terminating newline and ONE
/// kOversized event is reported, so the connection can answer with a
/// parseable error and stay in sync). A trailing '\r' counts toward
/// `max_line_bytes`; it is trimmed (CRLF) only from a complete line.
///
/// Append finds line ends with memchr and copies whole spans into one
/// buffer whose capacity persists across lines, so a long FEED line
/// costs a bulk copy in and one out (Next), not a per-byte append.
class LineDecoder {
 public:
  explicit LineDecoder(size_t max_line_bytes);

  /// Appends bytes read from the wire.
  void Append(const char* data, size_t n);

  enum class Event {
    kNone,       ///< No complete line buffered.
    kLine,       ///< *line is the next complete line (no terminator).
    kOversized,  ///< An oversized line was discarded (*line untouched).
  };

  /// Pulls the next event, in wire order (an oversized notice is
  /// sequenced exactly where the discarded line sat between its
  /// neighbours). Call until kNone after every Append. A kLine assigns
  /// into *line, so a caller that reuses one string keeps its capacity.
  Event Next(std::string* line);

  /// Bytes of the unterminated partial line currently buffered (bounded
  /// by max_line_bytes regardless of what the peer sends).
  size_t buffered_bytes() const { return buf_.size() - partial_begin_; }

 private:
  /// A decoded event: an oversize notice, or the line
  /// buf_[begin, begin + size).
  struct Pending {
    bool oversized;
    size_t begin;
    size_t size;
  };

  /// The bytes of the lines Next has not handed out yet, followed by the
  /// partial line from partial_begin_ on. Emptied (capacity kept) once
  /// Next hands out the last pending event.
  std::string buf_;
  size_t partial_begin_ = 0;
  size_t max_line_bytes_;
  /// Inside an oversized line: discard through the next '\n'.
  bool discarding_ = false;
  /// Decoded events in wire order; events_[next_event_] is the next one.
  std::vector<Pending> events_;
  size_t next_event_ = 0;
};

/// What a parsed command asks for.
enum class CommandType {
  kPing,
  kCreate,
  kFeed,
  kFeedStamped,
  kSample,
  kF0,
  kSubscribe,
  kUnsubscribe,
  kFlush,
  kStats,
  kClose,
  kQuit,
};

/// The tenant's stamp semantics (ShardedSwSamplerPool modes).
enum class TenantMode : uint8_t { kSequence = 0, kTime = 1, kLate = 2 };

/// Standing-query flavours.
enum class QueryKind : uint8_t { kDigest = 0, kF0 = 1, kChurn = 2 };

/// CREATE parameters (defaults match rl0_cli's sample defaults, so a
/// server tenant reproduces a CLI run bit-for-bit).
struct CreateParams {
  size_t dim = 0;
  double alpha = 0.0;
  int64_t window = 0;
  TenantMode mode = TenantMode::kSequence;
  int64_t lateness = 0;
  size_t shards = 1;
  uint64_t seed = 0;
  Metric metric = Metric::kL2;
  /// expected_stream_length (SamplerOptions::expected_stream_length —
  /// part of the accept-cap derivation, so the CLI diff requires it).
  uint64_t expected_m = uint64_t{1} << 20;
  size_t k = 1;
  bool reservoir = false;
  /// The CREATE key filter= — parsed and validated, then ignored (see
  /// the grammar note above).
  bool filter = true;
  /// Checkpoint this tenant under <checkpoint-root>/<tenant> (requires
  /// the server to be started with a checkpoint root).
  bool checkpoint = false;
  /// Checkpoint cadence: a full cut every N fed points (0 = cuts only
  /// at CREATE, FLUSH and CLOSE).
  uint64_t checkpoint_every = 0;
  /// Recover the tenant from its checkpoint directory instead of
  /// starting empty (implies checkpoint).
  bool recover = false;
};

/// One parsed protocol command.
struct Command {
  CommandType type = CommandType::kPing;
  std::string tenant;
  CreateParams create;
  /// kFeed / kFeedStamped payload.
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  /// kSample / digest subscriptions.
  int queries = 1;
  uint64_t seed = 0;
  bool seed_set = false;
  /// kSubscribe.
  QueryKind query = QueryKind::kDigest;
  uint64_t every = 0;
  double threshold = 0.0;
  /// kUnsubscribe.
  uint64_t sub_id = 0;
};

/// Maximum points per FEED/FEEDSTAMPED line (keeps a single command's
/// allocation bounded independently of max_line_bytes).
constexpr size_t kMaxPointsPerFeed = 65536;

/// Tenant names: [A-Za-z0-9_.-]{1,64}, no leading '.' (names double as
/// checkpoint directory components).
bool ValidTenantName(const std::string& name);

/// Parses one protocol line into a Command. Total: every input yields a
/// Command or an InvalidArgument status with a one-line message (which
/// the server relays verbatim as `ERR <message>`).
Result<Command> ParseCommand(const std::string& line);

/// Formats one sample line exactly as rl0_cli prints it:
/// "<coords>  # stream position <idx>". The ITEM data lines and the CI
/// smoke diff both build on this.
std::string FormatSampleLine(const Point& point, uint64_t stream_index);

}  // namespace serve
}  // namespace rl0

#endif  // RL0_SERVE_PROTOCOL_H_
