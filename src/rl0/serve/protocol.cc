#include "rl0/serve/protocol.h"

#include <algorithm>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>

namespace rl0 {
namespace serve {

LineDecoder::LineDecoder(size_t max_line_bytes)
    : max_line_bytes_(max_line_bytes < 16 ? 16 : max_line_bytes) {}

void LineDecoder::Append(const char* data, size_t n) {
  const char* const end = data + n;
  while (data != end) {
    const char* const newline = static_cast<const char*>(
        std::memchr(data, '\n', static_cast<size_t>(end - data)));
    const char* const stop = newline != nullptr ? newline : end;
    if (discarding_) {
      // Inside an oversized line: drop bytes through its newline. The
      // notice was queued when the limit was crossed, so memory stays
      // bounded even if the newline never comes.
      if (newline == nullptr) return;
      discarding_ = false;
      data = newline + 1;
      continue;
    }
    const size_t span = static_cast<size_t>(stop - data);
    if (buffered_bytes() + span > max_line_bytes_) {
      // Some byte before the newline crosses the limit ('\r' included:
      // CRLF is trimmed only from a complete line). Queue the notice
      // now and discard the rest of the line.
      buf_.resize(partial_begin_);
      events_.push_back({true, 0, 0});
      discarding_ = true;
      data = stop;
      continue;
    }
    buf_.append(data, span);
    if (newline == nullptr) return;
    size_t size = buf_.size() - partial_begin_;
    if (size > 0 && buf_.back() == '\r') --size;  // tolerate CRLF
    events_.push_back({false, partial_begin_, size});
    partial_begin_ = buf_.size();
    data = newline + 1;
  }
}

LineDecoder::Event LineDecoder::Next(std::string* line) {
  if (next_event_ == events_.size()) return Event::kNone;
  const Pending event = events_[next_event_++];
  if (!event.oversized) line->assign(buf_, event.begin, event.size);
  if (next_event_ == events_.size()) {
    // Every decoded line is handed out: keep only the partial line, at
    // the front of a buffer that keeps its capacity.
    buf_.erase(0, partial_begin_);
    partial_begin_ = 0;
    events_.clear();
    next_event_ = 0;
  }
  return event.oversized ? Event::kOversized : Event::kLine;
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (name[0] == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string FormatSampleLine(const Point& point, uint64_t stream_index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  # stream position %llu",
                static_cast<unsigned long long>(stream_index));
  return point.ToString() + buf;
}

namespace {

// Strict numeric parsing, mirroring stream/csv.cc: errno reset, full
// token consumed, range-checked, and (for doubles) finite. Any deviation
// is a parse error, never a silently-clamped value.

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

bool ParseU64Token(const std::string& tok, uint64_t* out) {
  if (tok.empty() || tok[0] == '-' || tok[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (end != tok.c_str() + tok.size()) return false;
  if (errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
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

/// Space/tab-separated tokens of a line, scanned in place.
class TokenScanner {
 public:
  explicit TokenScanner(std::string_view s) : s_(s) {}

  /// The next token, or false at the end of the line.
  bool Next(std::string_view* tok) {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
    const size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ' ' && s_[i_] != '\t') ++i_;
    *tok = s_.substr(start, i_ - start);
    return i_ > start;
  }

 private:
  std::string_view s_;
  size_t i_ = 0;
};

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  TokenScanner scanner(line);
  std::string_view tok;
  while (scanner.Next(&tok)) tokens.emplace_back(tok);
  return tokens;
}

Status Err(const std::string& msg) { return Status::InvalidArgument(msg); }

/// Parses one coordinate [b, e) under ParseDoubleToken's rule, without
/// a string copy on the common path. std::from_chars rounds correctly, as
/// strtod does, but the two accept different languages: from_chars
/// rejects a leading '+', leading '\v' '\f' '\r' and hex floats, which
/// strtod accepts; it accepts subnormals and inputs that round up to
/// DBL_MIN, which glibc's strtod rejects with ERANGE. So from_chars
/// decides only a span that starts with [-.0-9], is consumed entirely and
/// yields a normal |v| > DBL_MIN — there both agree on acceptance and
/// value. Everything else takes the strtod rule itself. (A conforming
/// from_chars already fails, or yields inf/nan, on every span the
/// first-byte test screens out; the test keeps the split from resting on
/// that.)
bool ParseCoordinate(const char* b, const char* e, double* out) {
  if (b != e && (*b == '-' || *b == '.' || (*b >= '0' && *b <= '9'))) {
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(b, e, v);
    if (r.ec == std::errc() && r.ptr == e && std::isnormal(v) &&
        std::fabs(v) > DBL_MIN) {
      *out = v;
      return true;
    }
  }
  return ParseDoubleToken(std::string(b, e), out);
}

/// Appends the coordinates of "x,y,z" (any dimension, no empty piece)
/// to `coords`.
bool ParseCoordinates(std::string_view tok, std::vector<double>* coords) {
  const char* b = tok.data();
  const char* const end = b + tok.size();
  for (;;) {
    const char* comma = b;
    while (comma != end && *comma != ',') ++comma;
    double v;
    if (!ParseCoordinate(b, comma, &v)) return false;
    coords->push_back(v);
    if (comma == end) return true;
    b = comma + 1;
  }
}

/// Splits "key=value"; returns false when there is no '=' or empty key.
bool SplitKeyValue(const std::string& tok, std::string* key,
                   std::string* value) {
  const size_t eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  key->assign(tok, 0, eq);
  value->assign(tok, eq + 1, tok.size() - eq - 1);
  return true;
}

Result<Command> ParseCreate(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.type = CommandType::kCreate;
  if (tokens.size() < 2) return Err("CREATE: missing tenant name");
  cmd.tenant = tokens[1];
  if (!ValidTenantName(cmd.tenant)) {
    return Err("CREATE: bad tenant name (want [A-Za-z0-9_.-]{1,64})");
  }
  CreateParams& p = cmd.create;
  bool have_dim = false, have_alpha = false, have_window = false;
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Err("CREATE: expected key=value, got '" + tokens[i] + "'");
    }
    uint64_t u = 0;
    double d = 0.0;
    int64_t s = 0;
    if (key == "dim") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("CREATE: bad dim");
      }
      p.dim = static_cast<size_t>(u);
      have_dim = true;
    } else if (key == "alpha") {
      if (!ParseDoubleToken(value, &d) || d <= 0.0) {
        return Err("CREATE: bad alpha");
      }
      p.alpha = d;
      have_alpha = true;
    } else if (key == "window") {
      if (!ParseI64Token(value, &s) || s <= 0) {
        return Err("CREATE: bad window");
      }
      p.window = s;
      have_window = true;
    } else if (key == "mode") {
      if (value == "seq") {
        p.mode = TenantMode::kSequence;
      } else if (value == "time") {
        p.mode = TenantMode::kTime;
      } else if (value == "late") {
        p.mode = TenantMode::kLate;
      } else {
        return Err("CREATE: bad mode (want seq|time|late)");
      }
    } else if (key == "lateness") {
      if (!ParseI64Token(value, &s) || s < 0) {
        return Err("CREATE: bad lateness");
      }
      p.lateness = s;
    } else if (key == "shards") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 256) {
        return Err("CREATE: bad shards");
      }
      p.shards = static_cast<size_t>(u);
    } else if (key == "seed") {
      if (!ParseU64Token(value, &u)) return Err("CREATE: bad seed");
      p.seed = u;
    } else if (key == "metric") {
      if (value == "l2") {
        p.metric = Metric::kL2;
      } else if (value == "l1") {
        p.metric = Metric::kL1;
      } else if (value == "linf") {
        p.metric = Metric::kLinf;
      } else {
        return Err("CREATE: bad metric (want l2|l1|linf)");
      }
    } else if (key == "m") {
      if (!ParseU64Token(value, &u) || u == 0) return Err("CREATE: bad m");
      p.expected_m = u;
    } else if (key == "k") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("CREATE: bad k");
      }
      p.k = static_cast<size_t>(u);
    } else if (key == "reservoir") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad reservoir (want 0|1)");
      }
      p.reservoir = u != 0;
    } else if (key == "filter") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad filter (want 0|1)");
      }
      p.filter = u != 0;
    } else if (key == "ckpt") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad ckpt (want 0|1)");
      }
      p.checkpoint = u != 0;
    } else if (key == "every") {
      if (!ParseU64Token(value, &u)) return Err("CREATE: bad every");
      p.checkpoint_every = u;
    } else if (key == "recover") {
      if (!ParseU64Token(value, &u) || u > 1) {
        return Err("CREATE: bad recover (want 0|1)");
      }
      p.recover = u != 0;
    } else {
      return Err("CREATE: unknown option '" + key + "'");
    }
  }
  if (!have_dim) return Err("CREATE: missing dim=");
  if (!have_alpha) return Err("CREATE: missing alpha=");
  if (!have_window) return Err("CREATE: missing window=");
  if (p.mode == TenantMode::kLate && p.lateness <= 0) {
    return Err("CREATE: mode=late requires lateness>0");
  }
  if (p.mode != TenantMode::kLate && p.lateness != 0) {
    return Err("CREATE: lateness= requires mode=late");
  }
  if (p.recover) p.checkpoint = true;
  return cmd;
}

/// FEED / FEEDSTAMPED, scanned in place from the token after the verb:
/// no string per token, one coordinate vector per point. Checks run in
/// the order of the token rule they replace — the point count before any
/// point, each whole point before its dimension check.
Result<Command> ParseFeed(TokenScanner scanner, bool stamped) {
  Command cmd;
  cmd.type = stamped ? CommandType::kFeedStamped : CommandType::kFeed;
  const std::string name = stamped ? "FEEDSTAMPED" : "FEED";
  std::string_view tok;
  if (!scanner.Next(&tok)) return Err(name + ": missing tenant name");
  cmd.tenant.assign(tok);
  const TokenScanner points_start = scanner;
  size_t count = 0;
  while (count <= kMaxPointsPerFeed && scanner.Next(&tok)) ++count;
  if (count == 0) return Err(name + ": no points");
  if (count > kMaxPointsPerFeed) {
    return Err(name + ": too many points in one command");
  }
  cmd.points.reserve(count);
  if (stamped) cmd.stamps.reserve(count);
  scanner = points_start;
  size_t dim = 0;
  while (scanner.Next(&tok)) {
    std::string_view coords_tok = tok;
    if (stamped) {
      const size_t at = tok.find('@');
      if (at == std::string_view::npos) {
        return Err("FEEDSTAMPED: expected stamp@coords, got '" +
                   std::string(tok) + "'");
      }
      int64_t stamp;
      if (!ParseI64Token(std::string(tok.substr(0, at)), &stamp)) {
        return Err("FEEDSTAMPED: bad stamp in '" + std::string(tok) + "'");
      }
      // No ordering check here: whether disorder is legal depends on
      // the tenant's mode (late tolerates it, time does not), which the
      // stateless parser cannot know. The registry enforces it.
      cmd.stamps.push_back(stamp);
      coords_tok.remove_prefix(at + 1);
    }
    std::vector<double> coords;
    // Sized once: the first point by its commas, the rest by its dim.
    coords.reserve(cmd.points.empty()
                       ? 1 + static_cast<size_t>(std::count(
                                 coords_tok.begin(), coords_tok.end(), ','))
                       : dim);
    if (!ParseCoordinates(coords_tok, &coords)) {
      return Err(name + ": bad point '" + std::string(tok) + "'");
    }
    if (cmd.points.empty()) {
      dim = coords.size();
    } else if (coords.size() != dim) {
      return Err(name + ": inconsistent dimensions");
    }
    cmd.points.emplace_back(std::move(coords));
  }
  return cmd;
}

Result<Command> ParseSample(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.type = CommandType::kSample;
  if (tokens.size() < 2) return Err("SAMPLE: missing tenant name");
  cmd.tenant = tokens[1];
  for (size_t i = 2; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Err("SAMPLE: expected key=value, got '" + tokens[i] + "'");
    }
    uint64_t u = 0;
    if (key == "q") {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("SAMPLE: bad q");
      }
      cmd.queries = static_cast<int>(u);
    } else if (key == "seed") {
      if (!ParseU64Token(value, &u)) return Err("SAMPLE: bad seed");
      cmd.seed = u;
      cmd.seed_set = true;
    } else {
      return Err("SAMPLE: unknown option '" + key + "'");
    }
  }
  return cmd;
}

Result<Command> ParseSubscribe(const std::vector<std::string>& tokens) {
  Command cmd;
  cmd.type = CommandType::kSubscribe;
  if (tokens.size() < 3) {
    return Err("SUBSCRIBE: want SUBSCRIBE <tenant> digest|f0|churn ...");
  }
  cmd.tenant = tokens[1];
  const std::string& kind = tokens[2];
  if (kind == "digest") {
    cmd.query = QueryKind::kDigest;
  } else if (kind == "f0") {
    cmd.query = QueryKind::kF0;
  } else if (kind == "churn") {
    cmd.query = QueryKind::kChurn;
  } else {
    return Err("SUBSCRIBE: bad kind (want digest|f0|churn)");
  }
  bool have_every = false, have_threshold = false;
  for (size_t i = 3; i < tokens.size(); ++i) {
    std::string key, value;
    if (!SplitKeyValue(tokens[i], &key, &value)) {
      return Err("SUBSCRIBE: expected key=value, got '" + tokens[i] + "'");
    }
    uint64_t u = 0;
    double d = 0.0;
    if (key == "every") {
      // The registry stores fire cadences as int64 stream positions;
      // every > INT64_MAX would wrap negative and break trigger math.
      if (!ParseU64Token(value, &u) || u == 0 ||
          u > static_cast<uint64_t>(
                  std::numeric_limits<int64_t>::max())) {
        return Err("SUBSCRIBE: bad every");
      }
      cmd.every = u;
      have_every = true;
    } else if (key == "q" && cmd.query == QueryKind::kDigest) {
      if (!ParseU64Token(value, &u) || u == 0 || u > 4096) {
        return Err("SUBSCRIBE: bad q");
      }
      cmd.queries = static_cast<int>(u);
    } else if (key == "seed" && cmd.query == QueryKind::kDigest) {
      if (!ParseU64Token(value, &u)) return Err("SUBSCRIBE: bad seed");
      cmd.seed = u;
      cmd.seed_set = true;
    } else if (key == "threshold" && cmd.query == QueryKind::kChurn) {
      if (!ParseDoubleToken(value, &d) || d < 0.0) {
        return Err("SUBSCRIBE: bad threshold");
      }
      cmd.threshold = d;
      have_threshold = true;
    } else {
      return Err("SUBSCRIBE: unknown option '" + key + "'");
    }
  }
  if (!have_every) return Err("SUBSCRIBE: missing every=");
  if (cmd.query == QueryKind::kChurn && !have_threshold) {
    return Err("SUBSCRIBE: churn requires threshold=");
  }
  return cmd;
}

}  // namespace

Result<Command> ParseCommand(const std::string& line) {
  // Peek the verb: FEED lines, the bulk of the traffic, are scanned in
  // place; every other command is tokenized.
  TokenScanner scanner(line);
  std::string_view peek;
  if (scanner.Next(&peek)) {
    if (peek == "FEED") return ParseFeed(scanner, /*stamped=*/false);
    if (peek == "FEEDSTAMPED") return ParseFeed(scanner, /*stamped=*/true);
  }
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) return Err("empty command");
  const std::string& verb = tokens[0];
  if (verb == "PING") {
    Command cmd;
    cmd.type = CommandType::kPing;
    if (tokens.size() != 1) return Err("PING takes no arguments");
    return cmd;
  }
  if (verb == "QUIT") {
    Command cmd;
    cmd.type = CommandType::kQuit;
    if (tokens.size() != 1) return Err("QUIT takes no arguments");
    return cmd;
  }
  if (verb == "CREATE") return ParseCreate(tokens);
  if (verb == "SAMPLE") return ParseSample(tokens);
  if (verb == "SUBSCRIBE") return ParseSubscribe(tokens);
  if (verb == "UNSUBSCRIBE") {
    Command cmd;
    cmd.type = CommandType::kUnsubscribe;
    if (tokens.size() != 3) {
      return Err("UNSUBSCRIBE: want UNSUBSCRIBE <tenant> <sub-id>");
    }
    cmd.tenant = tokens[1];
    if (!ParseU64Token(tokens[2], &cmd.sub_id)) {
      return Err("UNSUBSCRIBE: bad sub-id");
    }
    return cmd;
  }
  if (verb == "F0" || verb == "FLUSH" || verb == "CLOSE") {
    Command cmd;
    cmd.type = verb == "F0"      ? CommandType::kF0
               : verb == "FLUSH" ? CommandType::kFlush
                                 : CommandType::kClose;
    if (tokens.size() != 2) {
      return Err(verb + ": want " + verb + " <tenant>");
    }
    cmd.tenant = tokens[1];
    return cmd;
  }
  if (verb == "STATS") {
    Command cmd;
    cmd.type = CommandType::kStats;
    if (tokens.size() > 2) return Err("STATS: want STATS [<tenant>]");
    if (tokens.size() == 2) cmd.tenant = tokens[1];
    return cmd;
  }
  return Err("unknown command '" + verb + "'");
}

}  // namespace serve
}  // namespace rl0
