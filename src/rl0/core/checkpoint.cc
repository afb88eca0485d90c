#include "rl0/core/checkpoint.h"

#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "rl0/core/snapshot.h"
#include "rl0/util/serialize.h"

namespace rl0 {

namespace {

// Full-snapshot framing — must mirror core/snapshot.cc exactly: deltas
// fold into blobs that are byte-identical to SnapshotSamplerSW output,
// checksum included.
constexpr char kSnapMagicSW[8] = {'R', 'L', '0', 'S', 'N', 'P', 'W', '\0'};
constexpr uint32_t kSnapVersion = 2;
/// Byte length of the PutOptions encoding (core/snapshot.cc).
constexpr size_t kOptionsBytes = 72;
/// Offset of the options block (after magic + version) in a full blob.
constexpr size_t kOptionsOffset = 8 + 4;

constexpr char kDeltaMagic[8] = {'R', 'L', '0', 'D', 'L', 'T', 'A', '\0'};
constexpr uint32_t kDeltaVersion = 1;
/// Delta kind byte. Sliding-window deltas are the only kind; 1 (the
/// retired infinite-window delta) is never written and always rejected.
constexpr uint8_t kKindSW = 2;

constexpr char kPoolMagic[8] = {'R', 'L', '0', 'C', 'K', 'P', 'T', '\0'};
constexpr char kPoolDeltaMagic[8] = {'R', 'L', '0', 'C', 'K', 'P', 'D',
                                     '\0'};
/// Version 2 added the reorder stage's lateness bound to the header;
/// version-1 checkpoints are rejected.
constexpr uint32_t kPoolVersion = 2;

constexpr char kJournalMagic[8] = {'R', 'L', '0', 'J', 'R', 'N', 'L', '\0'};
constexpr uint32_t kJournalVersion = 1;
/// Per-record sync marker ("JREC" little-endian).
constexpr uint32_t kRecordMarker = 0x4345524AU;
/// Record bytes before the payload: marker, type, seq, index base, count.
constexpr size_t kRecordFixedBytes = 4 + 1 + 8 + 8 + 8;

/// Upper bound on a believable point dimension in any header field —
/// rejects counts that would make per-record sizes overflow.
constexpr uint64_t kMaxDim = uint64_t{1} << 20;

/// Bounds-checked forward cursor over a byte string — the record-walking
/// workhorse of the fold paths (BinaryReader cannot skip or report its
/// position).
struct Cursor {
  const std::string& s;
  size_t pos = 0;

  size_t remaining() const { return s.size() - pos; }
  bool Need(size_t n) const { return n <= remaining(); }
  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) { return Raw(v, 4); }
  bool U64(uint64_t* v) { return Raw(v, 8); }
  bool I64(int64_t* v) { return Raw(v, 8); }
  bool Skip(size_t n) {
    if (!Need(n)) return false;
    pos += n;
    return true;
  }
  bool Raw(void* out, size_t n) {
    if (!Need(n)) return false;
    std::memcpy(out, s.data() + pos, n);
    pos += n;
    return true;
  }
};

/// Reads the dimension field (first u64 of the options block) of a full
/// sampler blob payload.
Status BlobDim(const std::string& payload, size_t* dim) {
  if (payload.size() < kOptionsOffset + 8) {
    return Status::InvalidArgument("snapshot too small");
  }
  uint64_t dim64 = 0;
  std::memcpy(&dim64, payload.data() + kOptionsOffset, sizeof(dim64));
  if (dim64 == 0 || dim64 > kMaxDim) {
    return Status::InvalidArgument("bad dimension in snapshot");
  }
  *dim = static_cast<size_t>(dim64);
  return Status::OK();
}

/// Checks a full SW blob's magic + version for delta folding (deltas are
/// only cut against version-2 fulls, which SnapshotSamplerFullSW always
/// writes). Any other blob — an infinite-window snapshot included — is
/// rejected.
Status CheckFullHeader(const std::string& payload) {
  if (payload.size() < kOptionsOffset + kOptionsBytes) {
    return Status::InvalidArgument("base snapshot too small");
  }
  if (std::memcmp(payload.data(), kSnapMagicSW, 8) != 0) {
    return Status::InvalidArgument("base is not the expected snapshot kind");
  }
  uint32_t version = 0;
  std::memcpy(&version, payload.data() + 8, sizeof(version));
  if (version != kSnapVersion) {
    return Status::InvalidArgument("unsupported base version for delta");
  }
  return Status::OK();
}

/// Walks one serialized SW group record starting at `cur`, returning its
/// id and byte length. The record layout is fixed except for the
/// reservoir tail.
bool WalkSwRecord(Cursor* cur, size_t dim, uint64_t* id, size_t* length) {
  const size_t start = cur->pos;
  const size_t fixed = 8 + 8 + 8 + 1 + 16 * dim + 8 + 8;
  if (!cur->Need(fixed + 8)) return false;
  std::memcpy(id, cur->s.data() + start, sizeof(*id));
  cur->pos = start + fixed;
  uint64_t candidates = 0;
  if (!cur->U64(&candidates)) return false;
  const size_t candidate_bytes = 24 + 8 * dim;
  if (candidates > cur->remaining() / candidate_bytes) return false;
  if (!cur->Skip(candidates * candidate_bytes)) return false;
  *length = cur->pos - start;
  return true;
}

}  // namespace

uint64_t SnapshotChainChecksum(const std::string& blob) {
  if (blob.size() < sizeof(uint64_t)) return 0;
  uint64_t checksum = 0;
  std::memcpy(&checksum, blob.data() + blob.size() - sizeof(checksum),
              sizeof(checksum));
  return checksum;
}

// ------------------------------------------------- sliding-window deltas

Status SnapshotSamplerFullSW(RobustL0SamplerSW* sampler, std::string* out) {
  if (Status st = SnapshotSamplerSW(*sampler, out); !st.ok()) return st;
  for (auto& level : sampler->levels_) level->MarkCheckpoint();
  return Status::OK();
}

Status SnapshotSamplerDeltaSW(RobustL0SamplerSW* sampler,
                              uint64_t base_checksum, std::string* out) {
  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kDeltaMagic, sizeof(kDeltaMagic));
  writer.PutU32(kDeltaVersion);
  writer.PutU8(kKindSW);
  writer.PutU64(base_checksum);
  writer.PutU64(*sampler->id_counter_);
  writer.PutU64(sampler->points_processed_);
  writer.PutI64(sampler->latest_stamp_);
  writer.PutU64(sampler->error_count_);
  writer.PutU64(sampler->stuck_split_count_);
  writer.PutU64(sampler->meter_.peak());
  writer.PutU64(sampler->levels_.size());
  std::vector<GroupRecord> dirty;
  std::vector<uint64_t> live_ids;
  for (auto& level : sampler->levels_) {
    dirty.clear();
    live_ids.clear();
    level->SnapshotDirtyGroups(&dirty, &live_ids);
    writer.PutU64(dirty.size());
    for (const GroupRecord& g : dirty) PutSwGroupRecord(&writer, g);
    writer.PutU64(live_ids.size());
    for (uint64_t id : live_ids) writer.PutU64(id);
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  for (auto& level : sampler->levels_) level->MarkCheckpoint();
  return Status::OK();
}

Status ApplySamplerDeltaSW(const std::string& base, const std::string& delta,
                           std::string* out) {
  Result<std::string> base_payload_r = CheckedPayload(base);
  if (!base_payload_r.ok()) return base_payload_r.status();
  const std::string base_payload = std::move(base_payload_r).value();
  if (Status st = CheckFullHeader(base_payload); !st.ok()) {
    return st;
  }
  size_t dim = 0;
  if (Status st = BlobDim(base_payload, &dim); !st.ok()) return st;

  // Walk the base: window + six scalars, then per-level record blocks,
  // indexing every record by id within its level. (Groups move between
  // levels only through split promotion, which marks them dirty at the
  // destination — a clean live id is always found at its base level.)
  Cursor bc{base_payload, kOptionsOffset + kOptionsBytes};
  int64_t window = 0;
  if (!bc.I64(&window) || !bc.Skip(6 * 8)) {
    return Status::InvalidArgument("base snapshot truncated");
  }
  uint64_t level_count = 0;
  if (!bc.U64(&level_count) || level_count > 64) {
    return Status::InvalidArgument("bad level count in base");
  }
  std::vector<std::unordered_map<uint64_t, std::pair<size_t, size_t>>>
      base_records(level_count);
  for (uint64_t l = 0; l < level_count; ++l) {
    uint64_t group_count = 0;
    if (!bc.U64(&group_count)) {
      return Status::InvalidArgument("base snapshot truncated");
    }
    const size_t min_group_bytes = 49 + 16 * dim;
    if (group_count > bc.remaining() / min_group_bytes) {
      return Status::InvalidArgument("bad group count in base");
    }
    base_records[l].reserve(group_count);
    for (uint64_t g = 0; g < group_count; ++g) {
      uint64_t id = 0;
      size_t offset = bc.pos, length = 0;
      if (!WalkSwRecord(&bc, dim, &id, &length)) {
        return Status::InvalidArgument("base record malformed");
      }
      base_records[l][id] = {offset, length};
    }
  }
  if (bc.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in base snapshot");
  }

  Result<std::string> delta_payload_r = CheckedPayload(delta);
  if (!delta_payload_r.ok()) return delta_payload_r.status();
  const std::string delta_payload = std::move(delta_payload_r).value();
  Cursor dc{delta_payload};
  char magic[8];
  if (!dc.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kDeltaMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an rl0 delta");
  }
  uint32_t version = 0;
  uint8_t kind = 0;
  uint64_t base_checksum = 0;
  if (!dc.U32(&version) || !dc.U8(&kind) || !dc.U64(&base_checksum)) {
    return Status::InvalidArgument("delta truncated");
  }
  if (version != kDeltaVersion) {
    return Status::InvalidArgument("unsupported delta version");
  }
  if (kind != kKindSW) {
    return Status::InvalidArgument("delta kind mismatch");
  }
  if (base_checksum != SnapshotChainChecksum(base)) {
    return Status::InvalidArgument("delta was cut against a different base");
  }
  uint64_t id_counter = 0, points_processed = 0, error_count = 0;
  uint64_t stuck_split_count = 0, peak = 0, delta_levels = 0;
  int64_t latest_stamp = 0;
  if (!dc.U64(&id_counter) || !dc.U64(&points_processed) ||
      !dc.I64(&latest_stamp) || !dc.U64(&error_count) ||
      !dc.U64(&stuck_split_count) || !dc.U64(&peak) ||
      !dc.U64(&delta_levels)) {
    return Status::InvalidArgument("delta truncated");
  }
  if (delta_levels != level_count) {
    return Status::InvalidArgument("level count mismatch between delta/base");
  }
  std::vector<std::unordered_map<uint64_t, std::pair<size_t, size_t>>>
      dirty_records(level_count);
  std::vector<std::vector<uint64_t>> live_ids(level_count);
  for (uint64_t l = 0; l < level_count; ++l) {
    uint64_t dirty_count = 0;
    if (!dc.U64(&dirty_count)) {
      return Status::InvalidArgument("delta truncated");
    }
    const size_t min_group_bytes = 49 + 16 * dim;
    if (dirty_count > dc.remaining() / min_group_bytes) {
      return Status::InvalidArgument("bad dirty count in delta");
    }
    dirty_records[l].reserve(dirty_count);
    for (uint64_t g = 0; g < dirty_count; ++g) {
      uint64_t id = 0;
      size_t offset = dc.pos, length = 0;
      if (!WalkSwRecord(&dc, dim, &id, &length)) {
        return Status::InvalidArgument("delta record malformed");
      }
      dirty_records[l][id] = {offset, length};
    }
    uint64_t live_count = 0;
    if (!dc.U64(&live_count) || live_count > dc.remaining() / 8) {
      return Status::InvalidArgument("bad live-id list in delta");
    }
    live_ids[l].resize(live_count);
    for (uint64_t i = 0; i < live_count; ++i) {
      if (!dc.U64(&live_ids[l][i])) {
        return Status::InvalidArgument("delta truncated");
      }
    }
  }
  if (dc.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in delta");
  }

  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kSnapMagicSW, sizeof(kSnapMagicSW));
  writer.PutU32(kSnapVersion);
  writer.PutBytes(base_payload.data() + kOptionsOffset, kOptionsBytes);
  writer.PutI64(window);
  writer.PutU64(id_counter);
  writer.PutU64(points_processed);
  writer.PutI64(latest_stamp);
  writer.PutU64(error_count);
  writer.PutU64(stuck_split_count);
  writer.PutU64(peak);
  writer.PutU64(level_count);
  for (uint64_t l = 0; l < level_count; ++l) {
    writer.PutU64(live_ids[l].size());
    for (uint64_t id : live_ids[l]) {
      auto dirty = dirty_records[l].find(id);
      if (dirty != dirty_records[l].end()) {
        writer.PutBytes(delta_payload.data() + dirty->second.first,
                        dirty->second.second);
        continue;
      }
      auto clean = base_records[l].find(id);
      if (clean == base_records[l].end()) {
        return Status::InvalidArgument("delta references an id not in base");
      }
      writer.PutBytes(base_payload.data() + clean->second.first,
                      clean->second.second);
    }
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  return Status::OK();
}

// -------------------------------------------------------------- journal

JournalWriter::JournalWriter(std::string* out, size_t dim, uint64_t next_seq)
    : out_(out), dim_(dim), next_seq_(next_seq) {
  if (out_->empty()) {
    BinaryWriter writer(out_);
    writer.PutBytes(kJournalMagic, sizeof(kJournalMagic));
    writer.PutU32(kJournalVersion);
    writer.PutU64(dim_);
  }
}

void JournalWriter::BeginRecord(JournalRecordType type, uint64_t index_base,
                                uint64_t count, size_t* start) {
  *start = out_->size();
  BinaryWriter writer(out_);
  writer.PutU32(kRecordMarker);
  writer.PutU8(static_cast<uint8_t>(type));
  writer.PutU64(next_seq_);
  writer.PutU64(index_base);
  writer.PutU64(count);
}

void JournalWriter::EndRecord(size_t start) {
  const uint64_t crc =
      Checksum(out_->data() + start, out_->size() - start);
  BinaryWriter writer(out_);
  writer.PutU64(crc);
  ++next_seq_;
}

void JournalWriter::AppendPoints(Span<const Point> points,
                                 uint64_t index_base) {
  size_t start = 0;
  BeginRecord(JournalRecordType::kPoints, index_base, points.size(), &start);
  BinaryWriter writer(out_);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t d = 0; d < dim_; ++d) writer.PutDouble(points[i][d]);
  }
  EndRecord(start);
}

void JournalWriter::AppendStamped(Span<const Point> points,
                                  Span<const int64_t> stamps,
                                  uint64_t index_base) {
  size_t start = 0;
  BeginRecord(JournalRecordType::kStamped, index_base, points.size(),
              &start);
  BinaryWriter writer(out_);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t d = 0; d < dim_; ++d) writer.PutDouble(points[i][d]);
  }
  for (size_t i = 0; i < stamps.size(); ++i) writer.PutI64(stamps[i]);
  EndRecord(start);
}

void JournalWriter::AppendWatermark(int64_t watermark, uint64_t index_base) {
  size_t start = 0;
  BeginRecord(JournalRecordType::kWatermark, index_base, 0, &start);
  BinaryWriter writer(out_);
  writer.PutI64(watermark);
  EndRecord(start);
}

Status ReadJournal(const std::string& journal, JournalContents* out) {
  out->dim = 0;
  out->records.clear();
  out->valid_bytes = 0;
  const size_t header_bytes = 8 + 4 + 8;
  if (journal.size() < header_bytes) {
    // An empty buffer — or a header torn mid-write — means nothing was
    // durably journaled yet; that is a valid (empty) journal.
    return Status::OK();
  }
  if (std::memcmp(journal.data(), kJournalMagic, sizeof(kJournalMagic)) !=
      0) {
    return Status::InvalidArgument("not an rl0 journal");
  }
  uint32_t version = 0;
  std::memcpy(&version, journal.data() + 8, sizeof(version));
  if (version != kJournalVersion) {
    return Status::InvalidArgument("unsupported journal version");
  }
  uint64_t dim64 = 0;
  std::memcpy(&dim64, journal.data() + 12, sizeof(dim64));
  if (dim64 > kMaxDim) {
    return Status::InvalidArgument("bad dimension in journal header");
  }
  out->dim = static_cast<size_t>(dim64);
  const size_t point_bytes = 8 * out->dim;

  size_t pos = header_bytes;
  out->valid_bytes = pos;
  while (true) {
    const size_t left = journal.size() - pos;
    if (left < kRecordFixedBytes + 8) break;
    uint32_t marker = 0;
    std::memcpy(&marker, journal.data() + pos, sizeof(marker));
    if (marker != kRecordMarker) break;
    const uint8_t type = static_cast<uint8_t>(journal[pos + 4]);
    uint64_t seq = 0, index_base = 0, count = 0;
    std::memcpy(&seq, journal.data() + pos + 5, sizeof(seq));
    std::memcpy(&index_base, journal.data() + pos + 13, sizeof(index_base));
    std::memcpy(&count, journal.data() + pos + 21, sizeof(count));
    size_t payload = 0;
    if (type == static_cast<uint8_t>(JournalRecordType::kPoints)) {
      if (out->dim == 0 && count > 0) break;
      if (point_bytes != 0 && count > left / point_bytes) break;
      payload = static_cast<size_t>(count) * point_bytes;
    } else if (type == static_cast<uint8_t>(JournalRecordType::kStamped)) {
      const size_t per = point_bytes + 8;
      if (count > left / per) break;
      payload = static_cast<size_t>(count) * per;
    } else if (type ==
               static_cast<uint8_t>(JournalRecordType::kWatermark)) {
      if (count != 0) break;
      payload = 8;
    } else {
      break;
    }
    if (left < kRecordFixedBytes + payload + 8) break;
    uint64_t stored_crc = 0;
    std::memcpy(&stored_crc,
                journal.data() + pos + kRecordFixedBytes + payload,
                sizeof(stored_crc));
    if (Checksum(journal.data() + pos, kRecordFixedBytes + payload) !=
        stored_crc) {
      break;
    }
    // Journals are sequence-contiguous from 0; a CRC-valid record with
    // the wrong sequence number still ends the trusted prefix.
    if (seq != out->records.size()) break;

    JournalRecord record;
    record.type = static_cast<JournalRecordType>(type);
    record.seq = seq;
    record.index_base = index_base;
    const char* p = journal.data() + pos + kRecordFixedBytes;
    if (record.type == JournalRecordType::kWatermark) {
      std::memcpy(&record.watermark, p, sizeof(record.watermark));
    } else {
      record.points.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        Point point(out->dim);
        for (size_t d = 0; d < out->dim; ++d) {
          std::memcpy(&point[d], p, sizeof(double));
          p += sizeof(double);
        }
        record.points.push_back(std::move(point));
      }
      if (record.type == JournalRecordType::kStamped) {
        record.stamps.resize(count);
        for (uint64_t i = 0; i < count; ++i) {
          std::memcpy(&record.stamps[i], p, sizeof(int64_t));
          p += sizeof(int64_t);
        }
      }
    }
    out->records.push_back(std::move(record));
    pos += kRecordFixedBytes + payload + 8;
    out->valid_bytes = pos;
  }
  return Status::OK();
}

// ---------------------------------------------------- pool checkpoints

namespace {

struct PoolHeader {
  uint8_t mode = 0;
  uint64_t shards = 0;
  int64_t window = 0;
  uint64_t points_fed = 0;
  int64_t latest_stamp = -1;
  bool watermark_sent = false;
  int64_t last_watermark = 0;
  bool has_frontier = false;
  int64_t frontier = 0;
  int64_t allowed_lateness = 0;
  uint64_t journal_seq = 0;
};

/// The error for a pool checkpoint or delta of another format version.
Status UnsupportedPoolVersion(uint32_t version) {
  return Status::InvalidArgument(
      "unsupported pool checkpoint version " + std::to_string(version) +
      " (this build reads version " + std::to_string(kPoolVersion) + ")");
}

void PutPoolHeader(BinaryWriter* writer, const PoolHeader& hdr) {
  writer->PutU8(hdr.mode);
  writer->PutU64(hdr.shards);
  writer->PutI64(hdr.window);
  writer->PutU64(hdr.points_fed);
  writer->PutI64(hdr.latest_stamp);
  writer->PutU8(hdr.watermark_sent ? 1 : 0);
  writer->PutI64(hdr.last_watermark);
  writer->PutU8(hdr.has_frontier ? 1 : 0);
  writer->PutI64(hdr.frontier);
  writer->PutI64(hdr.allowed_lateness);
  writer->PutU64(hdr.journal_seq);
}

bool GetPoolHeader(Cursor* cur, PoolHeader* hdr) {
  uint8_t watermark_sent = 0, has_frontier = 0;
  if (!cur->U8(&hdr->mode) || !cur->U64(&hdr->shards) ||
      !cur->I64(&hdr->window) || !cur->U64(&hdr->points_fed) ||
      !cur->I64(&hdr->latest_stamp) || !cur->U8(&watermark_sent) ||
      !cur->I64(&hdr->last_watermark) || !cur->U8(&has_frontier) ||
      !cur->I64(&hdr->frontier) || !cur->I64(&hdr->allowed_lateness) ||
      !cur->U64(&hdr->journal_seq)) {
    return false;
  }
  hdr->watermark_sent = watermark_sent != 0;
  hdr->has_frontier = has_frontier != 0;
  return true;
}

/// Parses a full pool checkpoint payload into its header and per-shard
/// blob slices (offset, length into `payload`).
Status ParsePoolCheckpoint(const std::string& payload, PoolHeader* hdr,
                           std::vector<std::pair<size_t, size_t>>* blobs) {
  Cursor cur{payload};
  char magic[8];
  if (!cur.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kPoolMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an rl0 pool checkpoint");
  }
  uint32_t version = 0;
  if (!cur.U32(&version)) {
    return Status::InvalidArgument("pool checkpoint truncated");
  }
  if (version != kPoolVersion) return UnsupportedPoolVersion(version);
  if (!GetPoolHeader(&cur, hdr)) {
    return Status::InvalidArgument("pool checkpoint truncated");
  }
  if (hdr->allowed_lateness < 0) {
    return Status::InvalidArgument("bad lateness bound in pool checkpoint");
  }
  if (hdr->shards == 0 || hdr->shards > 65536) {
    return Status::InvalidArgument("bad shard count in pool checkpoint");
  }
  blobs->clear();
  blobs->reserve(hdr->shards);
  for (uint64_t s = 0; s < hdr->shards; ++s) {
    uint64_t length = 0;
    if (!cur.U64(&length) || length > cur.remaining()) {
      return Status::InvalidArgument("pool checkpoint truncated");
    }
    blobs->emplace_back(cur.pos, static_cast<size_t>(length));
    cur.pos += length;
  }
  if (cur.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in pool checkpoint");
  }
  return Status::OK();
}

}  // namespace

/// Snaps the pool's header fields at a quiescent point and appends them
/// to `out` — the one header writer of full and delta checkpoints. (A
/// friend of the pool, hence outside the anonymous namespace.)
void AppendPoolHeader(ShardedSwSamplerPool* pool, uint64_t journal_seq,
                      std::string* out) {
  PoolHeader hdr;
  hdr.mode = pool->mode_->load(std::memory_order_relaxed);
  hdr.shards = pool->num_shards();
  hdr.window = pool->window();
  hdr.points_fed = pool->pipeline_->points_fed();
  hdr.latest_stamp = pool->pipeline_->latest_stamp();
  hdr.journal_seq = journal_seq;
  {
    ReorderFrontEnd* fe = pool->reorder_fe_.get();
    MutexLock lock(&fe->mu);
    hdr.watermark_sent = fe->watermark_sent;
    hdr.last_watermark = fe->last_watermark;
    hdr.has_frontier = fe->stage.has_watermark();
    if (hdr.has_frontier) hdr.frontier = fe->stage.release_bound();
    hdr.allowed_lateness = fe->stage.allowed_lateness();
  }
  BinaryWriter writer(out);
  PutPoolHeader(&writer, hdr);
}

Status CheckpointPool(ShardedSwSamplerPool* pool, uint64_t journal_seq,
                      std::string* out) {
  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kPoolMagic, sizeof(kPoolMagic));
  writer.PutU32(kPoolVersion);
  AppendPoolHeader(pool, journal_seq, out);
  std::string shard_blob;
  for (size_t s = 0; s < pool->num_shards(); ++s) {
    if (Status st = SnapshotSamplerFullSW(&pool->shard(s), &shard_blob);
        !st.ok()) {
      return st;
    }
    writer.PutU64(shard_blob.size());
    writer.PutBytes(shard_blob.data(), shard_blob.size());
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  return Status::OK();
}

Status CheckpointPoolDelta(ShardedSwSamplerPool* pool,
                           const std::string& base, uint64_t journal_seq,
                           std::string* out) {
  Result<std::string> base_payload_r = CheckedPayload(base);
  if (!base_payload_r.ok()) return base_payload_r.status();
  const std::string base_payload = std::move(base_payload_r).value();
  PoolHeader base_hdr;
  std::vector<std::pair<size_t, size_t>> base_blobs;
  if (Status st = ParsePoolCheckpoint(base_payload, &base_hdr, &base_blobs);
      !st.ok()) {
    return st;
  }
  if (base_hdr.shards != pool->num_shards()) {
    return Status::InvalidArgument("base shard count mismatch");
  }

  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kPoolDeltaMagic, sizeof(kPoolDeltaMagic));
  writer.PutU32(kPoolVersion);
  writer.PutU64(SnapshotChainChecksum(base));
  AppendPoolHeader(pool, journal_seq, out);
  std::string shard_delta;
  for (size_t s = 0; s < pool->num_shards(); ++s) {
    const std::string base_shard(base_payload, base_blobs[s].first,
                                 base_blobs[s].second);
    if (Status st = SnapshotSamplerDeltaSW(&pool->shard(s),
                                           SnapshotChainChecksum(base_shard),
                                           &shard_delta);
        !st.ok()) {
      return st;
    }
    writer.PutU64(shard_delta.size());
    writer.PutBytes(shard_delta.data(), shard_delta.size());
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  return Status::OK();
}

Status FoldPoolDelta(const std::string& base, const std::string& delta,
                     std::string* out) {
  Result<std::string> base_payload_r = CheckedPayload(base);
  if (!base_payload_r.ok()) return base_payload_r.status();
  const std::string base_payload = std::move(base_payload_r).value();
  PoolHeader base_hdr;
  std::vector<std::pair<size_t, size_t>> base_blobs;
  if (Status st = ParsePoolCheckpoint(base_payload, &base_hdr, &base_blobs);
      !st.ok()) {
    return st;
  }

  Result<std::string> delta_payload_r = CheckedPayload(delta);
  if (!delta_payload_r.ok()) return delta_payload_r.status();
  const std::string delta_payload = std::move(delta_payload_r).value();
  Cursor dc{delta_payload};
  char magic[8];
  if (!dc.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kPoolDeltaMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an rl0 pool delta");
  }
  uint32_t version = 0;
  uint64_t base_checksum = 0;
  if (!dc.U32(&version) || !dc.U64(&base_checksum)) {
    return Status::InvalidArgument("pool delta truncated");
  }
  if (version != kPoolVersion) return UnsupportedPoolVersion(version);
  if (base_checksum != SnapshotChainChecksum(base)) {
    return Status::InvalidArgument(
        "pool delta was cut against a different base");
  }
  PoolHeader hdr;
  if (!GetPoolHeader(&dc, &hdr)) {
    return Status::InvalidArgument("pool delta truncated");
  }
  if (hdr.shards != base_hdr.shards) {
    return Status::InvalidArgument("shard count mismatch between delta/base");
  }

  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kPoolMagic, sizeof(kPoolMagic));
  writer.PutU32(kPoolVersion);
  PutPoolHeader(&writer, hdr);
  std::string folded;
  for (uint64_t s = 0; s < hdr.shards; ++s) {
    uint64_t length = 0;
    if (!dc.U64(&length) || length > dc.remaining()) {
      return Status::InvalidArgument("pool delta truncated");
    }
    const std::string shard_delta(delta_payload, dc.pos,
                                  static_cast<size_t>(length));
    dc.pos += length;
    const std::string base_shard(base_payload, base_blobs[s].first,
                                 base_blobs[s].second);
    if (Status st = ApplySamplerDeltaSW(base_shard, shard_delta, &folded);
        !st.ok()) {
      return st;
    }
    writer.PutU64(folded.size());
    writer.PutBytes(folded.data(), folded.size());
  }
  if (dc.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes in pool delta");
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  return Status::OK();
}

Result<ShardedSwSamplerPool> RecoverPool(
    const std::string& checkpoint, const std::string& journal,
    const IngestPool::Options& pipeline_options) {
  Result<std::string> payload_r = CheckedPayload(checkpoint);
  if (!payload_r.ok()) return payload_r.status();
  const std::string payload = std::move(payload_r).value();
  PoolHeader hdr;
  std::vector<std::pair<size_t, size_t>> blobs;
  if (Status st = ParsePoolCheckpoint(payload, &hdr, &blobs); !st.ok()) {
    return st;
  }
  if (hdr.mode > 2) {
    return Status::InvalidArgument("bad stamp mode in pool checkpoint");
  }
  constexpr uint8_t kSequenceMode = 1;
  constexpr uint8_t kTimeMode = 2;

  std::vector<RobustL0SamplerSW> restored;
  restored.reserve(hdr.shards);
  for (const auto& blob : blobs) {
    Result<RobustL0SamplerSW> shard =
        RestoreSamplerSW(std::string(payload, blob.first, blob.second));
    if (!shard.ok()) return shard.status();
    if (shard.value().window() != hdr.window) {
      return Status::InvalidArgument("shard window mismatch in checkpoint");
    }
    restored.push_back(std::move(shard).value());
  }

  IngestPool::Options popts = pipeline_options;
  popts.index_base = hdr.points_fed;
  // The lanes are built around the restored samplers (ParsePoolCheckpoint
  // guarantees at least one shard), the reorder stage around the
  // checkpointed bound (shard snapshots do not carry it).
  ShardedSwSamplerPool pool(std::move(restored), hdr.window,
                            hdr.allowed_lateness, popts);
  if (hdr.mode != 0) {
    pool.mode_->store(hdr.mode, std::memory_order_relaxed);
  }
  bool stamp_set = false;
  int64_t stamp_watermark = 0;
  if (hdr.mode == kTimeMode && hdr.latest_stamp != -1) {
    // -1 doubles as IngestPool's "no stamped feed yet" sentinel; a pool
    // whose genuine latest stamp was -1 just re-derives the watermark
    // from the first replayed chunk, which restores the same state.
    pool.pipeline_->NoteStamp(hdr.latest_stamp);
    stamp_set = true;
    stamp_watermark = hdr.latest_stamp;
  }
  {
    // Construction-time writes: the pool is not visible to any other
    // thread yet, but the fields are lock-guarded, so take the (free)
    // lock rather than carve an analysis escape.
    ReorderFrontEnd* fe = pool.reorder_fe_.get();
    MutexLock lock(&fe->mu);
    if (hdr.watermark_sent) {
      fe->watermark_sent = true;
      fe->last_watermark = hdr.last_watermark;
      // Re-arm each shard's event-time watermark (scratch state the shard
      // snapshots deliberately exclude): without it, a restored quiet lane
      // would fall back to its latest stamp and expire too little.
      for (RobustL0SamplerSW& shard : pool.shards_) {
        shard.NoteWatermark(hdr.last_watermark);
      }
    }
    if (hdr.has_frontier) {
      // Re-arm the reorder stage's lateness judgment at the crashed
      // frontier so nothing already released (or late-dropped) can be
      // re-admitted by post-recovery offers.
      fe->stage.NoteFrontier(hdr.frontier);
    }
  }

  JournalContents contents;
  if (Status st = ReadJournal(journal, &contents); !st.ok()) return st;
  if (!contents.records.empty() &&
      contents.dim != pool.shards_[0].options().dim) {
    return Status::InvalidArgument("journal dimension mismatch");
  }
  // Replay everything at or above the checkpoint's journal sequence
  // number, re-validating what the feed paths CHECK (index continuity,
  // stamp monotonicity, mode consistency) so a corrupt journal fails
  // soft instead of aborting the process.
  uint64_t expected_index = hdr.points_fed;
  uint8_t mode = hdr.mode;
  for (const JournalRecord& record : contents.records) {
    if (record.seq < hdr.journal_seq) continue;
    if (record.index_base != expected_index) {
      return Status::InvalidArgument("journal index discontinuity");
    }
    switch (record.type) {
      case JournalRecordType::kPoints:
        if (mode == kTimeMode) {
          return Status::InvalidArgument(
              "sequence record in a time-mode journal");
        }
        mode = kSequenceMode;
        if (!record.points.empty()) pool.Feed(record.points);
        expected_index += record.points.size();
        break;
      case JournalRecordType::kStamped: {
        if (mode == kSequenceMode) {
          return Status::InvalidArgument(
              "stamped record in a sequence-mode journal");
        }
        mode = kTimeMode;
        for (size_t i = 0; i < record.stamps.size(); ++i) {
          const int64_t floor =
              i == 0 ? stamp_watermark : record.stamps[i - 1];
          if ((i > 0 || stamp_set) && record.stamps[i] < floor) {
            return Status::InvalidArgument("journal stamps regress");
          }
        }
        if (!record.points.empty()) {
          pool.FeedStamped(record.points, record.stamps);
          stamp_set = true;
          stamp_watermark = record.stamps.back();
        }
        expected_index += record.points.size();
        break;
      }
      case JournalRecordType::kWatermark:
        if (mode == kSequenceMode) {
          return Status::InvalidArgument(
              "watermark record in a sequence-mode journal");
        }
        mode = kTimeMode;
        if (stamp_set && record.watermark < stamp_watermark) {
          return Status::InvalidArgument("journal watermark regresses");
        }
        pool.pipeline_->FeedWatermark(record.watermark);
        stamp_set = true;
        stamp_watermark = record.watermark;
        {
          ReorderFrontEnd* fe = pool.reorder_fe_.get();
          MutexLock lock(&fe->mu);
          fe->watermark_sent = true;
          fe->last_watermark = record.watermark;
          fe->stage.NoteFrontier(record.watermark);
        }
        break;
    }
  }
  if (mode != hdr.mode && hdr.mode == 0) {
    pool.mode_->store(mode, std::memory_order_relaxed);
  }
  pool.Drain();
  return pool;
}

void AttachJournal(ShardedSwSamplerPool* pool, JournalWriter* writer) {
  pool->SetJournalSink([writer](Span<const Point> points,
                                Span<const int64_t> stamps,
                                uint64_t index_base,
                                const int64_t* watermark) {
    if (watermark != nullptr) {
      writer->AppendWatermark(*watermark, index_base);
    } else if (stamps.size() != 0) {
      writer->AppendStamped(points, stamps, index_base);
    } else {
      writer->AppendPoints(points, index_base);
    }
  });
}

}  // namespace rl0
