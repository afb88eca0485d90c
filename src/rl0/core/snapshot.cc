#include "rl0/core/snapshot.h"

#include <cstring>

#include "rl0/util/serialize.h"

namespace rl0 {

namespace {
constexpr char kMagic[8] = {'R', 'L', '0', 'S', 'N', 'A', 'P', '\0'};
constexpr char kMagicSW[8] = {'R', 'L', '0', 'S', 'N', 'P', 'W', '\0'};
// Version 2 appends the space meter's peak watermark to both formats;
// version-1 blobs are still restorable (peak restarts at current size).
constexpr uint32_t kVersion = 2;

Status GetPoint(BinaryReader* reader, size_t dim, Point* out) {
  *out = Point(dim);
  for (size_t i = 0; i < dim; ++i) {
    Status s = reader->GetDouble(&(*out)[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void PutOptions(BinaryWriter* writer, const SamplerOptions& opts) {
  writer->PutU64(opts.dim);
  writer->PutDouble(opts.alpha);
  writer->PutU8(static_cast<uint8_t>(opts.metric));
  writer->PutU64(opts.seed);
  writer->PutU8(static_cast<uint8_t>(opts.side_mode));
  writer->PutDouble(opts.custom_side);
  writer->PutU8(static_cast<uint8_t>(opts.hash_family));
  writer->PutU32(opts.kwise_k);
  writer->PutDouble(opts.kappa0);
  writer->PutU64(opts.expected_stream_length);
  writer->PutU64(opts.accept_cap);
  writer->PutU64(opts.k);
  writer->PutU8(opts.random_representative ? 1 : 0);
}

Status GetOptions(BinaryReader* reader, SamplerOptions* opts) {
  uint8_t metric = 0, side_mode = 0, hash_family = 0, reservoir = 0;
  uint64_t dim = 0, accept_cap = 0, sample_k = 0;
  if (Status st = reader->GetU64(&dim); !st.ok()) return st;
  if (Status st = reader->GetDouble(&opts->alpha); !st.ok()) return st;
  if (Status st = reader->GetU8(&metric); !st.ok()) return st;
  if (Status st = reader->GetU64(&opts->seed); !st.ok()) return st;
  if (Status st = reader->GetU8(&side_mode); !st.ok()) return st;
  if (Status st = reader->GetDouble(&opts->custom_side); !st.ok()) return st;
  if (Status st = reader->GetU8(&hash_family); !st.ok()) return st;
  if (Status st = reader->GetU32(&opts->kwise_k); !st.ok()) return st;
  if (Status st = reader->GetDouble(&opts->kappa0); !st.ok()) return st;
  if (Status st = reader->GetU64(&opts->expected_stream_length); !st.ok()) {
    return st;
  }
  if (Status st = reader->GetU64(&accept_cap); !st.ok()) return st;
  if (Status st = reader->GetU64(&sample_k); !st.ok()) return st;
  if (Status st = reader->GetU8(&reservoir); !st.ok()) return st;
  opts->dim = static_cast<size_t>(dim);
  if (metric > static_cast<uint8_t>(Metric::kLinf)) {
    return Status::InvalidArgument("bad metric in snapshot");
  }
  opts->metric = static_cast<Metric>(metric);
  if (side_mode > static_cast<uint8_t>(GridSideMode::kCustom)) {
    return Status::InvalidArgument("bad side mode in snapshot");
  }
  opts->side_mode = static_cast<GridSideMode>(side_mode);
  if (hash_family > static_cast<uint8_t>(HashFamily::kKWisePoly)) {
    return Status::InvalidArgument("bad hash family in snapshot");
  }
  opts->hash_family = static_cast<HashFamily>(hash_family);
  opts->accept_cap = static_cast<size_t>(accept_cap);
  opts->k = static_cast<size_t>(sample_k);
  opts->random_representative = reservoir != 0;
  return Status::OK();
}

}  // namespace

Status SnapshotSampler(const RobustL0SamplerIW& sampler, std::string* out) {
  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kMagic, sizeof(kMagic));
  writer.PutU32(kVersion);
  PutOptions(&writer, sampler.options_);
  writer.PutU32(sampler.level_);
  writer.PutU64(sampler.points_processed_);
  writer.PutU64(sampler.next_rep_id_);
  writer.PutU64(sampler.meter_.peak());

  const RepTable& reps = sampler.reps_;
  const bool reservoir_mode = sampler.options_.random_representative;
  writer.PutU64(reps.live());
  const size_t slots = reps.slot_count();
  for (uint32_t slot = 0; slot < slots; ++slot) {
    if (!reps.IsLive(slot)) continue;
    writer.PutU64(reps.id(slot));
    writer.PutU64(reps.stream_index(slot));
    writer.PutU64(reps.cell_key(slot));
    writer.PutU8(reps.accepted(slot) ? 1 : 0);
    // The reservoir columns exist only in reservoir mode; the format keeps
    // them unconditionally (degenerate values otherwise) for stability.
    writer.PutU64(reservoir_mode ? reps.group_count(slot) : 1);
    writer.PutU64(reservoir_mode ? reps.sample_index(slot)
                                 : reps.stream_index(slot));
    writer.PutPoint(reps.point(slot));
    writer.PutPoint(reservoir_mode ? reps.sample_point(slot)
                                     : reps.point(slot));
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  return Status::OK();
}

Result<RobustL0SamplerIW> RestoreSampler(const std::string& snapshot) {
  Result<std::string> payload_result = CheckedPayload(snapshot);
  if (!payload_result.ok()) return payload_result.status();
  const std::string payload = std::move(payload_result).value();
  BinaryReader reader(payload);
  char magic[8];
  Status s = reader.GetBytes(magic, sizeof(magic));
  if (!s.ok()) return s;
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an rl0 snapshot");
  }
  uint32_t version = 0;
  if (Status st = reader.GetU32(&version); !st.ok()) return st;
  if (version < 1 || version > kVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }

  SamplerOptions opts;
  if (Status st = GetOptions(&reader, &opts); !st.ok()) return st;

  Result<RobustL0SamplerIW> created = RobustL0SamplerIW::Create(opts);
  if (!created.ok()) return created.status();
  RobustL0SamplerIW sampler = std::move(created).value();

  uint32_t level = 0;
  if (Status st = reader.GetU32(&level); !st.ok()) return st;
  if (level > CellHasher::kMaxLevel) {
    return Status::InvalidArgument("bad level in snapshot");
  }
  sampler.level_ = level;
  if (Status st = reader.GetU64(&sampler.points_processed_); !st.ok()) {
    return st;
  }
  if (Status st = reader.GetU64(&sampler.next_rep_id_); !st.ok()) return st;
  uint64_t peak_words = 0;
  if (version >= 2) {
    if (Status st = reader.GetU64(&peak_words); !st.ok()) return st;
  }

  uint64_t rep_count = 0;
  if (Status st = reader.GetU64(&rep_count); !st.ok()) return st;
  // Defensive bound before any reserve: every representative record costs
  // at least its fixed fields plus two points, so a count the remaining
  // bytes cannot possibly hold is malformed.
  const size_t min_rep_bytes = 41 + 16 * opts.dim;
  if (rep_count > reader.remaining() / min_rep_bytes) {
    return Status::InvalidArgument("bad representative count in snapshot");
  }
  size_t accept_size = 0;
  for (uint64_t i = 0; i < rep_count; ++i) {
    uint64_t id = 0, stream_index = 0, cell_key = 0;
    uint64_t group_count = 0, sample_index = 0;
    uint8_t accepted = 0;
    Point point, sample_point;
    if (Status st = reader.GetU64(&id); !st.ok()) return st;
    if (Status st = reader.GetU64(&stream_index); !st.ok()) return st;
    if (Status st = reader.GetU64(&cell_key); !st.ok()) return st;
    if (Status st = reader.GetU8(&accepted); !st.ok()) return st;
    if (Status st = reader.GetU64(&group_count); !st.ok()) return st;
    if (Status st = reader.GetU64(&sample_index); !st.ok()) return st;
    if (Status st = GetPoint(&reader, opts.dim, &point); !st.ok()) return st;
    if (Status st = GetPoint(&reader, opts.dim, &sample_point); !st.ok()) {
      return st;
    }
    // Integrity: the stored cell key must match the deterministic grid.
    if (sampler.grid_.CellKeyOf(point) != cell_key) {
      return Status::InvalidArgument("cell key mismatch in snapshot");
    }
    accept_size += accepted != 0;
    const uint32_t slot = sampler.reps_.Add(point, id, stream_index,
                                            cell_key, accepted != 0);
    if (opts.random_representative) {
      sampler.reps_.set_sample_point(slot, sample_point);
      sampler.reps_.set_sample_index(slot, sample_index);
      sampler.reps_.set_group_count(slot, group_count);
    }
    sampler.meter_.Add(sampler.RepWords());
  }
  sampler.accept_size_ = accept_size;
  if (Status st = reader.ExpectEnd(); !st.ok()) return st;
  // v2 blobs carry the original peak watermark; v1 blobs predate it and
  // keep the legacy behaviour (peak restarts at the restored size).
  if (version >= 2) sampler.meter_.RestorePeak(peak_words);

  // Reservoir coin stream restarts from a seed derived from the restore
  // point (see header: statistically equivalent, not bit-identical).
  sampler.reservoir_rng_ = Xoshiro256pp(
      SplitMix64(opts.seed ^ (sampler.points_processed_ * 0x9E3779B9ULL) ^
                 0x524553544FULL));
  return sampler;
}

void PutSwGroupRecord(BinaryWriter* writer, const GroupRecord& g) {
  writer->PutU64(g.id);
  writer->PutU64(g.rep_index);
  writer->PutU64(g.rep_cell);
  writer->PutU8(g.accepted ? 1 : 0);
  writer->PutPoint(g.rep);
  writer->PutPoint(g.latest);
  writer->PutI64(g.latest_stamp);
  writer->PutU64(g.latest_index);
  writer->PutU64(g.reservoir.size());
  for (const auto& candidate : g.reservoir) {
    writer->PutU64(candidate.priority);
    writer->PutI64(candidate.stamp);
    writer->PutU64(candidate.stream_index);
    writer->PutPoint(candidate.point);
  }
}

Status SnapshotSamplerSW(const RobustL0SamplerSW& sampler, std::string* out) {
  out->clear();
  BinaryWriter writer(out);
  writer.PutBytes(kMagicSW, sizeof(kMagicSW));
  writer.PutU32(kVersion);
  PutOptions(&writer, sampler.ctx_->options);
  writer.PutI64(sampler.window_);
  writer.PutU64(*sampler.id_counter_);
  writer.PutU64(sampler.points_processed_);
  writer.PutI64(sampler.latest_stamp_);
  writer.PutU64(sampler.error_count_);
  writer.PutU64(sampler.stuck_split_count_);
  writer.PutU64(sampler.meter_.peak());

  writer.PutU64(sampler.levels_.size());
  std::vector<GroupRecord> groups;
  for (const auto& level : sampler.levels_) {
    groups.clear();
    level->SnapshotGroups(&groups);
    writer.PutU64(groups.size());
    for (const GroupRecord& g : groups) PutSwGroupRecord(&writer, g);
  }
  writer.PutU64(Checksum(out->data(), out->size()));
  return Status::OK();
}

Result<RobustL0SamplerSW> RestoreSamplerSW(const std::string& snapshot) {
  Result<std::string> payload_result = CheckedPayload(snapshot);
  if (!payload_result.ok()) return payload_result.status();
  const std::string payload = std::move(payload_result).value();
  BinaryReader reader(payload);
  char magic[8];
  if (Status st = reader.GetBytes(magic, sizeof(magic)); !st.ok()) return st;
  if (std::memcmp(magic, kMagicSW, sizeof(kMagicSW)) != 0) {
    return Status::InvalidArgument("not an rl0 sliding-window snapshot");
  }
  uint32_t version = 0;
  if (Status st = reader.GetU32(&version); !st.ok()) return st;
  if (version < 1 || version > kVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }

  SamplerOptions opts;
  if (Status st = GetOptions(&reader, &opts); !st.ok()) return st;
  int64_t window = 0;
  if (Status st = reader.GetI64(&window); !st.ok()) return st;

  Result<RobustL0SamplerSW> created = RobustL0SamplerSW::Create(opts, window);
  if (!created.ok()) return created.status();
  RobustL0SamplerSW sampler = std::move(created).value();

  if (Status st = reader.GetU64(sampler.id_counter_.get()); !st.ok()) {
    return st;
  }
  if (Status st = reader.GetU64(&sampler.points_processed_); !st.ok()) {
    return st;
  }
  if (Status st = reader.GetI64(&sampler.latest_stamp_); !st.ok()) return st;
  if (Status st = reader.GetU64(&sampler.error_count_); !st.ok()) return st;
  if (Status st = reader.GetU64(&sampler.stuck_split_count_); !st.ok()) {
    return st;
  }
  uint64_t peak_words = 0;
  if (version >= 2) {
    if (Status st = reader.GetU64(&peak_words); !st.ok()) return st;
  }

  uint64_t level_count = 0;
  if (Status st = reader.GetU64(&level_count); !st.ok()) return st;
  if (level_count != sampler.levels_.size()) {
    return Status::InvalidArgument("level count mismatch in snapshot");
  }
  for (size_t l = 0; l < level_count; ++l) {
    uint64_t group_count = 0;
    if (Status st = reader.GetU64(&group_count); !st.ok()) return st;
    // Minimum bytes per group record (fixed fields + two points + an
    // empty reservoir): bound the count before reserving anything.
    const size_t min_group_bytes = 49 + 16 * opts.dim;
    if (group_count > reader.remaining() / min_group_bytes) {
      return Status::InvalidArgument("bad group count in snapshot");
    }
    std::vector<GroupRecord> groups;
    groups.reserve(group_count);
    for (uint64_t i = 0; i < group_count; ++i) {
      GroupRecord g;
      uint8_t accepted = 0;
      if (Status st = reader.GetU64(&g.id); !st.ok()) return st;
      if (Status st = reader.GetU64(&g.rep_index); !st.ok()) return st;
      if (Status st = reader.GetU64(&g.rep_cell); !st.ok()) return st;
      if (Status st = reader.GetU8(&accepted); !st.ok()) return st;
      if (Status st = GetPoint(&reader, opts.dim, &g.rep); !st.ok()) {
        return st;
      }
      if (Status st = GetPoint(&reader, opts.dim, &g.latest); !st.ok()) {
        return st;
      }
      if (Status st = reader.GetI64(&g.latest_stamp); !st.ok()) return st;
      if (Status st = reader.GetU64(&g.latest_index); !st.ok()) return st;
      g.accepted = accepted != 0;
      // Integrity: the cell key and the acceptance bit must be consistent
      // with the deterministic grid and hash at this level.
      if (sampler.ctx_->grid.CellKeyOf(g.rep) != g.rep_cell) {
        return Status::InvalidArgument("cell key mismatch in snapshot");
      }
      if (g.accepted && !sampler.ctx_->hasher.SampledAtLevel(
                            g.rep_cell, static_cast<uint32_t>(l))) {
        return Status::InvalidArgument(
            "acceptance bit inconsistent with hash in snapshot");
      }
      uint64_t candidate_count = 0;
      if (Status st = reader.GetU64(&candidate_count); !st.ok()) return st;
      // Same per-record bound for reservoir candidates (three scalars
      // plus a point each).
      const size_t min_candidate_bytes = 24 + 8 * opts.dim;
      if (candidate_count > reader.remaining() / min_candidate_bytes) {
        return Status::InvalidArgument("bad reservoir size in snapshot");
      }
      g.reservoir.reserve(candidate_count);
      for (uint64_t c = 0; c < candidate_count; ++c) {
        WindowedReservoir::RestoredCandidate candidate;
        if (Status st = reader.GetU64(&candidate.priority); !st.ok()) {
          return st;
        }
        if (Status st = reader.GetI64(&candidate.stamp); !st.ok()) return st;
        if (Status st = reader.GetU64(&candidate.stream_index); !st.ok()) {
          return st;
        }
        if (Status st = GetPoint(&reader, opts.dim, &candidate.point);
            !st.ok()) {
          return st;
        }
        g.reservoir.push_back(std::move(candidate));
      }
      groups.push_back(std::move(g));
    }
    sampler.levels_[l]->MergeFrom(std::move(groups));
  }
  if (Status st = reader.ExpectEnd(); !st.ok()) return st;
  sampler.UpdateMeter();
  // v2 blobs carry the original peak watermark (v1: legacy restart).
  if (version >= 2) sampler.meter_.RestorePeak(peak_words);
  return sampler;
}

}  // namespace rl0
