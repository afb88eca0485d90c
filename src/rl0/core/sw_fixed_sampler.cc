#include "rl0/core/sw_fixed_sampler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "rl0/util/check.h"

namespace rl0 {

SwFixedRateSampler::SwFixedRateSampler(const SamplerContext* ctx,
                                       uint32_t level, int64_t window,
                                       uint64_t* id_counter,
                                       PointStore* store,
                                       CellLevelMask* level_masks)
    : ctx_(ctx), store_(store), level_(level), window_(window),
      id_counter_(id_counter) {
  RL0_CHECK(ctx != nullptr);
  RL0_CHECK(window > 0);
  RL0_CHECK(level <= CellHasher::kMaxLevel);
  if (id_counter_ == nullptr) id_counter_ = &owned_id_counter_;
  if (store_ == nullptr) {
    owned_store_ = std::make_unique<PointStore>(ctx_->options.dim);
    store_ = owned_store_.get();
  }
  table_.Bind(store_, level_masks, level_);
}

Result<std::unique_ptr<SwFixedRateSampler>>
SwFixedRateSampler::CreateStandalone(const SamplerOptions& options,
                                     uint32_t level, int64_t window) {
  Status s = options.Validate();
  if (!s.ok()) return s;
  if (window <= 0) return Status::InvalidArgument("window must be positive");
  if (level > CellHasher::kMaxLevel) {
    return Status::InvalidArgument("level exceeds CellHasher::kMaxLevel");
  }
  auto ctx = std::make_unique<SamplerContext>(options);
  auto sampler = std::make_unique<SwFixedRateSampler>(ctx.get(), level,
                                                      window, nullptr);
  sampler->owned_ctx_ = std::move(ctx);
  return sampler;
}

size_t SwFixedRateSampler::GroupWords() const {
  // Arena layout: two flat points + group columns + the index entries
  // (see GroupArenaWords in util/space.h).
  return GroupArenaWords(ctx_->options.dim);
}

GroupRecord SwFixedRateSampler::Materialize(uint32_t slot) const {
  GroupRecord out;
  out.id = table_.id(slot);
  out.rep = store_->View(table_.rep_ref(slot)).Materialize();
  out.rep_index = table_.rep_index(slot);
  out.rep_cell = table_.rep_cell(slot);
  out.accepted = table_.accepted(slot);
  out.latest = store_->View(table_.latest_ref(slot)).Materialize();
  out.latest_stamp = table_.latest_stamp(slot);
  out.latest_index = table_.latest_index(slot);
  if (ctx_->options.random_representative) {
    const WindowedReservoir& reservoir = table_.reservoir(slot);
    out.reservoir.reserve(reservoir.size());
    for (const WindowedReservoir::Candidate& c : reservoir.candidates()) {
      out.reservoir.push_back(WindowedReservoir::RestoredCandidate{
          c.priority, c.stamp, reservoir.CandidatePoint(c), c.stream_index});
    }
  }
  return out;
}

void SwFixedRateSampler::Adopt(GroupRecord&& in) {
  SwGroupTable::MovedGroup g;
  g.id = in.id;
  g.rep = store_->Add(in.rep);
  g.rep_index = in.rep_index;
  g.rep_cell = in.rep_cell;
  g.accepted = in.accepted;
  g.latest = store_->Add(in.latest);
  g.latest_stamp = in.latest_stamp;
  g.latest_index = in.latest_index;
  if (ctx_->options.random_representative) {
    // Fresh coin stream, salted per adoption so a group restored several
    // times never replays a prior priority sequence (statistically
    // equivalent; see core/snapshot.h).
    const uint64_t reseed =
        ctx_->options.seed ^ (g.id * 0x9E3779B97F4A7C15ULL) ^
        SplitMix64(++reseed_epoch_);
    g.reservoir.RestoreState(window_, reseed, store_, in.reservoir);
  }
  if (g.accepted) ++accept_size_;
  table_.AdoptMoved(std::move(g));
}

uint32_t SwFixedRateSampler::FindCandidate(
    PointView p, const std::vector<uint64_t>& adj_keys) const {
  // A representative u with d(u, p) ≤ α has cell(u) ∈ adj(p). Each
  // bucket's chain is gathered into a flat slot list and probed with the
  // batched kernel (single-rep buckets keep the direct scalar check);
  // probe order, hence every decision, matches the per-rep walk exactly
  // — see RobustL0SamplerIW::FindCandidate for the full rationale.
  for (uint64_t key : adj_keys) {
    const uint32_t head = table_.CellHead(key);
    if (head == SwGroupTable::kNpos) continue;
    const uint32_t second = table_.NextInCell(head);
    if (second == SwGroupTable::kNpos) {
      if (MetricWithinDistance(store_->View(table_.rep_ref(head)), p,
                               ctx_->options.alpha, ctx_->options.metric)) {
        return head;
      }
      continue;
    }
    cand_slots_.clear();
    cand_arena_.clear();
    for (uint32_t slot = head; slot != SwGroupTable::kNpos;
         slot = table_.NextInCell(slot)) {
      cand_slots_.push_back(slot);
      cand_arena_.push_back(table_.rep_arena_slot(slot));
    }
    const size_t hit = FindFirstWithin(*store_, p, cand_arena_.data(),
                                       cand_arena_.size(),
                                       ctx_->options.metric,
                                       ctx_->options.alpha);
    if (hit != Bitmask::npos) return cand_slots_[hit];
  }
  return SwGroupTable::kNpos;
}

InsertOutcome SwFixedRateSampler::InsertPrepared(const PreparedPoint& p) {
  Expire(p.stamp);

  const uint32_t candidate = ((p.chain_levels >> level_) & 1) != 0
                                 ? FindCandidate(*p.point, *p.adj_keys)
                                 : SwGroupTable::kNpos;
  if (candidate != SwGroupTable::kNpos) {
    // Same group as a tracked representative: refresh its latest point
    // (Algorithm 2 line 6: A ← (u,p) ∪ A \ (u,·)).
    table_.Touch(candidate, *p.point, p.stamp, p.stream_index);
    if (ctx_->options.random_representative) {
      table_.ReservoirInsert(candidate, *p.point, p.stamp, p.stream_index);
    }
    return table_.accepted(candidate) ? InsertOutcome::kAccepted
                                      : InsertOutcome::kRejected;
  }

  // First point of a group in this window: judge it by its own cell first
  // (accept), then by the neighborhood (reject), else ignore. The hash
  // depths make both tests one compare each (CellHasher::Depth).
  const bool accepted = level_ <= p.cell_depth;
  if (!accepted && level_ > p.adj_depth) return InsertOutcome::kIgnored;

  const uint64_t id = (*id_counter_)++;
  const uint32_t slot = table_.Add(id, *p.point, p.stream_index, p.cell_key,
                                   accepted, p.stamp);
  if (ctx_->options.random_representative) {
    table_.StartReservoir(slot, window_, ctx_->options.seed ^ id);
    table_.ReservoirInsert(slot, *p.point, p.stamp, p.stream_index);
  }
  if (accepted) ++accept_size_;
  return accepted ? InsertOutcome::kAccepted : InsertOutcome::kRejected;
}

bool SwFixedRateSampler::Insert(const Point& p, int64_t stamp) {
  RL0_DCHECK(p.dim() == ctx_->options.dim);
  PreparedPoint prep;
  prep.stamp = stamp;
  prep.stream_index = static_cast<uint64_t>(stamp);
  ctx_->Prepare(p, &adj_scratch_, &prep);
  return Insert(prep);
}

void SwFixedRateSampler::Expire(int64_t now) {
  const int64_t horizon = now - window_;
  uint32_t slot;
  while ((slot = table_.OldestSlot()) != SwGroupTable::kNpos) {
    if (table_.latest_stamp(slot) > horizon) break;
    if (table_.accepted(slot)) --accept_size_;
    table_.Remove(slot);
  }
  // Repack after big die-offs so the batched probe keeps walking dense
  // columns (no-op unless ≥50% of the slots are dead; callers never hold
  // slot indices across Expire).
  table_.MaybeCompact();
}

void SwFixedRateSampler::Reset() {
  table_.Clear();
  accept_size_ = 0;
}

std::optional<SampleItem> SwFixedRateSampler::Sample(int64_t now,
                                                     Xoshiro256pp* rng) {
  Expire(now);
  if (accept_size_ == 0) return std::nullopt;
  uint64_t target = rng->NextBounded(accept_size_);
  for (uint32_t slot = 0; slot < table_.slot_count(); ++slot) {
    if (!table_.IsLive(slot) || !table_.accepted(slot)) continue;
    if (target == 0) {
      if (ctx_->options.random_representative) {
        // Reservoir holds ≥ 1 unexpired item: the group's latest point is
        // alive (otherwise Expire would have dropped the group).
        const auto item = table_.ReservoirSample(slot, now);
        RL0_DCHECK(item.has_value());
        if (item.has_value()) return item;
      }
      return SampleItem{store_->View(table_.latest_ref(slot)).Materialize(),
                        table_.latest_index(slot)};
    }
    --target;
  }
  RL0_CHECK(false);  // accept_size_ out of sync.
  return std::nullopt;
}

void SwFixedRateSampler::AcceptedGroupSamples(int64_t now,
                                              std::vector<SampleItem>* out) {
  for (uint32_t slot = 0; slot < table_.slot_count(); ++slot) {
    if (!table_.IsLive(slot) || !table_.accepted(slot)) continue;
    if (ctx_->options.random_representative) {
      const auto item = table_.ReservoirSample(slot, now);
      if (item.has_value()) {
        out->push_back(*item);
        continue;
      }
    }
    out->push_back(
        SampleItem{store_->View(table_.latest_ref(slot)).Materialize(),
                   table_.latest_index(slot)});
  }
}

void SwFixedRateSampler::SnapshotGroups(std::vector<GroupRecord>* out) const {
  for (uint32_t slot = 0; slot < table_.slot_count(); ++slot) {
    if (table_.IsLive(slot)) out->push_back(Materialize(slot));
  }
}

void SwFixedRateSampler::SnapshotDirtyGroups(
    std::vector<GroupRecord>* dirty, std::vector<uint64_t>* live_ids) const {
  for (uint32_t slot = 0; slot < table_.slot_count(); ++slot) {
    if (!table_.IsLive(slot)) continue;
    live_ids->push_back(table_.id(slot));
    if (table_.SlotDirty(slot)) dirty->push_back(Materialize(slot));
  }
}

SwFixedRateSampler::SplitPlan SwFixedRateSampler::PlanSplit() {
  SplitPlan plan;
  // t = the arrival index of the last accepted representative whose cell
  // is sampled at level ℓ+1 (Algorithm 4 line 2).
  uint64_t t = 0;
  for (uint32_t slot = 0; slot < table_.slot_count(); ++slot) {
    if (!table_.IsLive(slot) || !table_.accepted(slot)) continue;
    if (!ctx_->hasher.SampledAtLevel(table_.rep_cell(slot), level_ + 1)) {
      continue;
    }
    if (!plan.found || table_.rep_index(slot) > t) {
      t = table_.rep_index(slot);
      plan.found = true;
    }
  }
  if (!plan.found) return plan;

  // Partition groups: representatives arriving ≤ t are promoted (re-judged
  // at level ℓ+1 per Definition 2.2), the rest stay at level ℓ.
  std::vector<uint64_t> adj;
  for (uint32_t slot = 0; slot < table_.slot_count(); ++slot) {
    if (!table_.IsLive(slot) || table_.rep_index(slot) > t) continue;
    if (ctx_->hasher.SampledAtLevel(table_.rep_cell(slot), level_ + 1)) {
      // Nestedness: it was accepted at ℓ already.
      plan.promote_accepted.push_back(slot);
      continue;
    }
    // Own cell unsampled at ℓ+1: rejected if a nearby cell is sampled,
    // dropped otherwise.
    ctx_->grid.AdjacentCells(store_->View(table_.rep_ref(slot)),
                             ctx_->options.alpha, &adj);
    bool near_sampled = false;
    for (uint64_t key : adj) {
      if (ctx_->hasher.SampledAtLevel(key, level_ + 1)) {
        near_sampled = true;
        break;
      }
    }
    if (near_sampled) {
      plan.promote_rejected.push_back(slot);
    } else {
      // The group is dropped entirely at the higher level.
      plan.drop.push_back(slot);
    }
  }
  return plan;
}

bool SwFixedRateSampler::SplitPromote(std::vector<GroupRecord>* promoted) {
  promoted->clear();
  SplitPlan plan = PlanSplit();
  if (!plan.found) return false;
  for (uint32_t slot : plan.promote_accepted) {
    GroupRecord moved = Materialize(slot);
    moved.accepted = true;
    promoted->push_back(std::move(moved));
  }
  for (uint32_t slot : plan.promote_rejected) {
    GroupRecord moved = Materialize(slot);
    moved.accepted = false;
    promoted->push_back(std::move(moved));
  }
  const auto remove = [this](uint32_t slot) {
    if (table_.accepted(slot)) --accept_size_;
    table_.Remove(slot);
  };
  for (uint32_t slot : plan.promote_accepted) remove(slot);
  for (uint32_t slot : plan.promote_rejected) remove(slot);
  for (uint32_t slot : plan.drop) remove(slot);
  return true;
}

bool SwFixedRateSampler::PromoteInto(SwFixedRateSampler* upper) {
  RL0_CHECK(upper != nullptr && upper->store_ == store_);
  RL0_CHECK(upper->level_ == level_ + 1);
  SplitPlan plan = PlanSplit();
  if (!plan.found) return false;
  const auto move = [this, upper](uint32_t slot, bool accepted) {
    if (table_.accepted(slot)) --accept_size_;
    SwGroupTable::MovedGroup g = table_.Extract(slot);
    g.accepted = accepted;
    if (accepted) ++upper->accept_size_;
    upper->table_.AdoptMoved(std::move(g));
  };
  for (uint32_t slot : plan.promote_accepted) move(slot, true);
  for (uint32_t slot : plan.promote_rejected) move(slot, false);
  for (uint32_t slot : plan.drop) {
    if (table_.accepted(slot)) --accept_size_;
    table_.Remove(slot);
  }
  return true;
}

void SwFixedRateSampler::MergeFrom(std::vector<GroupRecord>&& incoming) {
  for (GroupRecord& g : incoming) Adopt(std::move(g));
}

size_t SwFixedRateSampler::SpaceWords() const {
  size_t words = table_.live() * GroupWords() + 4 /* scalars */;
  if (ctx_->options.random_representative) {
    // Σ WindowedReservoir::SpaceWords over the live groups, from the
    // table's running candidate total (no slot walk per insert).
    words += table_.reservoir_candidates() *
                 WindowedReservoir::CandidateWords(ctx_->options.dim) +
             table_.live() * WindowedReservoir::kScalarWords;
  }
  return words;
}

}  // namespace rl0
