#include "rl0/core/reorder_buffer.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "rl0/util/check.h"

namespace rl0 {

namespace {

/// The raw IEEE-754 word of a coordinate (total order proxy that never
/// equates distinct bit patterns, unlike operator< on doubles).
uint64_t CoordBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

bool ReorderStage::CanonicalLess(const Point& a, int64_t stamp_a,
                                 const Point& b, int64_t stamp_b) {
  if (stamp_a != stamp_b) return stamp_a < stamp_b;
  if (a.dim() != b.dim()) return a.dim() < b.dim();
  for (size_t i = 0; i < a.dim(); ++i) {
    const uint64_t bits_a = CoordBits(a[i]);
    const uint64_t bits_b = CoordBits(b[i]);
    if (bits_a != bits_b) return bits_a < bits_b;
  }
  return false;
}

void ReorderStage::SortCanonical(std::vector<Point>* points,
                                 std::vector<int64_t>* stamps) {
  RL0_CHECK(points->size() == stamps->size());
  std::vector<size_t> order(points->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t i, size_t j) {
    return CanonicalLess((*points)[i], (*stamps)[i], (*points)[j],
                         (*stamps)[j]);
  });
  std::vector<Point> sorted_points;
  std::vector<int64_t> sorted_stamps;
  sorted_points.reserve(points->size());
  sorted_stamps.reserve(stamps->size());
  for (size_t i : order) {
    sorted_points.push_back(std::move((*points)[i]));
    sorted_stamps.push_back((*stamps)[i]);
  }
  *points = std::move(sorted_points);
  *stamps = std::move(sorted_stamps);
}

ReorderStage::ReorderStage(int64_t allowed_lateness, LatePolicy /*policy*/)
    : allowed_lateness_(allowed_lateness),
      released_bound_(std::numeric_limits<int64_t>::min()) {
  RL0_CHECK(allowed_lateness >= 0);
}

void ReorderStage::StageReleasesBelow(int64_t bound) {
  // Min-heap pops yield canonical order directly, so a release of k
  // points costs k·log(buffered) — no full sort of the buffer.
  const auto heap_greater = [](const Held& a, const Held& b) {
    return CanonicalLess(b.point, b.stamp, a.point, a.stamp);
  };
  while (!heap_.empty() && heap_.front().stamp < bound) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_greater);
    Held& top = heap_.back();
    released_points_.push_back(std::move(top.point));
    released_stamps_.push_back(top.stamp);
    heap_.pop_back();
    ++released_;
  }
}

void ReorderStage::Offer(const Point& p, int64_t stamp) {
  ++offered_;
  if (!has_watermark_ || stamp > max_stamp_) {
    has_watermark_ = true;
    max_stamp_ = stamp;
  }
  if (stamp < released_bound_) {
    // Beyond the lateness bound: the sorted prefix this point belongs
    // to has already been released; slotting it in would emit a
    // decreasing stamp downstream.
    ++late_dropped_;
    return;
  }
  heap_.push_back(Held{p, stamp});
  std::push_heap(heap_.begin(), heap_.end(), [](const Held& a, const Held& b) {
    return CanonicalLess(b.point, b.stamp, a.point, a.stamp);
  });
  // Advance the frontier (high watermark − lateness, underflow-clamped)
  // and release the sorted prefix strictly below it. Strict: a tie at
  // the frontier stamp could still gain within-bound members, and ties
  // must release together to stay arrival-order invariant.
  const int64_t floor = std::numeric_limits<int64_t>::min();
  const int64_t frontier = max_stamp_ >= floor + allowed_lateness_
                               ? max_stamp_ - allowed_lateness_
                               : floor;
  if (frontier > released_bound_) {
    StageReleasesBelow(frontier);
    released_bound_ = frontier;
  }
}

void ReorderStage::OfferBatch(Span<const Point> points,
                              Span<const int64_t> stamps) {
  RL0_CHECK(stamps.size() == points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    Offer(points[i], stamps[i]);
  }
}

void ReorderStage::Flush() {
  if (heap_.empty()) {
    // Still advance the release bound: post-flush arrivals at or below
    // the high watermark would tie-break against already released
    // points, so they must be judged late.
    if (has_watermark_ && released_bound_ <= max_stamp_) {
      released_bound_ = max_stamp_ < std::numeric_limits<int64_t>::max()
                            ? max_stamp_ + 1
                            : max_stamp_;
    }
    return;
  }
  StageReleasesBelow(std::numeric_limits<int64_t>::max());
  RL0_CHECK(heap_.empty());
  released_bound_ = max_stamp_ < std::numeric_limits<int64_t>::max()
                        ? max_stamp_ + 1
                        : max_stamp_;
}

bool ReorderStage::TakeReleased(std::vector<Point>* points,
                                std::vector<int64_t>* stamps) {
  if (released_points_.empty()) return false;
  *points = std::move(released_points_);
  *stamps = std::move(released_stamps_);
  released_points_.clear();
  released_stamps_.clear();
  return true;
}

ReorderStats ReorderStage::stats() const {
  ReorderStats s;
  s.offered = offered_;
  s.released = released_;
  s.late_dropped = late_dropped_;
  // Staged-but-untaken points already count as released; buffered is the
  // heap only, so the accounting identity holds at every point.
  s.buffered = heap_.size();
  s.has_watermark = has_watermark_;
  s.max_stamp = max_stamp_;
  s.watermark = has_watermark_ ? watermark() : 0;
  return s;
}

size_t ReorderStage::SpaceWords() const {
  size_t words = 0;
  for (const Held& h : heap_) words += h.point.dim() + 2;
  for (const Point& p : released_points_) words += p.dim() + 1;
  words += released_stamps_.size();
  return words;
}

}  // namespace rl0
