#include "runtime/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rod::sim {

size_t EventQueue::FindMinBucketSparse() {
  // Sparse epoch: no event within a full wrap of the cursor. Find the
  // global minimum directly and jump the cursor to its slot. Distinct
  // buckets never hold equal-time fronts (equal times share a slot), so
  // the (time, seq) comparison below is a total order over fronts.
  size_t best = buckets_.size();
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].empty()) continue;
    if (best == buckets_.size() ||
        Later{}(buckets_[best].front(), buckets_[b].front())) {
      best = b;
    }
  }
  assert(best < buckets_.size());
  cur_vslot_ = VslotOf(buckets_[best].front().time);
  cur_bucket_ = static_cast<size_t>(cur_vslot_) & mask_;
  return best;
}

void EventQueue::Rebuild(size_t new_bucket_count) {
  if (telemetry_ != nullptr) {
    telemetry_->Count("engine.calendar.resizes");
    telemetry_->RecordInstant("engine", "calendar_resize", new_bucket_count,
                              /*has_arg=*/true);
  }
  scratch_.clear();
  scratch_.reserve(cal_size_);
  for (auto& bucket : buckets_) {
    scratch_.insert(scratch_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  if (new_bucket_count != buckets_.size()) {
    buckets_.resize(new_bucket_count);
    mask_ = new_bucket_count - 1;
  }
  if (scratch_.empty()) {
    cur_vslot_ = 0;
    cur_bucket_ = 0;
    return;
  }
  double min_time = scratch_.front().time;
  double max_time = min_time;
  for (const Event& e : scratch_) {
    min_time = std::min(min_time, e.time);
    max_time = std::max(max_time, e.time);
  }
  base_ = min_time;
  // About one event per virtual slot: with bucket_count ~= size / 2 the
  // live span covers a couple of cursor wraps, keeping both the year
  // scan and the per-bucket heaps short.
  width_ = (max_time - min_time) / static_cast<double>(scratch_.size());
  if (!(width_ > 0.0)) width_ = 1.0;
  inv_width_ = 1.0 / width_;
  // A denormal width would overflow the inverse; a degenerate (single
  // slot) calendar is slow but still correct, so just keep it finite.
  if (!std::isfinite(inv_width_)) {
    width_ = 1.0;
    inv_width_ = 1.0;
  }
  for (const Event& e : scratch_) {
    auto& bucket = buckets_[static_cast<size_t>(VslotOf(e.time)) & mask_];
    bucket.push_back(e);
    std::push_heap(bucket.begin(), bucket.end(), Later{});
  }
  cur_vslot_ = 0;  // base_ is the minimum event time, i.e. slot 0.
  cur_bucket_ = 0;
}

void EventQueue::Reserve(size_t n) {
  scratch_.reserve(n);
  size_t bucket_count = kMinBuckets;
  while (bucket_count < kMaxBuckets && 2 * bucket_count < n) {
    bucket_count *= 2;
  }
  if (bucket_count > buckets_.size() && cal_size_ == 0) {
    buckets_.resize(bucket_count);
    mask_ = bucket_count - 1;
  }
}

void EventQueue::Spill(uint32_t node) {
  PushCalendar(slots_[node]);
  slots_[node].time = kVacant;
  --slotted_;
  earliest_slot_ = EarliestSlot();
}

void EventQueue::Clear() {
  for (auto& bucket : buckets_) bucket.clear();
  cal_size_ = 0;
  slots_.clear();
  slotted_ = 0;
  earliest_slot_ = 0;
  next_seq_ = 0;
  pending_high_water_ = 0;
  base_ = 0.0;
  width_ = 1.0;
  inv_width_ = 1.0;
  cur_vslot_ = 0;
  cur_bucket_ = 0;
}

}  // namespace rod::sim
