// Copyright (c) the ROD reproduction authors.
//
// Discrete-event core of the stream-processing runtime simulator: a
// deterministic min-time event queue. Ties are broken by insertion
// sequence so identical seeds replay identically.
//
// The queue is a bucketed calendar queue (Brown, CACM '88). Events hash
// to `floor((time - base) / width)` virtual slots; slots wrap onto a
// power-of-two bucket array and each bucket is kept as a small (time,
// seq) binary heap. The engine's event times are near-monotone, so push
// and pop are O(1) amortized; the structure resizes itself (gather +
// redistribute) when occupancy drifts. Correctness does not depend on
// floating-point bucket boundaries: the pop test compares virtual slots
// computed by the same monotone time->slot map used on push, so an event
// in an earlier slot can never be passed over, and equal times always
// share a bucket where the heap breaks ties by seq. Pop order is
// therefore the (time, seq) order of a plain binary heap over all
// events, which tests/event_queue_test.cc keeps as its reference.

#ifndef ROD_RUNTIME_EVENT_QUEUE_H_
#define ROD_RUNTIME_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/telemetry.h"

namespace rod::sim {

/// What a scheduled event means.
enum class EventType {
  kExternalArrival,   ///< Next tuple of input stream `index` arrives.
  kNodeDone,          ///< Node `index` finishes its current task.
  kNetworkDelivery,   ///< The oldest in-flight network transfer lands.
  kFault,             ///< Scheduled fault `index` fires (see chaos.h).
  kFailureDetected,   ///< The supervisor notices node `index` crashed.
  kMigrationRelease,  ///< Operator `index` finishes its migration pause.
  kOverloadCheck,     ///< The overload detector's periodic sample fires.
};

/// One scheduled simulation event.
struct Event {
  double time = 0.0;
  uint64_t seq = 0;  ///< Insertion order; makes equal-time ordering total.
  EventType type = EventType::kExternalArrival;
  uint32_t index = 0;  ///< Input stream id or node id, per `type`.
  uint64_t tag = 0;    ///< Optional payload; kNodeDone carries the service
                       ///< token so crashes can cancel stale completions.
};

/// Min-queue of events ordered by (time, seq).
class EventQueue {
 public:
  /// Schedules an event; `time` must be finite. Defined inline (with the
  /// rest of the push/pop hot path) so the engine's event loop can fold
  /// the queue operations into its own body.
  void Push(double time, EventType type, uint32_t index, uint64_t tag = 0) {
    assert(std::isfinite(time));
    if (buckets_.empty()) {
      buckets_.resize(kMinBuckets);
      mask_ = kMinBuckets - 1;
    }
    if (size_ == 0) {
      // Re-anchor the calendar on the first event so virtual slot numbers
      // stay small; width is corrected by the next rebuild if stale.
      base_ = time;
      cur_vslot_ = 0;
      cur_bucket_ = 0;
    }
    const size_t bucket_count = mask_ + 1;
    if (size_ + 1 > 2 * bucket_count && bucket_count < kMaxBuckets) {
      Rebuild(bucket_count * 2);
    }
    const uint64_t vslot = VslotOf(time);
    if (vslot < cur_vslot_) {
      // Non-monotone push behind the cursor: walk the cursor back so the
      // "no event earlier than the cursor slot" invariant holds.
      cur_vslot_ = vslot;
      cur_bucket_ = static_cast<size_t>(vslot) & mask_;
    }
    auto& bucket = buckets_[static_cast<size_t>(vslot) & mask_];
    bucket.push_back(Event{time, next_seq_++, type, index, tag});
    // Near-monotone pushes mostly land in empty buckets; skip the heap
    // call (and its comparator setup) for the singleton case.
    if (bucket.size() > 1) {
      std::push_heap(bucket.begin(), bucket.end(), Later{});
    }
    ++size_;
    // Integer-only high-water ratchet; Pop flushes it into the gauge. With
    // no telemetry attached this is a single never-taken branch.
    if (track_high_water_ && size_ > pending_high_water_) {
      pending_high_water_ = size_;
    }
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Sequence number the next Push will stamp. Two pushes with no
  /// intervening Push have consecutive seqs, which the engine's delivery
  /// batcher uses to prove a pending batch event is still the most
  /// recently scheduled work at its arrival time.
  uint64_t next_seq() const { return next_seq_; }

  /// The earliest event (undefined when empty). Non-const: locating the
  /// minimum advances the bucket cursor.
  const Event& Top() { return buckets_[FindMinBucket()].front(); }

  /// Removes and returns the earliest event.
  Event Pop() {
    assert(size_ > 0);
    if (pending_high_water_ != 0) {
      size_high_water_.Max(static_cast<double>(pending_high_water_));
      pending_high_water_ = 0;
    }
    auto& bucket = buckets_[FindMinBucket()];
    if (bucket.size() > 1) {
      std::pop_heap(bucket.begin(), bucket.end(), Later{});
    }
    Event e = bucket.back();
    bucket.pop_back();
    --size_;
    const size_t bucket_count = mask_ + 1;
    if (bucket_count > kMinBuckets && size_ < bucket_count / 8) {
      // Shrink straight to the balanced size (~2 events per bucket) in one
      // gather instead of halving once per pop: a pooled queue that starts
      // a run with last run's large bucket array would otherwise pay a
      // chain of rebuilds, each walking the whole array.
      size_t target = kMinBuckets;
      while (target < 2 * size_) target *= 2;
      Rebuild(target);
    }
    return e;
  }

  /// Pre-sizes internal storage for about `n` concurrently queued events.
  void Reserve(size_t n);

  /// Empties the queue and resets the tie-break sequence counter, keeping
  /// allocated storage so a pooled queue can be reused across runs.
  void Clear();

  /// Telemetry sink for calendar resize events (`engine.calendar.resizes`
  /// counter + "calendar_resize" instants) and the
  /// `event_queue.size_high_water` gauge (peak queued events; the
  /// Aggregator resets it each sample, so a sample reads "peak since the
  /// previous sample"). Pushes ratchet a plain integer; the gauge itself
  /// is written at most once per Pop — so with no telemetry attached a
  /// push pays one predicted branch, and with telemetry attached the
  /// gauge update is amortized over every push between two pops (one
  /// batched delivery event covers its whole tuple batch). The at most
  /// one-pop delay is invisible to the Aggregator's periodic sampling.
  /// Not owned; null disables. Never consulted outside Push/Pop, so
  /// re-attaching per run is safe.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
    track_high_water_ = telemetry != nullptr;
    pending_high_water_ = 0;
    size_high_water_ = track_high_water_
                           ? telemetry->gauge("event_queue.size_high_water")
                           : telemetry::Gauge();
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr size_t kMinBuckets = 4;        // Power of two.
  static constexpr size_t kMaxBuckets = 1 << 20;  // Power of two.
  static constexpr uint64_t kMaxVslot = uint64_t{1} << 62;

  /// Monotone map from event time to virtual calendar slot. Shared by
  /// push placement and the pop-window test so rounding cannot strand or
  /// reorder events; out-of-range values clamp (still monotone).
  uint64_t VslotOf(double time) const {
    const double q = (time - base_) * inv_width_;
    // Clamp instead of casting out-of-range doubles (UB). The clamped map
    // stays monotone, which is all pop-order correctness needs.
    if (!(q > 0.0)) return 0;
    if (q >= static_cast<double>(kMaxVslot)) return kMaxVslot;
    return static_cast<uint64_t>(q);
  }

  /// Moves the cursor to the bucket holding the global minimum and
  /// returns that bucket's index.
  size_t FindMinBucket() {
    assert(size_ > 0);
    // Year scan: visit at most one full wrap of buckets looking for an
    // event whose virtual slot matches the cursor. The slot test reuses
    // VslotOf, so it agrees bit-for-bit with where Push filed the event.
    for (size_t step = 0; step <= mask_; ++step) {
      const auto& bucket = buckets_[cur_bucket_];
      if (!bucket.empty() && VslotOf(bucket.front().time) == cur_vslot_) {
        return cur_bucket_;
      }
      ++cur_vslot_;
      cur_bucket_ = static_cast<size_t>(cur_vslot_) & mask_;
    }
    return FindMinBucketSparse();
  }

  /// Sparse-epoch fallback of FindMinBucket: no event within a full wrap
  /// of the cursor; scans every bucket for the global minimum.
  size_t FindMinBucketSparse();

  /// Gathers every event and redistributes into `new_bucket_count`
  /// buckets with a width recomputed from the observed time span.
  void Rebuild(size_t new_bucket_count);

  size_t size_ = 0;
  uint64_t next_seq_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  bool track_high_water_ = false;    ///< Cached (telemetry_ != nullptr).
  size_t pending_high_water_ = 0;    ///< Peak size_ since the last flush.
  telemetry::Gauge size_high_water_; ///< Flushed from the pending peak.

  // `buckets_[s & mask_]` is a (time, seq) min-heap of the events whose
  // virtual slot s wraps there.
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> scratch_;  ///< Rebuild staging, reused across resizes.
  size_t mask_ = 0;             ///< bucket_count - 1 (power of two).
  double base_ = 0.0;           ///< Time of virtual slot 0.
  double width_ = 1.0;          ///< Seconds per virtual slot.
  double inv_width_ = 1.0;      ///< 1 / width_, cached: VslotOf multiplies
                                ///< instead of dividing. Multiplying by a
                                ///< positive constant is monotone in IEEE
                                ///< arithmetic and push/pop share the same
                                ///< map, so pop order is unaffected.
  uint64_t cur_vslot_ = 0;      ///< Cursor: earliest slot that may hold work.
  size_t cur_bucket_ = 0;       ///< cur_vslot_ & mask_.
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_EVENT_QUEUE_H_
