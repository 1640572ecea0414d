// Copyright (c) the ROD reproduction authors.
//
// Discrete-event core of the stream-processing runtime simulator: a
// deterministic min-time event queue. Ties are broken by insertion
// sequence so identical seeds replay identically.
//
// The queue is a calendar plus one completion slot per node. Service
// completions are most of the engine's events (see SimulationResult::
// events_by_type), and a node has at most one live completion at a time,
// so each waits in its node's slot; every other event goes to the
// calendar. Slot and calendar pushes stamp their seq from one counter. A
// completion pushed into a slot that is still occupied (a crashed node
// recovered and restarted service before its cancelled completion's
// time) spills the old event into the calendar with its original seq, so
// every event keeps the seq it was pushed with. Pop takes the (time, seq)
// minimum of the calendar front and the earliest slot. The earliest slot
// is cached and re-found by a branch-free linear scan only when it pops or
// spills: the engine runs at most a handful of nodes.
//
// The calendar is a bucketed calendar queue (Brown, CACM '88). Events
// hash to `floor((time - base) / width)` virtual slots; virtual slots
// wrap onto a power-of-two bucket array and each bucket is kept as a
// small (time, seq) binary heap. The engine's event times are
// near-monotone, so push and pop are O(1) amortized; the structure
// resizes itself (gather + redistribute) when occupancy drifts.
// Correctness does not depend on floating-point bucket boundaries: the pop
// test compares virtual slots computed by the same monotone time->slot map
// used on push, so an event in an earlier slot can never be passed over,
// and equal times always share a bucket where the heap breaks ties by seq.
// Pop order is therefore the (time, seq) order of a plain binary heap over
// all events, which tests/event_queue_test.cc keeps as its reference.

#ifndef ROD_RUNTIME_EVENT_QUEUE_H_
#define ROD_RUNTIME_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/event.h"
#include "telemetry/telemetry.h"

namespace rod::sim {

/// Min-queue of events ordered by (time, seq).
class EventQueue {
 public:
  /// Schedules an event in the calendar; `time` must be finite. Defined
  /// inline (with the rest of the push/pop hot path) so the engine's event
  /// loop can fold the queue operations into its own body.
  void Push(double time, EventType type, uint32_t index, uint64_t tag = 0) {
    assert(std::isfinite(time));
    PushCalendar(Event{time, next_seq_++, type, index, tag});
    NoteSize();
  }

  /// Schedules node `node`'s service completion, a kNodeDone event
  /// carrying `token`, in the node's slot; `time` must be finite. An event
  /// still in the slot spills into the calendar, keeping its seq.
  void PushCompletion(double time, uint32_t node, uint64_t token) {
    assert(std::isfinite(time));
    if (node >= slots_.size()) slots_.resize(node + 1, Event{.time = kVacant});
    if (slots_[node].time != kVacant) Spill(node);
    // The new event has the largest seq yet, so it only takes over as the
    // earliest slot when strictly earlier.
    if (time < slots_[earliest_slot_].time) earliest_slot_ = node;
    slots_[node] = Event{time, next_seq_++, EventType::kNodeDone, node, token};
    ++slotted_;
    NoteSize();
  }

  bool empty() const { return size() == 0; }
  size_t size() const { return cal_size_ + slotted_; }

  /// Sequence number the next Push or PushCompletion will stamp. Two
  /// pushes with no intervening push have consecutive seqs, which the
  /// engine's delivery batcher uses to prove a pending batch event is
  /// still the most recently scheduled work at its arrival time.
  uint64_t next_seq() const { return next_seq_; }

  /// Removes and returns the earliest event.
  Event Pop() {
    assert(!empty());
    if (pending_high_water_ != 0) {
      size_high_water_.Max(static_cast<double>(pending_high_water_));
      pending_high_water_ = 0;
    }
    if (cal_size_ == 0) return PopSlot();
    const size_t b = FindMinBucket();
    if (slotted_ != 0) {
      const Event& slot = slots_[earliest_slot_];
      const Event& front = buckets_[b].front();
      if (slot.time < front.time ||
          (slot.time == front.time && slot.seq < front.seq)) {
        return PopSlot();
      }
    }
    return PopBucket(b);
  }

  /// Pre-sizes internal storage for about `n` concurrently queued events.
  void Reserve(size_t n);

  /// Empties the queue and resets the tie-break sequence counter, keeping
  /// allocated storage so a pooled queue can be reused across runs.
  void Clear();

  /// Telemetry sink for calendar resize events (`engine.calendar.resizes`
  /// counter + "calendar_resize" instants) and the
  /// `event_queue.size_high_water` gauge (peak queued events, slot events
  /// included; the Aggregator resets it each sample, so a sample reads
  /// "peak since the previous sample"). Pushes ratchet a plain integer;
  /// the gauge itself is written at most once per Pop — so with no
  /// telemetry attached a push pays one predicted branch, and with
  /// telemetry attached the gauge update is amortized over every push
  /// between two pops (one batched delivery event covers its whole tuple
  /// batch). The at most one-pop delay is invisible to the Aggregator's
  /// periodic sampling. Not owned; null disables. Never consulted outside
  /// Push/Pop, so re-attaching per run is safe.
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
  /// Time of an empty slot: later than any pushed (finite) time.
  static constexpr double kVacant = std::numeric_limits<double>::infinity();

  /// Integer-only high-water ratchet; Pop flushes it into the gauge. With
  /// no telemetry attached this is a single never-taken branch.
  void NoteSize() {
    if (track_high_water_ && size() > pending_high_water_) {
      pending_high_water_ = size();
    }
  }

  /// Files `e`, seq already stamped, in the calendar.
  void PushCalendar(const Event& e) {
    if (buckets_.empty()) {
      buckets_.resize(kMinBuckets);
      mask_ = kMinBuckets - 1;
    }
    if (cal_size_ == 0) {
      // Re-anchor the calendar on the first event so virtual slot numbers
      // stay small; width is corrected by the next rebuild if stale.
      base_ = e.time;
      cur_vslot_ = 0;
      cur_bucket_ = 0;
    }
    const size_t bucket_count = mask_ + 1;
    if (cal_size_ + 1 > 2 * bucket_count && bucket_count < kMaxBuckets) {
      Rebuild(bucket_count * 2);
    }
    const uint64_t vslot = VslotOf(e.time);
    if (vslot < cur_vslot_) {
      // Non-monotone push behind the cursor: walk the cursor back so the
      // "no event earlier than the cursor slot" invariant holds.
      cur_vslot_ = vslot;
      cur_bucket_ = static_cast<size_t>(vslot) & mask_;
    }
    auto& bucket = buckets_[static_cast<size_t>(vslot) & mask_];
    bucket.push_back(e);
    // Near-monotone pushes mostly land in empty buckets; skip the heap
    // call (and its comparator setup) for the singleton case.
    if (bucket.size() > 1) {
      std::push_heap(bucket.begin(), bucket.end(), Later{});
    }
    ++cal_size_;
  }

  /// Removes and returns the calendar's earliest event, the front of
  /// bucket `b` (as found by FindMinBucket).
  Event PopBucket(size_t b) {
    auto& bucket = buckets_[b];
    if (bucket.size() > 1) {
      std::pop_heap(bucket.begin(), bucket.end(), Later{});
    }
    Event e = bucket.back();
    bucket.pop_back();
    --cal_size_;
    const size_t bucket_count = mask_ + 1;
    if (bucket_count > kMinBuckets && cal_size_ < bucket_count / 8) {
      // Shrink straight to the balanced size (~2 events per bucket) in one
      // gather instead of halving once per pop: a pooled queue that starts
      // a run with last run's large bucket array would otherwise pay a
      // chain of rebuilds, each walking the whole array.
      size_t target = kMinBuckets;
      while (target < 2 * cal_size_) target *= 2;
      Rebuild(target);
    }
    return e;
  }

  /// Empties the earliest slot and returns its event.
  Event PopSlot() {
    Event& slot = slots_[earliest_slot_];
    const Event e = slot;
    slot.time = kVacant;
    --slotted_;
    earliest_slot_ = EarliestSlot();
    return e;
  }

  /// Index of the slot with the least (time, seq); any vacant slot when
  /// all are. Selects by masks, not conditionals: which slot wins is
  /// data-dependent, and the compiler turns conditionals here into
  /// branches that mispredict.
  size_t EarliestSlot() const {
    size_t best = 0;
    double best_time = slots_[0].time;
    uint64_t best_seq = slots_[0].seq;
    for (size_t i = 1; i < slots_.size(); ++i) {
      const double t = slots_[i].time;
      const uint64_t q = slots_[i].seq;
      const bool earlier =
          (t < best_time) | ((t == best_time) & (q < best_seq));
      const uint64_t take = uint64_t{0} - earlier;  // All ones if earlier.
      best ^= (best ^ i) & take;
      best_seq ^= (best_seq ^ q) & take;
      best_time = std::min(best_time, t);  // The winner's time either way.
    }
    return best;
  }

  /// Moves slot `node`'s event into the calendar, seq unchanged.
  void Spill(uint32_t node);

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
    assert(cal_size_ > 0);
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

  size_t cal_size_ = 0;  ///< Events in the calendar.
  size_t slotted_ = 0;   ///< Occupied completion slots.
  uint64_t next_seq_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  bool track_high_water_ = false;    ///< Cached (telemetry_ != nullptr).
  size_t pending_high_water_ = 0;    ///< Peak size() since the last flush.
  telemetry::Gauge size_high_water_; ///< Flushed from the pending peak.

  // `slots_[n]` holds node n's pending completion (time kVacant if none);
  // `earliest_slot_` indexes the least (time, seq) among them.
  std::vector<Event> slots_;
  size_t earliest_slot_ = 0;

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
