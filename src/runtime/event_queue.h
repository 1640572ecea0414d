// Copyright (c) the ROD reproduction authors.
//
// Discrete-event core of the stream-processing runtime simulator: a
// deterministic min-time event queue. Ties are broken by insertion
// sequence so identical seeds replay identically.
//
// Events wait in one of three sources, and every push stamps its seq from
// one counter:
// - One completion slot per node. Service completions are most of the
//   engine's events (see SimulationResult::events_by_type), and a node
//   has at most one live completion at a time, so each waits in its
//   node's slot. A completion pushed into a slot that is still occupied
//   (a crashed node recovered and restarted service before its cancelled
//   completion's time) spills the old event into the heap with its
//   original seq, so every event keeps the seq it was pushed with. The
//   earliest slot is cached and re-found by a branch-free linear scan
//   only when it pops or spills: the engine runs at most a handful of
//   nodes.
// - A FIFO lane for events pushed in time order (PushInOrder): the
//   engine's network deliveries, each at `now + network_latency`, a
//   constant added to a clock that never runs backwards. Lane times are
//   non-decreasing (asserted on every push) and lane seqs increase, so the
//   lane's front is its (time, seq) minimum without any comparison.
// - A (time, seq) binary heap for everything else: one arrival per input
//   stream, faults, detections and retries, overload checks, migration
//   releases and spilled completions. It stays small.
// Pop takes the (time, seq) minimum of the three heads. Seqs are unique
// and each head is its own source's minimum, so pop order is the
// (time, seq) order of one binary heap over all events, which
// tests/event_queue_test.cc keeps as its reference.

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
#include "runtime/fifo_buffer.h"
#include "telemetry/telemetry.h"

namespace rod::sim {

/// Min-queue of events ordered by (time, seq).
class EventQueue {
 public:
  /// Schedules an event in the heap; `time` must be finite. Defined
  /// inline, as is the whole queue, so the engine's event loop can fold
  /// the queue operations into its own body.
  void Push(double time, EventType type, uint32_t index, uint64_t tag = 0) {
    assert(std::isfinite(time));
    PushHeap(Event{time, next_seq_++, type, index, tag});
    NoteSize();
  }

  /// Schedules an event on the FIFO lane. `time` must be finite and no
  /// earlier than the previous PushInOrder's since the last Clear().
  void PushInOrder(double time, EventType type, uint32_t index) {
    assert(std::isfinite(time));
    assert(time >= lane_last_time_);
    lane_last_time_ = time;
    lane_.push_back(Event{time, next_seq_++, type, index, 0});
    NoteSize();
  }

  /// Schedules node `node`'s service completion, a kNodeDone event
  /// carrying `token`, in the node's slot; `time` must be finite. An event
  /// still in the slot spills into the heap, keeping its seq.
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
  size_t size() const { return heap_.size() + lane_.size() + slotted_; }

  /// Sequence number the next push will stamp. Two pushes with no
  /// intervening push have consecutive seqs, which the engine's delivery
  /// batcher uses to prove a pending batch event is still the most
  /// recently scheduled work at its arrival time.
  uint64_t next_seq() const { return next_seq_; }

  /// Removes and returns the earliest event.
  Event Pop() {
    assert(!empty());
    if (pending_high_water_ != 0) {
      size_high_water_.Max(static_cast<double>(pending_high_water_));
      pending_high_water_ = 0;
    }
    // An empty source offers kNone, which every queued event precedes.
    const Event& slot = slotted_ != 0 ? slots_[earliest_slot_] : kNone;
    const Event& lane = lane_.empty() ? kNone : lane_.front();
    const Event& heap = heap_.empty() ? kNone : heap_.front();
    if (Before(slot, lane) && Before(slot, heap)) return PopSlot();
    if (Before(lane, heap)) {
      const Event e = lane;
      lane_.pop_front();
      return e;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  /// Pre-sizes the heap for about `n` concurrently queued events.
  void Reserve(size_t n) { heap_.reserve(n); }

  /// Empties the queue and resets the tie-break sequence counter, keeping
  /// allocated storage so a pooled queue can be reused across runs.
  void Clear() {
    heap_.clear();
    lane_.clear();
    lane_last_time_ = -std::numeric_limits<double>::infinity();
    slots_.clear();
    slotted_ = 0;
    earliest_slot_ = 0;
    next_seq_ = 0;
    pending_high_water_ = 0;
  }

  /// Telemetry sink for the `event_queue.size_high_water` gauge (peak
  /// queued events, all three sources included; the Aggregator resets it
  /// each sample, so a sample reads "peak since the previous sample").
  /// Pushes ratchet a plain integer; the gauge itself is written at most
  /// once per Pop — so with no telemetry attached a push pays one
  /// predicted branch, and with telemetry attached the gauge update is
  /// amortized over every push between two pops (one batched delivery
  /// event covers its whole tuple batch). The at most one-pop delay is
  /// invisible to the Aggregator's periodic sampling. Not owned; null
  /// disables. Never consulted outside Push/Pop, so re-attaching per run
  /// is safe.
  void set_telemetry(telemetry::Telemetry* telemetry) {
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

  /// Time of an empty slot: later than any pushed (finite) time.
  static constexpr double kVacant = std::numeric_limits<double>::infinity();
  /// Head of an empty source: after every queued event in (time, seq).
  static constexpr Event kNone{kVacant, std::numeric_limits<uint64_t>::max()};

  static bool Before(const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  /// Integer-only high-water ratchet; Pop flushes it into the gauge. With
  /// no telemetry attached this is a single never-taken branch.
  void NoteSize() {
    if (track_high_water_ && size() > pending_high_water_) {
      pending_high_water_ = size();
    }
  }

  /// Files `e`, seq already stamped, in the heap.
  void PushHeap(const Event& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
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

  /// Moves slot `node`'s event into the heap, seq unchanged.
  void Spill(uint32_t node) {
    PushHeap(slots_[node]);
    slots_[node].time = kVacant;
    --slotted_;
    earliest_slot_ = EarliestSlot();
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

  uint64_t next_seq_ = 0;
  bool track_high_water_ = false;    ///< Telemetry attached.
  size_t pending_high_water_ = 0;    ///< Peak size() since the last flush.
  telemetry::Gauge size_high_water_; ///< Flushed from the pending peak.

  // `slots_[n]` holds node n's pending completion (time kVacant if none);
  // `earliest_slot_` indexes the least (time, seq) among them.
  std::vector<Event> slots_;
  size_t slotted_ = 0;  ///< Occupied completion slots.
  size_t earliest_slot_ = 0;

  FifoBuffer<Event> lane_;  ///< PushInOrder events, in push order.
  /// Time of the latest PushInOrder, for its precondition.
  double lane_last_time_ = -std::numeric_limits<double>::infinity();

  std::vector<Event> heap_;  ///< Every other event, a (time, seq) min-heap.
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_EVENT_QUEUE_H_
