// Tests for the deterministic event queue.

#include "runtime/event_queue.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace rod::sim {
namespace {

/// The reference (time, seq) order: a plain std::push_heap/pop_heap
/// binary heap. Push stamps sequence numbers exactly like EventQueue;
/// PushStamped takes an event with the seq the queue stamped on it.
class ReferenceHeap {
 public:
  void Push(double time, EventType type, uint32_t index, uint64_t tag = 0) {
    PushStamped(Event{time, next_seq_++, type, index, tag});
  }

  void PushStamped(const Event& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  Event Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  void Clear() {
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  static bool Later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
};

/// Drives the queue's heap (Push only) and the reference heap through the
/// same randomized push/pop schedule and asserts every popped event
/// matches field-for-field.
void CheckPushMatchesHeap(uint64_t seed, size_t steps,
                          double (*next_time)(Rng&, double)) {
  EventQueue queue;
  ReferenceHeap heap;
  Rng rng(seed);
  double now = 0.0;
  for (size_t step = 0; step < steps; ++step) {
    const bool push = queue.empty() || rng.NextDouble() < 0.6;
    if (push) {
      const double t = next_time(rng, now);
      const auto type = static_cast<EventType>(rng.NextIndex(6));
      const auto index = static_cast<uint32_t>(rng.NextIndex(64));
      const uint64_t tag = rng.NextU64();
      queue.Push(t, type, index, tag);
      heap.Push(t, type, index, tag);
    } else {
      ASSERT_EQ(queue.size(), heap.size());
      const Event a = queue.Pop();
      const Event b = heap.Pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.type, b.type);
      ASSERT_EQ(a.index, b.index);
      ASSERT_EQ(a.tag, b.tag);
      now = a.time;  // simulation clock advances with pops
    }
  }
  while (!queue.empty()) {
    ASSERT_FALSE(heap.empty());
    const Event a = queue.Pop();
    const Event b = heap.Pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(heap.empty());
}

/// Drives the queue's three sources (`num_slots` completion slots, the
/// in-order lane and the heap) and the reference heap through one seeded
/// schedule of pushes, pops and Clear() calls. The reference gets every
/// event with the seq the queue stamped on it; pop order, size() and
/// empty() must agree at every step. Times mix near-monotone draws, a
/// coarse grid (exact ties, including with the clock), repeats of the
/// previous push's time (events of two sources at one instant) and a few
/// slot and heap pushes behind the clock. A lane push whose draw falls
/// behind the previous lane push takes that push's time instead, so lane
/// times never decrease and tie with the clock, with slot and heap events
/// and with each other. Completions for a few slots arrive faster than
/// they pop, so many land in an occupied slot and spill.
void CheckSlotsMatchHeap(uint64_t seed, size_t steps, uint32_t num_slots) {
  EventQueue queue;
  ReferenceHeap heap;
  Rng rng(seed);
  double now = 0.0;
  double last_pushed = 0.0;
  double last_lane = 0.0;
  for (size_t step = 0; step < steps; ++step) {
    ASSERT_EQ(queue.size(), heap.size());
    ASSERT_EQ(queue.empty(), heap.empty());
    const double action = rng.NextDouble();
    if (action < 0.002) {
      queue.Clear();
      heap.Clear();
      now = 0.0;
      last_pushed = 0.0;
      last_lane = 0.0;
      continue;
    }
    if (queue.empty() || action < 0.56) {
      const double draw = rng.NextDouble();
      double t = last_pushed;
      if (draw < 0.45) {
        t = now + rng.Exponential(10.0);
      } else if (draw < 0.75) {
        t = now + 0.25 * static_cast<double>(rng.NextIndex(4));
      } else if (draw < 0.95) {
        t = last_pushed;
      } else {
        t = std::max(0.0, now - rng.NextDouble());
      }
      Event e{t, queue.next_seq(), EventType::kNodeDone, 0, rng.NextU64()};
      const double source = rng.NextDouble();
      if (source < 0.45) {
        e.index = static_cast<uint32_t>(rng.NextIndex(num_slots));
        queue.PushCompletion(e.time, e.index, e.tag);
      } else if (source < 0.7) {
        e.time = std::max(t, last_lane);
        e.type = EventType::kNetworkDelivery;
        e.index = static_cast<uint32_t>(rng.NextIndex(64));
        e.tag = 0;
        queue.PushInOrder(e.time, e.type, e.index);
        last_lane = e.time;
      } else {
        e.type = static_cast<EventType>(rng.NextIndex(kNumEventTypes));
        e.index = static_cast<uint32_t>(rng.NextIndex(64));
        queue.Push(e.time, e.type, e.index, e.tag);
      }
      heap.PushStamped(e);
      last_pushed = e.time;
    } else {
      const Event a = queue.Pop();
      const Event b = heap.Pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.type, b.type);
      ASSERT_EQ(a.index, b.index);
      ASSERT_EQ(a.tag, b.tag);
      now = a.time;
    }
  }
  while (!queue.empty()) {
    ASSERT_EQ(queue.size(), heap.size());
    const Event a = queue.Pop();
    const Event b = heap.Pop();
    ASSERT_EQ(a.time, b.time);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.Push(3.0, EventType::kNodeDone, 0);
  q.Push(1.0, EventType::kExternalArrival, 1);
  q.Push(2.0, EventType::kNodeDone, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.Pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.Pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, EqualTimesPopInInsertionOrder) {
  EventQueue q;
  for (uint32_t i = 0; i < 10; ++i) q.Push(5.0, EventType::kNodeDone, i);
  for (uint32_t i = 0; i < 10; ++i) {
    const Event e = q.Pop();
    EXPECT_EQ(e.index, i);
  }
}

TEST(EventQueueTest, CarriesTypeAndIndex) {
  EventQueue q;
  q.Push(1.0, EventType::kNodeDone, 42);
  const Event e = q.Pop();
  EXPECT_EQ(e.type, EventType::kNodeDone);
  EXPECT_EQ(e.index, 42u);
  EXPECT_EQ(e.tag, 0u);  // default payload
}

TEST(EventQueueTest, CarriesTagPayload) {
  EventQueue q;
  q.Push(1.0, EventType::kNodeDone, 3, 77);
  q.Push(2.0, EventType::kFault, 0);
  q.Push(3.0, EventType::kMigrationRelease, 9);
  EXPECT_EQ(q.Pop().tag, 77u);
  EXPECT_EQ(q.Pop().type, EventType::kFault);
  const Event e = q.Pop();
  EXPECT_EQ(e.type, EventType::kMigrationRelease);
  EXPECT_EQ(e.index, 9u);
}

TEST(EventQueueTest, InterleavedPushPop) {
  EventQueue q;
  q.Push(10.0, EventType::kNodeDone, 0);
  q.Push(5.0, EventType::kNodeDone, 1);
  EXPECT_EQ(q.Pop().index, 1u);
  q.Push(7.0, EventType::kNodeDone, 2);
  q.Push(1.0, EventType::kNodeDone, 3);
  EXPECT_EQ(q.Pop().index, 3u);
  EXPECT_EQ(q.Pop().index, 2u);
  EXPECT_EQ(q.Pop().index, 0u);
}

TEST(EventQueueTest, BothImplsHonorBasicOrder) {
  // The queue's heap and the reference heap agree on a hand-checked
  // order, ties included.
  EventQueue queue;
  ReferenceHeap heap;
  queue.Push(3.0, EventType::kNodeDone, 0);
  heap.Push(3.0, EventType::kNodeDone, 0);
  queue.Push(1.0, EventType::kExternalArrival, 1);
  heap.Push(1.0, EventType::kExternalArrival, 1);
  // Equal-time tie: insertion order.
  queue.Push(1.0, EventType::kNodeDone, 2);
  heap.Push(1.0, EventType::kNodeDone, 2);
  queue.Push(2.0, EventType::kNodeDone, 3);
  heap.Push(2.0, EventType::kNodeDone, 3);
  for (uint32_t expected : {1u, 2u, 3u, 0u}) {
    EXPECT_EQ(queue.Pop().index, expected);
    EXPECT_EQ(heap.Pop().index, expected);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(heap.empty());
}

TEST(EventQueueTest, PropertyCalendarMatchesHeapNearMonotone) {
  // Engine-like workload on the heap (named when the queue was a
  // calendar): pushes land a bit ahead of the current clock.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    CheckPushMatchesHeap(seed, 20000, [](Rng& rng, double now) {
      return now + rng.Exponential(10.0);
    });
  }
}

TEST(EventQueueTest, PropertyCalendarMatchesHeapWithTiesAndNonMonotone) {
  // Adversarial workload on the heap: coarse time grid (many exact ties,
  // including ties with already-popped times pushed again — non-monotone
  // pushes) plus occasional far-future outliers.
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    CheckPushMatchesHeap(seed, 20000, [](Rng& rng, double now) {
      const double r = rng.NextDouble();
      if (r < 0.5) {
        // Quantized near-now times: heavy equal-time collisions.
        return std::max(0.0, now - 2.0) +
               static_cast<double>(rng.NextIndex(8));
      }
      if (r < 0.9) return now + rng.NextDouble() * 5.0;
      return now + 1000.0 + rng.NextDouble() * 1e6;  // sparse outlier
    });
  }
}

TEST(EventQueueTest, PropertyCalendarMatchesHeapOnIdenticalTimes) {
  // Degenerate span: every event at the same instant, so the heap orders
  // by seq alone.
  CheckPushMatchesHeap(99, 5000, [](Rng&, double) { return 42.0; });
}

TEST(EventQueueTest, PropertyCalendarSurvivesGrowShrinkCycles) {
  // Deep fill then full drain, repeated: the heap grows and empties with
  // the pop order still matching the reference.
  EventQueue queue;
  ReferenceHeap heap;
  Rng rng(7);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 3000; ++i) {
      const double t = rng.NextDouble() * 100.0;
      queue.Push(t, EventType::kNodeDone, static_cast<uint32_t>(i));
      heap.Push(t, EventType::kNodeDone, static_cast<uint32_t>(i));
    }
    while (!queue.empty()) {
      const Event a = queue.Pop();
      const Event b = heap.Pop();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      ASSERT_EQ(a.index, b.index);
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventQueueTest, SlotsTieAndSpillInSeqOrder) {
  // Hand-checked: slot and heap events at one instant pop by seq, and a
  // completion pushed into an occupied slot spills the old one, which
  // keeps its seq and payload.
  EventQueue q;
  q.Push(1.0, EventType::kExternalArrival, 7);  // seq 0
  q.PushCompletion(1.0, 2, 70);                 // seq 1
  q.PushCompletion(2.0, 3, 80);                 // seq 2
  q.Push(2.0, EventType::kFault, 8);            // seq 3
  q.PushCompletion(1.5, 3, 90);                 // seq 4, spills seq 2
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.Pop().seq, 0u);
  EXPECT_EQ(q.Pop().seq, 1u);
  EXPECT_EQ(q.Pop().tag, 90u);
  const Event spilled = q.Pop();
  EXPECT_EQ(spilled.seq, 2u);
  EXPECT_EQ(spilled.type, EventType::kNodeDone);
  EXPECT_EQ(spilled.index, 3u);
  EXPECT_EQ(spilled.tag, 80u);
  EXPECT_EQ(q.Pop().seq, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, LaneSlotAndHeapTieInSeqOrder) {
  // Hand-checked: lane, slot and heap events at one instant pop by seq,
  // whichever source holds them; an earlier heap event pops first and a
  // later lane event last.
  EventQueue q;
  q.PushInOrder(1.0, EventType::kNetworkDelivery, 5);  // seq 0
  q.Push(1.0, EventType::kExternalArrival, 7);         // seq 1
  q.PushCompletion(1.0, 2, 70);                        // seq 2
  q.PushInOrder(1.0, EventType::kNetworkDelivery, 6);  // seq 3
  q.PushCompletion(1.0, 3, 80);                        // seq 4
  q.Push(1.0, EventType::kFault, 8);                   // seq 5
  q.PushInOrder(2.0, EventType::kNetworkDelivery, 9);  // seq 6
  q.Push(0.5, EventType::kOverloadCheck, 0);           // seq 7
  EXPECT_EQ(q.size(), 8u);
  const Event first = q.Pop();
  EXPECT_EQ(first.seq, 7u);
  EXPECT_EQ(first.type, EventType::kOverloadCheck);
  for (uint64_t seq = 0; seq < 6; ++seq) {
    const Event e = q.Pop();
    EXPECT_EQ(e.time, 1.0);
    EXPECT_EQ(e.seq, seq);
  }
  const Event last = q.Pop();
  EXPECT_EQ(last.seq, 6u);
  EXPECT_EQ(last.type, EventType::kNetworkDelivery);
  EXPECT_EQ(last.index, 9u);
  EXPECT_EQ(last.tag, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PropertySlotsMatchHeap) {
  for (uint32_t num_slots : {1u, 3u, 5u}) {
    for (uint64_t seed : {21u, 22u, 23u}) {
      CheckSlotsMatchHeap(seed * 10 + num_slots, 20000, num_slots);
    }
  }
}

TEST(EventQueueTest, ReserveDoesNotDisturbOrder) {
  EventQueue q;
  q.Reserve(4096);
  q.Push(2.0, EventType::kNodeDone, 0);
  q.Push(1.0, EventType::kNodeDone, 1);
  EXPECT_EQ(q.Pop().index, 1u);
  EXPECT_EQ(q.Pop().index, 0u);
}

TEST(EventQueueTest, ClearResetsSequenceForReuse) {
  EventQueue q;
  q.Push(1.0, EventType::kNodeDone, 0);
  q.Push(2.0, EventType::kNodeDone, 1);
  q.Clear();
  EXPECT_TRUE(q.empty());
  // Ties after Clear still resolve by (fresh) insertion order.
  q.Push(5.0, EventType::kNodeDone, 10);
  q.Push(5.0, EventType::kNodeDone, 11);
  const Event first = q.Pop();
  EXPECT_EQ(first.index, 10u);
  EXPECT_EQ(first.seq, 0u);  // sequence counter restarted
  EXPECT_EQ(q.Pop().index, 11u);
}

}  // namespace
}  // namespace rod::sim
