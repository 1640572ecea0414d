// Copyright (c) the ROD reproduction authors.
//
// A simulated processing node: one CPU serving queued tasks. Capacity
// scales service times (a node with capacity C executes `cost` CPU-seconds
// of work in `cost / C` wall seconds), exactly the paper's model of "the
// available CPU cycles on each machine ... are fixed and known". Two
// Borealis-style scheduling disciplines are provided: a single global FIFO
// and per-operator queues served round-robin (which isolates cheap query
// paths from bursts on expensive ones).
//
// All queues are flat ring-ish buffers (vector + head index with amortized
// compaction) and the round-robin state is indexed by operator id, so a
// node allocates only while a queue grows past its high-water mark —
// steady-state Enqueue/StartService never touch the allocator, and pooled
// nodes reused across runs (SimNode::Reset) start with warm capacity.

#ifndef ROD_RUNTIME_NODE_H_
#define ROD_RUNTIME_NODE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "runtime/fifo_buffer.h"

namespace rod::sim {

/// How a node picks the next task to serve.
enum class Scheduling {
  kFifo,        ///< One global arrival-order queue.
  kRoundRobin,  ///< Per-operator queues served cyclically.
};

/// What a bounded ingress queue does with a tuple that would push it past
/// capacity. Communication (kCommTask) tasks are bookkeeping, not data,
/// and are never bounded or evicted.
enum class OverflowPolicy {
  kDropNewest,   ///< Reject the arriving tuple (tail drop).
  kDropOldest,   ///< Evict the longest-queued tuple, admit the arrival.
  kRandom,       ///< Drop uniformly among the queued tuples + the arrival.
  kQosWeighted,  ///< Evict the lowest drop-weight tuple (semantic shed);
                 ///< the arrival is rejected when it weighs least itself.
};

/// Ingress-queue bound of one node. capacity 0 keeps the legacy
/// unbounded queues (the bit-exact default).
struct QueueBound {
  size_t capacity = 0;  ///< Max queued *tuple* tasks (comm tasks exempt).
  OverflowPolicy policy = OverflowPolicy::kDropNewest;
};

/// A unit of work queued on a node: process one tuple at one operator, or
/// pay a communication overhead (op == kCommTask).
struct Task {
  /// Sentinel operator id for pure communication (send-side) work.
  static constexpr uint32_t kCommTask = UINT32_MAX;

  uint32_t op = 0;      ///< Target operator, or kCommTask.
  uint32_t port = 0;    ///< Which input of the operator the tuple arrived on.
  double origin = 0.0;  ///< Source timestamp carried for latency accounting.
  double extra_cost = 0.0;  ///< Additional CPU-seconds (receive-side comm).
};

/// Single-server queue with busy-time accounting.
class SimNode {
 public:
  explicit SimNode(double capacity,
                   Scheduling scheduling = Scheduling::kFifo)
      : capacity_(capacity), scheduling_(scheduling) {}

  double capacity() const { return capacity_; }
  Scheduling scheduling() const { return scheduling_; }
  bool busy() const { return busy_; }
  size_t queue_length() const { return queued_; }
  size_t tuple_queue_length() const { return queued_tuples_; }
  size_t queue_high_water() const { return queue_high_water_; }
  double busy_time() const { return busy_time_; }
  size_t tasks_processed() const { return tasks_processed_; }

  /// Reinitializes the node for a fresh run (pooled reuse): queues are
  /// emptied but keep their storage, counters reset, capacity and
  /// discipline replaced. Clears any queue bound.
  void Reset(double capacity, Scheduling scheduling);

  /// Installs a queue bound (capacity 0 = unbounded) and, for
  /// kQosWeighted, the per-operator drop-weight table (borrowed; must
  /// outlive the run; ops >= `num_weights` weigh 1.0).
  void ConfigureOverflow(const QueueBound& bound,
                         const double* drop_weights = nullptr,
                         size_t num_weights = 0);

  /// Enqueues a task; the engine starts service separately. Inline (as
  /// are StartService / FinishService below): these run a few times per
  /// simulated event and the engine loop is compiled -O3.
  void Enqueue(const Task& task) {
    ++queued_;
    if (task.op != Task::kCommTask) {
      ++queued_tuples_;
      if (queued_tuples_ > queue_high_water_) {
        queue_high_water_ = queued_tuples_;
      }
    }
    if (scheduling_ == Scheduling::kFifo) {
      fifo_.push_back(task);
      return;
    }
    FifoBuffer<Task>& bucket = BucketFor(task.op);
    if (bucket.empty()) rr_order_.push_back(task.op);
    bucket.push_back(task);
  }

  /// What EnqueueBounded did with the arriving task.
  struct EnqueueOutcome {
    bool accepted = true;  ///< The arrival is now queued.
    bool evicted = false;  ///< An already-queued tuple was dropped for it.
    Task victim{};         ///< The evicted tuple (valid iff `evicted`).
  };

  /// Enqueue honouring the configured bound: comm tasks and under-bound
  /// tuples are admitted unconditionally; at capacity the overflow policy
  /// decides who is dropped. `rng` is only drawn from by kRandom, and
  /// only on overflow.
  EnqueueOutcome EnqueueBounded(const Task& task, Rng& rng);

  /// True iff a task is available and the CPU is idle.
  bool CanStart() const { return !busy_ && queued_ > 0; }

  /// Pops the next task per the scheduling discipline and marks the node
  /// busy. Caller computes the service duration (join probe costs depend
  /// on window state) and calls FinishService with it when the completion
  /// event fires.
  Task StartService() {
    assert(CanStart());
    busy_ = true;
    --queued_;
    if (scheduling_ == Scheduling::kFifo) {
      Task task = fifo_.front();
      fifo_.pop_front();
      if (task.op != Task::kCommTask) --queued_tuples_;
      return task;
    }
    return StartServiceRoundRobin();
  }

  /// Marks the current task finished after `service_seconds` of wall time.
  void FinishService(double service_seconds) {
    assert(busy_);
    busy_ = false;
    busy_time_ += service_seconds;
    ++tasks_processed_;
  }

  /// Cancels the in-flight task without crediting busy time (node crash:
  /// the work is lost, the caller accounts the partial busy interval).
  void AbortService();

  /// Empties every queue and returns the dropped tasks (node crash).
  std::vector<Task> DrainAll();

  /// Removes and returns the queued tasks matching `pred`, preserving the
  /// arrival order of the survivors (operator migration re-homes queued
  /// work onto the operator's new host).
  std::vector<Task> ExtractIf(const std::function<bool(const Task&)>& pred);

  /// The operator with the most queued tasks and its count (0 tasks ->
  /// {Task::kCommTask, 0}); diagnostic for runaway-load aborts.
  std::pair<uint32_t, size_t> HottestOperator() const;

  /// Rescales capacity mid-run (slowdown / recovery). Affects services
  /// started after the call; the in-flight one keeps its old rate.
  void set_capacity(double capacity);

  /// Wall-clock service time of `cpu_cost` CPU-seconds on this node.
  double ServiceTime(double cpu_cost) const { return cpu_cost / capacity_; }

 private:
  /// The round-robin bucket of `op` (kCommTask maps to the comm bucket),
  /// growing the per-operator table on first sight of a new id.
  FifoBuffer<Task>& BucketFor(uint32_t op);

  /// Round-robin tail of StartService (cold next to the FIFO path).
  Task StartServiceRoundRobin();

  double DropWeightOf(uint32_t op) const {
    return (drop_weights_ != nullptr && op < num_weights_) ? drop_weights_[op]
                                                           : 1.0;
  }

  /// Removes the oldest queued tuple task (round-robin: the front of the
  /// fullest bucket, lowest operator id on ties — the tuple whose wait is
  /// deepest). Requires queued_tuples_ > 0.
  Task EvictOldestTuple();

  /// Removes the i-th queued tuple task in deterministic enumeration
  /// order (FIFO: queue order; round-robin: ascending operator id, then
  /// bucket order). Requires i < queued_tuples_.
  Task EvictNthTuple(size_t i);

  /// A queued tuple's position and drop weight.
  struct CheapestTuple {
    FifoBuffer<Task>* bucket = nullptr;  ///< Null: no tuple qualifies.
    uint32_t op = Task::kCommTask;       ///< The bucket's round-robin id.
    size_t index = 0;                    ///< Position in `bucket`.
    double weight = std::numeric_limits<double>::infinity();
  };

  /// The first queued tuple of least drop weight, in one scan: FIFO in
  /// queue order (the oldest such tuple), round-robin the front of the
  /// lowest-id bucket of least weight. Weights must be below +inf to
  /// qualify.
  CheapestTuple FindCheapestTuple();

  /// Removes the i-th live element of `bucket`, maintaining queue/rr
  /// bookkeeping. `op` identifies the bucket under round-robin.
  Task RemoveFromBucket(FifoBuffer<Task>& bucket, uint32_t op, size_t i);

  double capacity_;
  Scheduling scheduling_;
  size_t queued_ = 0;
  size_t queued_tuples_ = 0;      ///< Queued tasks with op != kCommTask.
  size_t queue_high_water_ = 0;   ///< Max queued_tuples_ seen this run.
  QueueBound bound_;
  const double* drop_weights_ = nullptr;  ///< Borrowed, kQosWeighted only.
  size_t num_weights_ = 0;
  bool busy_ = false;
  double busy_time_ = 0.0;
  size_t tasks_processed_ = 0;

  // kFifo state.
  FifoBuffer<Task> fifo_;

  // kRoundRobin state: per-operator queues (indexed by operator id; comm
  // work has its own bucket) plus the cyclic order of buckets that
  // currently have work (each id appears at most once).
  std::vector<FifoBuffer<Task>> per_op_;
  FifoBuffer<Task> comm_;
  FifoBuffer<uint32_t> rr_order_;
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_NODE_H_
