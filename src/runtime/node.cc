#include "runtime/node.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace rod::sim {

void SimNode::Reset(double capacity, Scheduling scheduling) {
  assert(capacity > 0.0);
  capacity_ = capacity;
  scheduling_ = scheduling;
  queued_ = 0;
  queued_tuples_ = 0;
  queue_high_water_ = 0;
  bound_ = QueueBound{};
  drop_weights_ = nullptr;
  num_weights_ = 0;
  busy_ = false;
  busy_time_ = 0.0;
  tasks_processed_ = 0;
  fifo_.clear();
  for (auto& bucket : per_op_) bucket.clear();
  comm_.clear();
  rr_order_.clear();
}

void SimNode::ConfigureOverflow(const QueueBound& bound,
                                const double* drop_weights,
                                size_t num_weights) {
  bound_ = bound;
  drop_weights_ = drop_weights;
  num_weights_ = num_weights;
}

FifoBuffer<Task>& SimNode::BucketFor(uint32_t op) {
  if (op == Task::kCommTask) return comm_;
  if (op >= per_op_.size()) per_op_.resize(op + 1);
  return per_op_[op];
}

namespace {

void RemoveFromOrder(FifoBuffer<uint32_t>& order, uint32_t op) {
  std::vector<uint32_t> dropped;
  order.ExtractInto([op](uint32_t o) { return o == op; }, dropped);
}

}  // namespace

Task SimNode::RemoveFromBucket(FifoBuffer<Task>& bucket, uint32_t op,
                               size_t i) {
  Task victim = bucket.RemoveAt(i);
  assert(victim.op != Task::kCommTask);
  if (scheduling_ == Scheduling::kRoundRobin && bucket.empty()) {
    RemoveFromOrder(rr_order_, op);
  }
  --queued_;
  --queued_tuples_;
  return victim;
}

Task SimNode::EvictOldestTuple() {
  assert(queued_tuples_ > 0);
  if (scheduling_ == Scheduling::kFifo) {
    for (size_t i = 0; i < fifo_.size(); ++i) {
      if (fifo_.at(i).op != Task::kCommTask) {
        return RemoveFromBucket(fifo_, Task::kCommTask, i);
      }
    }
    assert(false && "queued_tuples_ > 0 but no tuple in the FIFO");
    return Task{};
  }
  // Round-robin has no single global age order; drop the head of the
  // fullest bucket (lowest operator id on ties) — the queue with the
  // deepest backlog sheds first, deterministically.
  size_t best = per_op_.size();
  for (size_t op = 0; op < per_op_.size(); ++op) {
    if (per_op_[op].empty()) continue;
    if (best == per_op_.size() || per_op_[op].size() > per_op_[best].size()) {
      best = op;
    }
  }
  assert(best < per_op_.size());
  return RemoveFromBucket(per_op_[best], static_cast<uint32_t>(best), 0);
}

Task SimNode::EvictNthTuple(size_t i) {
  assert(i < queued_tuples_);
  if (scheduling_ == Scheduling::kFifo) {
    for (size_t k = 0; k < fifo_.size(); ++k) {
      if (fifo_.at(k).op == Task::kCommTask) continue;
      if (i == 0) return RemoveFromBucket(fifo_, Task::kCommTask, k);
      --i;
    }
    assert(false && "tuple index out of range");
    return Task{};
  }
  for (size_t op = 0; op < per_op_.size(); ++op) {
    FifoBuffer<Task>& bucket = per_op_[op];
    if (i < bucket.size()) {
      return RemoveFromBucket(bucket, static_cast<uint32_t>(op), i);
    }
    i -= bucket.size();
  }
  assert(false && "tuple index out of range");
  return Task{};
}

SimNode::CheapestTuple SimNode::FindCheapestTuple() {
  CheapestTuple best;
  if (scheduling_ == Scheduling::kFifo) {
    for (size_t i = 0; i < fifo_.size(); ++i) {
      const Task& t = fifo_.at(i);
      if (t.op == Task::kCommTask) continue;
      const double w = DropWeightOf(t.op);
      if (w < best.weight) {  // strict: ties keep the first (oldest) tuple
        best = {&fifo_, Task::kCommTask, i, w};
      }
    }
    return best;
  }
  for (size_t op = 0; op < per_op_.size(); ++op) {
    if (per_op_[op].empty()) continue;
    const double w = DropWeightOf(static_cast<uint32_t>(op));
    if (w < best.weight) {
      best = {&per_op_[op], static_cast<uint32_t>(op), 0, w};
    }
  }
  return best;
}

SimNode::EnqueueOutcome SimNode::EnqueueBounded(const Task& task, Rng& rng) {
  if (task.op == Task::kCommTask || bound_.capacity == 0 ||
      queued_tuples_ < bound_.capacity) {
    Enqueue(task);
    return EnqueueOutcome{};
  }
  EnqueueOutcome out;
  switch (bound_.policy) {
    case OverflowPolicy::kDropNewest:
      out.accepted = false;
      return out;
    case OverflowPolicy::kDropOldest:
      out.victim = EvictOldestTuple();
      out.evicted = true;
      break;
    case OverflowPolicy::kRandom: {
      // Uniform over the queued tuples plus the arrival itself, so every
      // candidate is equally likely to be the drop.
      const size_t pick = rng.NextIndex(queued_tuples_ + 1);
      if (pick == queued_tuples_) {
        out.accepted = false;
        return out;
      }
      out.victim = EvictNthTuple(pick);
      out.evicted = true;
      break;
    }
    case OverflowPolicy::kQosWeighted: {
      // Semantic shed: the least valuable tuple goes. Ties favour the
      // queued tuples (reject the arrival), which keeps the policy
      // work-conserving for uniform weights. One scan finds the victim
      // and its weight.
      const CheapestTuple cheapest = FindCheapestTuple();
      if (cheapest.bucket == nullptr ||
          DropWeightOf(task.op) <= cheapest.weight) {
        out.accepted = false;
        return out;
      }
      out.victim =
          RemoveFromBucket(*cheapest.bucket, cheapest.op, cheapest.index);
      out.evicted = true;
      break;
    }
  }
  Enqueue(task);
  return out;
}

Task SimNode::StartServiceRoundRobin() {
  assert(!rr_order_.empty());
  const uint32_t op = rr_order_.front();
  rr_order_.pop_front();
  FifoBuffer<Task>& bucket = BucketFor(op);
  assert(!bucket.empty());
  Task task = bucket.front();
  bucket.pop_front();
  if (task.op != Task::kCommTask) --queued_tuples_;
  // Re-queue the operator at the back of the rotation if it still has
  // work (empty buckets simply leave the rotation, keeping storage).
  if (!bucket.empty()) rr_order_.push_back(op);
  return task;
}

void SimNode::AbortService() {
  assert(busy_);
  busy_ = false;
}

std::vector<Task> SimNode::DrainAll() {
  std::vector<Task> dropped;
  dropped.reserve(queued_);
  if (scheduling_ == Scheduling::kFifo) {
    dropped.assign(fifo_.begin(), fifo_.end());
    fifo_.clear();
  } else {
    // Per-operator queues in rotation order so the drop order is the
    // service order the tasks would have seen.
    for (uint32_t op : rr_order_) {
      FifoBuffer<Task>& bucket = BucketFor(op);
      dropped.insert(dropped.end(), bucket.begin(), bucket.end());
      bucket.clear();
    }
    rr_order_.clear();
  }
  queued_ = 0;
  queued_tuples_ = 0;
  return dropped;
}

std::vector<Task> SimNode::ExtractIf(
    const std::function<bool(const Task&)>& pred) {
  std::vector<Task> extracted;
  if (scheduling_ == Scheduling::kFifo) {
    fifo_.ExtractInto(pred, extracted);
    queued_ = fifo_.size();
    queued_tuples_ = 0;
    for (const Task& t : fifo_) {
      if (t.op != Task::kCommTask) ++queued_tuples_;
    }
    return extracted;
  }
  FifoBuffer<uint32_t> order;
  size_t remaining = 0;
  size_t remaining_tuples = 0;
  for (uint32_t op : rr_order_) {
    FifoBuffer<Task>& bucket = BucketFor(op);
    bucket.ExtractInto(pred, extracted);
    if (!bucket.empty()) {
      remaining += bucket.size();
      if (op != Task::kCommTask) remaining_tuples += bucket.size();
      order.push_back(op);
    }
  }
  rr_order_ = std::move(order);
  queued_ = remaining;
  queued_tuples_ = remaining_tuples;
  return extracted;
}

std::pair<uint32_t, size_t> SimNode::HottestOperator() const {
  std::pair<uint32_t, size_t> hottest{Task::kCommTask, 0};
  if (scheduling_ == Scheduling::kFifo) {
    std::unordered_map<uint32_t, size_t> counts;
    for (const Task& t : fifo_) ++counts[t.op];
    for (const auto& [op, n] : counts) {
      if (n > hottest.second) hottest = {op, n};
    }
    return hottest;
  }
  for (uint32_t op = 0; op < per_op_.size(); ++op) {
    if (per_op_[op].size() > hottest.second) hottest = {op, per_op_[op].size()};
  }
  if (comm_.size() > hottest.second) hottest = {Task::kCommTask, comm_.size()};
  return hottest;
}

void SimNode::set_capacity(double capacity) {
  assert(capacity > 0.0);
  capacity_ = capacity;
}

}  // namespace rod::sim
