// Copyright (c) the ROD reproduction authors.
//
// The engine's FIFO container: node queues, join windows, the network's
// tuple columns and the event queue's in-order lane all use it.

#ifndef ROD_RUNTIME_FIFO_BUFFER_H_
#define ROD_RUNTIME_FIFO_BUFFER_H_

#include <cstddef>
#include <vector>

namespace rod::sim {

/// FIFO over a vector: pop_front advances a head index and lazily
/// compacts once the dead prefix dominates, so push/pop are amortized
/// O(1) without deque's per-block allocations, and capacity survives
/// clear() for reuse across simulation runs.
template <typename T>
class FifoBuffer {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  void push_back(const T& v) { items_.push_back(v); }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  /// The most recently pushed live element (undefined when empty).
  T& back() { return items_.back(); }
  const T& back() const { return items_.back(); }

  void pop_front() {
    ++head_;
    if (head_ >= 32 && head_ * 2 >= items_.size()) Compact();
  }

  /// Drops all elements, keeping the allocation.
  void clear() {
    items_.clear();
    head_ = 0;
  }

  /// Live elements, front to back.
  const T* begin() const { return items_.data() + head_; }
  const T* end() const { return items_.data() + items_.size(); }

  /// The i-th live element (0 = front).
  const T& at(size_t i) const { return items_[head_ + i]; }

  /// Removes and returns the i-th live element, preserving the order of
  /// the rest. O(size - i); overflow eviction only, never the hot path.
  T RemoveAt(size_t i) {
    T v = items_[head_ + i];
    items_.erase(items_.begin() + static_cast<ptrdiff_t>(head_ + i));
    if (head_ == items_.size()) clear();
    return v;
  }

  /// Moves the elements matching `pred` into `out` (in queue order) and
  /// keeps the rest, preserving their order. O(size), in place.
  template <typename Pred>
  void ExtractInto(Pred pred, std::vector<T>& out) {
    size_t w = head_;
    for (size_t r = head_; r < items_.size(); ++r) {
      if (pred(items_[r])) {
        out.push_back(items_[r]);
      } else {
        if (w != r) items_[w] = items_[r];
        ++w;
      }
    }
    items_.resize(w);
    if (head_ == items_.size()) clear();
  }

 private:
  void Compact() {
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }

  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_FIFO_BUFFER_H_
