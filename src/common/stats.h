// Copyright (c) the ROD reproduction authors.
//
// Streaming and batch statistics used by the trace generators (normalized
// rate variability, Fig. 2), the runtime metrics (latency percentiles), and
// the experiment harnesses (mean/min/max ratios across trials).

#ifndef ROD_COMMON_STATS_H_
#define ROD_COMMON_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/random.h"

namespace rod {

/// Numerically stable running mean / variance / extrema (Welford).
class RunningStats {
 public:
  /// Incorporates one observation. Inline: this runs once per simulated
  /// tuple on the engine's output path.
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator into this one.
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-memory uniform sample of a stream (Vitter's Algorithm R). With
/// `capacity` 0 every observation is kept (exact mode); otherwise at most
/// `capacity` doubles are retained and each of the n observations seen so
/// far is present with probability capacity/n. Replacement draws come
/// from an internal Rng seeded at construction, so the retained set is a
/// pure function of (capacity, seed, observation order) — deterministic
/// across runs, threads, and platforms.
class ReservoirSampler {
 public:
  explicit ReservoirSampler(size_t capacity = 0, uint64_t seed = 0)
      : capacity_(capacity), rng_(seed) {}

  /// Incorporates one observation. Inline: the engine offers every sink
  /// output to two reservoirs (total + per-sink).
  void Add(double x) {
    ++count_;
    if (capacity_ == 0 || samples_.size() < capacity_) {
      samples_.push_back(x);
      return;
    }
    // Algorithm R: the incoming observation replaces a uniformly random
    // retained one with probability capacity / count.
    const uint64_t j = rng_.NextIndex(count_);
    if (j < capacity_) samples_[j] = x;
  }

  /// Total observations offered (not the retained count).
  size_t count() const { return count_; }

  /// True when every observation is retained (capacity 0, or the stream
  /// has not yet exceeded the capacity).
  bool exact() const { return capacity_ == 0 || count_ <= capacity_; }

  /// The retained sample, in an implementation-defined order.
  const std::vector<double>& samples() const { return samples_; }

  /// The retained sample, writable (an end-of-run summary sorts it in
  /// place).
  std::span<double> mutable_samples() { return samples_; }

  /// Drops all observations; keeps capacity, seed state, and storage.
  void Clear() {
    samples_.clear();
    count_ = 0;
  }

 private:
  size_t capacity_;
  size_t count_ = 0;
  std::vector<double> samples_;
  Rng rng_;
};

/// Batch percentile of `values` (q in [0,1]) using linear interpolation
/// between order statistics. Copies and sorts; intended for end-of-run
/// metric extraction, not hot paths. Returns 0 for empty input.
double Percentile(std::vector<double> values, double q);

/// Percentile of an already ascending-sorted span (q in [0,1]), linear
/// interpolation between order statistics; the allocation-free core of
/// `Percentile`. Returns 0 for empty input.
double QuantileOfSorted(std::span<const double> sorted, double q);

/// Pearson correlation coefficient of two equally sized series; returns 0
/// when either series is constant (the correlation-based baseline treats
/// constant-load operators as uncorrelated).
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// Mean of `v` (0 for empty input).
double Mean(const std::vector<double>& v);

/// Population standard deviation of `v` (0 for fewer than two elements).
double StdDev(const std::vector<double>& v);

/// Aggregates a series into coarser windows by summing groups of `factor`
/// consecutive elements (used by self-similarity analysis across
/// time-scales). The tail remainder that does not fill a window is dropped.
std::vector<double> AggregateSeries(const std::vector<double>& v, size_t factor);

}  // namespace rod

#endif  // ROD_COMMON_STATS_H_
