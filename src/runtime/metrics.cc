#include "runtime/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/stats.h"

namespace rod::sim {
namespace {

/// Decorrelates per-sink reservoir streams from the run-level stream
/// without consuming any run randomness (splitmix64-style mix).
uint64_t SinkSeed(uint64_t base, uint32_t sink_op) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (uint64_t{sink_op} + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

MetricsCollector::MetricsCollector(size_t num_nodes, double window_sec,
                                   double duration, LatencyStatsOptions stats)
    : stats_options_(stats),
      total_samples_(stats.reservoir, stats.seed),
      node_busy_(num_nodes, 0.0),
      window_busy_(static_cast<size_t>(std::ceil(duration / window_sec)),
                   num_nodes),
      window_sec_(window_sec),
      duration_(duration) {
  assert(num_nodes > 0 && window_sec > 0 && duration > 0);
}

void MetricsCollector::GrowSinks(size_t count) {
  for (size_t op = sinks_.size(); op < count; ++op) {
    sinks_.push_back(SinkAccumulator{
        {},
        ReservoirSampler(stats_options_.reservoir,
                         SinkSeed(stats_options_.seed,
                                  static_cast<uint32_t>(op)))});
  }
}

namespace {

/// Quantile by selection: nth_element at the two ranks QuantileOfSorted
/// would interpolate between. The k-th order statistic is the same value
/// whether found by a full sort or a partial selection, so this is
/// bit-identical to sorting `v` and calling QuantileOfSorted — at O(n)
/// instead of O(n log n) per quantile. Runs once per (node, sink) at the
/// end of every run, which dominates finalization for large exact-mode
/// sample sets and short sweep runs. Partially reorders `v`.
double QuantileBySelection(std::vector<double>& v, double q) {
  const size_t n = v.size();
  if (n == 0) return 0.0;
  if (n == 1) return v[0];
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(lo), v.end());
  const double a = v[static_cast<ptrdiff_t>(lo)];
  double b = a;
  if (hi != lo) {
    // The (lo+1)-th order statistic is the minimum of what nth_element
    // left to the right of position lo.
    b = *std::min_element(v.begin() + static_cast<ptrdiff_t>(lo) + 1, v.end());
  }
  return a + frac * (b - a);
}

}  // namespace

LatencySummary MetricsCollector::Summarize(const RunningStats& stats,
                                           const ReservoirSampler& samples) {
  LatencySummary s;
  s.count = stats.count();
  s.exact = samples.exact();
  if (s.count == 0) return s;
  s.mean = stats.mean();
  s.max = stats.max();
  std::vector<double> scratch(samples.samples());
  s.p50 = QuantileBySelection(scratch, 0.50);
  s.p95 = QuantileBySelection(scratch, 0.95);
  s.p99 = QuantileBySelection(scratch, 0.99);
  return s;
}

LatencySummary MetricsCollector::TotalLatency() const {
  return Summarize(total_stats_, total_samples_);
}

std::vector<std::pair<uint32_t, LatencySummary>>
MetricsCollector::SinkSummaries() const {
  std::vector<std::pair<uint32_t, LatencySummary>> out;
  for (uint32_t op = 0; op < sinks_.size(); ++op) {
    const SinkAccumulator& acc = sinks_[op];
    if (acc.stats.count() > 0) {
      out.emplace_back(op, Summarize(acc.stats, acc.samples));
    }
  }
  return out;
}

const std::vector<double>& MetricsCollector::SinkSamples(
    uint32_t sink_op) const {
  static const std::vector<double> kEmpty;
  return sink_op < sinks_.size() ? sinks_[sink_op].samples.samples() : kEmpty;
}

double MetricsCollector::NodeUtilization(size_t node,
                                         double capacity_duration) const {
  assert(node < node_busy_.size());
  return capacity_duration > 0 ? node_busy_[node] / capacity_duration : 0.0;
}

double MetricsCollector::WindowMaxBusyFraction(size_t w) const {
  assert(w < window_busy_.rows());
  double max_frac = 0.0;
  for (size_t i = 0; i < window_busy_.cols(); ++i) {
    max_frac = std::max(max_frac, window_busy_(w, i) / window_sec_);
  }
  return max_frac;
}

size_t MetricsCollector::OverloadedWindows(double threshold) const {
  size_t count = 0;
  for (size_t w = 0; w < window_busy_.rows(); ++w) {
    for (size_t i = 0; i < window_busy_.cols(); ++i) {
      if (window_busy_(w, i) / window_sec_ >= threshold) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace rod::sim
