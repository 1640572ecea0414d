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

/// p50, p95 and p99 of `v` by selection, bit-identical to sorting `v` and
/// calling QuantileOfSorted. Each quantile runs nth_element at the rank
/// QuantileOfSorted interpolates from and takes the next rank as the
/// minimum to its right. After a selection at rank r every element right
/// of r is >= every element left of it, so v[r..n) holds exactly order
/// statistics r..n-1; p95 and p99 therefore select only there, starting
/// at the previous quantile's rank (ranks only grow with q), and find the
/// same values a full sort would. Partially reorders `v`, which must not
/// be empty.
void SelectQuantiles(std::vector<double>& v, LatencySummary& s) {
  const size_t n = v.size();
  size_t from = 0;
  auto select = [&](double q) {
    if (n == 1) return v[0];
    const double pos = q * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const auto nth = v.begin() + static_cast<ptrdiff_t>(lo);
    std::nth_element(v.begin() + static_cast<ptrdiff_t>(from), nth, v.end());
    from = lo;
    const double a = *nth;
    const double b = lo + 1 < n ? *std::min_element(nth + 1, v.end()) : a;
    return a + frac * (b - a);
  };
  s.p50 = select(0.50);
  s.p95 = select(0.95);
  s.p99 = select(0.99);
}

}  // namespace

LatencySummary MetricsCollector::Summarize(
    const RunningStats& stats, const ReservoirSampler& samples) const {
  LatencySummary s;
  s.count = stats.count();
  s.exact = samples.exact();
  if (s.count == 0) return s;
  s.mean = stats.mean();
  s.max = stats.max();
  summary_scratch_.assign(samples.samples().begin(), samples.samples().end());
  SelectQuantiles(summary_scratch_, s);
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
