#include "runtime/metrics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <span>
#include <utility>

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

void RadixSortNonNegative(std::span<double> values,
                          std::span<double> buffer) {
  const size_t n = values.size();
  assert(buffer.size() >= n);
  if (n < 2) return;
  // One pass counts all eight byte digits; a digit every key shares
  // (the sign and high exponent bits of a series spanning a few
  // octaves) leaves the order as it is and its pass is skipped.
  constexpr int kDigits = 8;
  std::array<std::array<size_t, 256>, kDigits> counts{};
  for (const double x : values) {
    const uint64_t key = std::bit_cast<uint64_t>(x);
    assert(key >> 63 == 0);
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  double* src = values.data();
  double* dst = buffer.data();
  for (int d = 0; d < kDigits; ++d) {
    const int shift = 8 * d;
    std::array<size_t, 256>& next = counts[d];
    if (next[(std::bit_cast<uint64_t>(src[0]) >> shift) & 0xFF] == n) continue;
    size_t offset = 0;
    for (size_t& c : next) offset += std::exchange(c, offset);
    for (size_t i = 0; i < n; ++i) {
      const double x = src[i];
      dst[next[(std::bit_cast<uint64_t>(x) >> shift) & 0xFF]++] = x;
    }
    std::swap(src, dst);
  }
  if (src != values.data()) std::copy_n(src, n, values.data());
}

namespace {

/// Summary of one ascending run: the mean of its ascending-order sum, its
/// last value as the max, percentiles by QuantileOfSorted.
LatencySummary SummarizeSorted(std::span<const double> sorted) {
  LatencySummary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  double sum = 0.0;
  for (const double x : sorted) sum += x;
  s.mean = sum / static_cast<double>(sorted.size());
  s.max = sorted.back();
  s.p50 = QuantileOfSorted(sorted, 0.50);
  s.p95 = QuantileOfSorted(sorted, 0.95);
  s.p99 = QuantileOfSorted(sorted, 0.99);
  return s;
}

using SortedRuns = std::array<std::span<const double>, 3>;

/// The value of rank `k` (0-based) in the union of the ascending `runs`,
/// which must hold more than k values. That value v lies in some run,
/// where it is the first element x with more than k values <= x in the
/// union; that element has at most k values < x in the union. In any
/// other run the first such element is the first one >= v, and it passes
/// the second test only when it equals v. Two binary searches deep.
double ValueOfRank(const SortedRuns& runs, size_t k) {
  const auto count = [&runs](double x, bool inclusive) {
    size_t c = 0;
    for (const auto& run : runs) {
      c += static_cast<size_t>(
          (inclusive ? std::upper_bound(run.begin(), run.end(), x)
                     : std::lower_bound(run.begin(), run.end(), x)) -
          run.begin());
    }
    return c;
  };
  for (const auto& run : runs) {
    const auto it = std::partition_point(
        run.begin(), run.end(), [&](double x) { return count(x, true) <= k; });
    if (it != run.end() && count(*it, false) <= k) return *it;
  }
  assert(false && "rank out of range");
  return 0.0;
}

/// QuantileOfSorted of the union of `runs` (n values, n > 0), with the
/// same interpolation between the two ranks around q * (n - 1).
double QuantileOfSortedRuns(const SortedRuns& runs, size_t n, double q) {
  if (n == 1) return ValueOfRank(runs, 0);
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  const double a = ValueOfRank(runs, lo);
  const double b = hi == lo ? a : ValueOfRank(runs, hi);
  return a + frac * (b - a);
}

}  // namespace

PhasedLatency MetricsCollector::SummarizePhases(double first_cut,
                                                double second_cut) {
  assert(exact());
  const std::span<double> lat = total_samples_.mutable_samples();
  const std::span<double> times(output_times_);
  assert(lat.size() == times.size());
  const size_t n = lat.size();
  // Cut first, then hand the time column to the sort as its buffer: each
  // phase sorts into its own slice of it.
  const auto cut = [&times](size_t from, double t) {
    return static_cast<size_t>(
        std::lower_bound(times.begin() + static_cast<ptrdiff_t>(from),
                         times.end(), t) -
        times.begin());
  };
  const size_t first = cut(0, first_cut);
  const std::array<size_t, 4> bounds = {0, first, cut(first, second_cut), n};
  PhasedLatency out;
  SortedRuns runs;
  for (size_t p = 0; p < 3; ++p) {
    const size_t len = bounds[p + 1] - bounds[p];
    RadixSortNonNegative(lat.subspan(bounds[p], len),
                         times.subspan(bounds[p], len));
    runs[p] = lat.subspan(bounds[p], len);
    out.phases[p] = SummarizeSorted(runs[p]);
  }
  output_times_.clear();

  LatencySummary& total = out.total;
  total.count = total_stats_.count();
  total.exact = true;
  if (n == 0) return out;
  total.mean = total_stats_.mean();
  total.max = total_stats_.max();
  total.p50 = QuantileOfSortedRuns(runs, n, 0.50);
  total.p95 = QuantileOfSortedRuns(runs, n, 0.95);
  total.p99 = QuantileOfSortedRuns(runs, n, 0.99);
  return out;
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
