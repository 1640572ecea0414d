// Tests for the runtime metrics collector.

#include "runtime/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "phase_oracle.h"

namespace rod::sim {
namespace {

TEST(MetricsTest, CountsInputsAndOutputs) {
  MetricsCollector m(2, 1.0, 10.0);
  m.RecordInput();
  m.RecordInput();
  m.RecordOutput(3, 0.5);
  EXPECT_EQ(m.inputs(), 2u);
  EXPECT_EQ(m.outputs(), 1u);
  EXPECT_EQ(m.latencies(), (std::vector<double>{0.5}));
}

TEST(MetricsTest, RecordsOutputCompletionTimes) {
  MetricsCollector m(1, 1.0, 10.0);
  m.RecordOutput(0, 0.5, 2.0);
  m.RecordOutput(0, 0.7, 4.5);
  EXPECT_EQ(m.output_times(), (std::vector<double>{2.0, 4.5}));
  EXPECT_EQ(m.output_times().size(), m.latencies().size());
}

TEST(MetricsTest, WindowMaxBusyFraction) {
  MetricsCollector m(2, 1.0, 3.0);
  m.RecordService(0, 0.0, 0.25);
  m.RecordService(1, 0.0, 0.75);
  m.RecordService(1, 1.0, 1.1);
  EXPECT_NEAR(m.WindowMaxBusyFraction(0), 0.75, 1e-12);
  EXPECT_NEAR(m.WindowMaxBusyFraction(1), 0.1, 1e-12);
  EXPECT_NEAR(m.WindowMaxBusyFraction(2), 0.0, 1e-12);
}

TEST(MetricsTest, PerSinkLatencyBuckets) {
  MetricsCollector m(1, 1.0, 5.0);
  m.RecordOutput(1, 0.1);
  m.RecordOutput(2, 0.2);
  m.RecordOutput(1, 0.3);
  const auto summaries = m.SinkSummaries();
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].first, 1u);
  EXPECT_EQ(summaries[0].second.count, 2u);
  EXPECT_EQ(summaries[1].first, 2u);
  EXPECT_EQ(summaries[1].second.count, 1u);
  EXPECT_EQ(m.SinkSamples(1), (std::vector<double>{0.1, 0.3}));
  EXPECT_EQ(m.SinkSamples(2), (std::vector<double>{0.2}));
  EXPECT_TRUE(m.SinkSamples(7).empty());
}

TEST(MetricsTest, TotalLatencySummaryIsExactByDefault) {
  MetricsCollector m(1, 1.0, 5.0);
  for (double x : {0.4, 0.1, 0.3, 0.2}) m.RecordOutput(0, x);
  const LatencySummary s = m.TotalLatency();
  EXPECT_TRUE(s.exact);
  EXPECT_TRUE(m.exact());
  EXPECT_EQ(s.count, 4u);
  EXPECT_NEAR(s.mean, 0.25, 1e-12);
  EXPECT_NEAR(s.max, 0.4, 1e-12);
  EXPECT_NEAR(s.p50, 0.25, 1e-12);
}

TEST(MetricsTest, SelectedPercentilesEqualSortedQuantiles) {
  // Summaries select p50, then p95 and p99 in what lies right of the
  // previous rank, one series after another through one buffer; each
  // must equal QuantileOfSorted on a sorted copy, bit for bit. Sizes
  // 1-70 cover every small rank, including sizes where p95 and p99 share
  // a rank; larger sizes and values drawn from {0, 1, 2} cover the rest.
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 70; ++n) sizes.push_back(n);
  for (size_t n : {101u, 257u, 1000u, 4099u}) sizes.push_back(n);
  Rng rng(2024);
  size_t shared_ranks = 0;
  for (bool duplicates : {false, true}) {
    MetricsCollector m(1, 1.0, 5.0);
    std::vector<std::vector<double>> series(sizes.size());
    std::vector<double> all;
    for (size_t i = 0; i < sizes.size(); ++i) {
      for (size_t k = 0; k < sizes[i]; ++k) {
        const double x = duplicates ? static_cast<double>(rng.NextIndex(3))
                                    : rng.NextDouble();
        series[i].push_back(x);
        all.push_back(x);
        m.RecordOutput(static_cast<uint32_t>(i), x);
      }
    }
    const auto expect_quantiles = [](std::vector<double> v,
                                     const LatencySummary& s) {
      std::sort(v.begin(), v.end());
      EXPECT_EQ(s.p50, QuantileOfSorted(v, 0.50)) << "n=" << v.size();
      EXPECT_EQ(s.p95, QuantileOfSorted(v, 0.95)) << "n=" << v.size();
      EXPECT_EQ(s.p99, QuantileOfSorted(v, 0.99)) << "n=" << v.size();
    };
    const auto summaries = m.SinkSummaries();
    ASSERT_EQ(summaries.size(), sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
      expect_quantiles(series[i], summaries[i].second);
      const double last = static_cast<double>(sizes[i] - 1);
      if (static_cast<size_t>(0.95 * last) ==
          static_cast<size_t>(0.99 * last)) {
        ++shared_ranks;
      }
    }
    expect_quantiles(all, m.TotalLatency());
  }
  EXPECT_GT(shared_ranks, 0u);
}

/// A latency from one of five shapes: few distinct values (ties), zero,
/// any magnitude from the smallest subnormal up to about 1e3 s, one
/// fixed value, or a typical millisecond-scale sample.
double DrawLatency(Rng& rng, int shape) {
  switch (shape) {
    case 0:
      return 1e-3 * static_cast<double>(rng.NextIndex(4));
    case 1:
      return 0.0;
    case 2:
      return std::ldexp(rng.NextDouble(),
                        static_cast<int>(rng.UniformInt(-1074, 10)));
    case 3:
      return 0.0021;
    default:
      return rng.Exponential(400.0);
  }
}

TEST(MetricsTest, RadixSortEqualsStdSort) {
  Rng rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = trial < 8 ? static_cast<size_t>(trial)
                               : rng.NextIndex(2000);
    const int shape = static_cast<int>(rng.NextIndex(6));
    std::vector<double> v(n);
    // Shape 5 mixes every other shape within one series.
    for (double& x : v) {
      x = DrawLatency(rng, shape < 5 ? shape
                                     : static_cast<int>(rng.NextIndex(5)));
    }
    std::vector<double> expected = v;
    std::sort(expected.begin(), expected.end());
    // A longer buffer than needed, its contents arbitrary.
    std::vector<double> buffer(n + rng.NextIndex(3), 0.5);
    RadixSortNonNegative(v, buffer);
    EXPECT_EQ(v, expected) << "trial " << trial << " n=" << n;
  }
}

TEST(MetricsTest, RadixSortHandlesEveryPassParity) {
  // Keys that differ in one byte only (one pass, the result lands in the
  // buffer and is copied back), in two bytes (two passes), or in none.
  const std::vector<double> one_pass = {
      std::bit_cast<double>(0x3f50000000000003ULL),
      std::bit_cast<double>(0x3f50000000000001ULL),
      std::bit_cast<double>(0x3f50000000000002ULL)};
  const std::vector<double> two_passes = {
      std::bit_cast<double>(0x3f50000000000201ULL),
      std::bit_cast<double>(0x3f50000000000102ULL),
      std::bit_cast<double>(0x3f50000000000101ULL)};
  for (const std::vector<double>& input :
       {one_pass, two_passes, std::vector<double>(5, 0.25)}) {
    std::vector<double> v = input;
    std::vector<double> buffer(v.size());
    RadixSortNonNegative(v, buffer);
    std::vector<double> expected = input;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(v, expected);
  }
}

/// Records (latency, time) pairs, cuts them at (c1, c2) and checks every
/// phase against the copy-and-sort oracle and the run against
/// TotalLatency(), bit for bit; then that the series was consumed.
void ExpectPhasesMatchOracle(const std::vector<double>& lat,
                             const std::vector<double>& times, double c1,
                             double c2) {
  ASSERT_EQ(lat.size(), times.size());
  MetricsCollector m(1, 1.0, 1e4);
  for (size_t i = 0; i < lat.size(); ++i) {
    m.RecordOutput(static_cast<uint32_t>(i % 3), lat[i], times[i]);
  }
  const LatencySummary before = m.TotalLatency();
  const auto first = static_cast<size_t>(
      std::lower_bound(times.begin(), times.end(), c1) - times.begin());
  const auto second = static_cast<size_t>(
      std::lower_bound(times.begin() + static_cast<ptrdiff_t>(first),
                       times.end(), c2) -
      times.begin());
  const std::span<const double> all(lat);
  const PhaseLatency oracle[3] = {
      OracleSummarizePhase(all.subspan(0, first)),
      OracleSummarizePhase(all.subspan(first, second - first)),
      OracleSummarizePhase(all.subspan(second))};

  const PhasedLatency got = m.SummarizePhases(c1, c2);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(got.phases[p].count, oracle[p].outputs) << "phase " << p;
    EXPECT_EQ(got.phases[p].mean, oracle[p].mean) << "phase " << p;
    EXPECT_EQ(got.phases[p].p50, oracle[p].p50) << "phase " << p;
    EXPECT_EQ(got.phases[p].p95, oracle[p].p95) << "phase " << p;
    EXPECT_EQ(got.phases[p].p99, oracle[p].p99) << "phase " << p;
  }
  EXPECT_EQ(got.total.count, before.count);
  EXPECT_EQ(got.total.exact, before.exact);
  EXPECT_EQ(got.total.mean, before.mean);
  EXPECT_EQ(got.total.max, before.max);
  EXPECT_EQ(got.total.p50, before.p50);
  EXPECT_EQ(got.total.p95, before.p95);
  EXPECT_EQ(got.total.p99, before.p99);

  // Consumed: each phase now ascending in place, the time column gone.
  std::vector<double> expected = lat;
  const auto b = expected.begin();
  std::sort(b, b + static_cast<ptrdiff_t>(first));
  std::sort(b + static_cast<ptrdiff_t>(first),
            b + static_cast<ptrdiff_t>(second));
  std::sort(b + static_cast<ptrdiff_t>(second), expected.end());
  EXPECT_EQ(m.latencies(), expected);
  EXPECT_TRUE(m.output_times().empty());
}

TEST(MetricsTest, PhasedSummaryEqualsSortedCopyOracle) {
  // Random series: nondecreasing completion times with runs of equal
  // instants (a batch of deliveries completes together), latencies of
  // every DrawLatency shape, and cuts at a recorded instant, between two,
  // before the first or after the last output.
  Rng rng(4242);
  const double inf = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < 500; ++trial) {
    const size_t n = rng.NextIndex(trial % 10 == 0 ? 5 : 400);
    const int shape = static_cast<int>(rng.NextIndex(6));
    std::vector<double> lat(n), times(n);
    double t = rng.Uniform(0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
      lat[i] = DrawLatency(rng, shape < 5 ? shape
                                          : static_cast<int>(rng.NextIndex(5)));
      if (!rng.Bernoulli(0.3)) t += rng.Exponential(50.0);
      times[i] = t;
    }
    const auto pick_cut = [&]() {
      switch (rng.NextIndex(4)) {
        case 0:
          return n > 0 ? times[rng.NextIndex(n)] : 1.0;
        case 1:
          return -1.0;
        case 2:
          return t + 1.0;
        default:
          return rng.Uniform(0.0, t + 0.5);
      }
    };
    double c1 = pick_cut();
    double c2 = rng.Bernoulli(0.1) ? inf : pick_cut();
    if (rng.Bernoulli(0.8) && c2 < c1) std::swap(c1, c2);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n);
    ExpectPhasesMatchOracle(lat, times, c1, c2);
  }
}

TEST(MetricsTest, PhasedSummaryEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> lat = {0.004, 0.001, 0.003, 0.001, 0.002,
                                   0.0,   0.005, 0.002, 0.003, 0.004};
  const std::vector<double> times = {1, 2, 2, 3, 4, 4, 5, 6, 7, 8};
  // Phases of 0, 1 and 2 samples, in each position.
  ExpectPhasesMatchOracle(lat, times, 1.0, 2.0);   // 0, 1, 9
  ExpectPhasesMatchOracle(lat, times, 2.0, 3.0);   // 1, 2, 7
  ExpectPhasesMatchOracle(lat, times, 7.5, 8.0);   // 9, 0, 1
  ExpectPhasesMatchOracle(lat, times, 6.5, inf);   // 8, 2, 0
  ExpectPhasesMatchOracle(lat, times, 4.0, 4.0);   // 4, 0, 6
  // A crash before the first output; a run that never recovers (the
  // recovery cut at the horizon, after every output); no crash.
  ExpectPhasesMatchOracle(lat, times, 0.5, 3.5);
  ExpectPhasesMatchOracle(lat, times, 5.0, 20.0);
  ExpectPhasesMatchOracle(lat, times, inf, inf);
  // A recovery point before the crash (recovery_time clamps to 0).
  ExpectPhasesMatchOracle(lat, times, 5.0, 3.0);
  // All equal; all zero; subnormals beside 1e3 s; one and two samples;
  // an empty series.
  ExpectPhasesMatchOracle(std::vector<double>(10, 0.0021), times, 3.0, 6.0);
  ExpectPhasesMatchOracle(std::vector<double>(10, 0.0), times, 3.0, 6.0);
  ExpectPhasesMatchOracle({5e-324, 1e3, 2.2e-308, 0.0, 1e-310, 999.5, 1e-3,
                           5e-324, 1e3, 7e-320},
                          times, 3.0, 6.0);
  ExpectPhasesMatchOracle({0.003}, {1.0}, 0.5, 2.0);
  ExpectPhasesMatchOracle({0.003, 0.001}, {1.0, 1.0}, 0.5, 2.0);
  ExpectPhasesMatchOracle({}, {}, 1.0, 2.0);
}

TEST(MetricsTest, ReservoirModeKeepsExactMeanMaxAndCounts) {
  LatencyStatsOptions opts;
  opts.reservoir = 16;
  opts.seed = 42;
  MetricsCollector m(1, 1.0, 5.0, opts);
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double x = static_cast<double>(i) * 1e-3;
    sum += x;
    m.RecordOutput(0, x);
  }
  EXPECT_FALSE(m.exact());
  const LatencySummary s = m.TotalLatency();
  EXPECT_FALSE(s.exact);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.mean, sum / 1000.0, 1e-12);       // streaming-exact
  EXPECT_NEAR(s.max, 0.999, 1e-12);               // streaming-exact
  EXPECT_EQ(m.SinkSamples(0).size(), 16u);        // fixed memory
  EXPECT_GT(s.p50, 0.0);                          // sampled estimate
  EXPECT_LT(s.p50, 0.999);
}

TEST(MetricsTest, ReservoirIsDeterministicGivenSeedAndOrder) {
  LatencyStatsOptions opts;
  opts.reservoir = 8;
  opts.seed = 7;
  MetricsCollector a(1, 1.0, 5.0, opts);
  MetricsCollector b(1, 1.0, 5.0, opts);
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>((i * 37) % 101);
    a.RecordOutput(0, x);
    b.RecordOutput(0, x);
  }
  EXPECT_EQ(a.SinkSamples(0), b.SinkSamples(0));
  const LatencySummary sa = a.TotalLatency();
  const LatencySummary sb = b.TotalLatency();
  EXPECT_EQ(sa.p50, sb.p50);
  EXPECT_EQ(sa.p95, sb.p95);
  EXPECT_EQ(sa.p99, sb.p99);
}

TEST(MetricsTest, ReservoirBelowCapacityMatchesExact) {
  LatencyStatsOptions opts;
  opts.reservoir = 64;
  MetricsCollector sampled(1, 1.0, 5.0, opts);
  MetricsCollector exact(1, 1.0, 5.0);
  for (int i = 0; i < 50; ++i) {
    const double x = static_cast<double>((i * 13) % 29);
    sampled.RecordOutput(0, x);
    exact.RecordOutput(0, x);
  }
  const LatencySummary s = sampled.TotalLatency();
  const LatencySummary e = exact.TotalLatency();
  EXPECT_TRUE(s.exact);  // stream never exceeded the reservoir
  EXPECT_EQ(s.p50, e.p50);
  EXPECT_EQ(s.p95, e.p95);
  EXPECT_EQ(s.p99, e.p99);
}

TEST(MetricsTest, ServiceSplitsAcrossWindows) {
  MetricsCollector m(1, 1.0, 4.0);
  // A service interval [0.5, 2.25) spans windows 0, 1, 2.
  m.RecordService(0, 0.5, 2.25);
  const Matrix& busy = m.window_busy();
  ASSERT_EQ(busy.rows(), 4u);
  EXPECT_NEAR(busy(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(busy(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(busy(2, 0), 0.25, 1e-12);
  EXPECT_NEAR(busy(3, 0), 0.0, 1e-12);
  EXPECT_NEAR(m.NodeUtilization(0, 4.0), 1.75 / 4.0, 1e-12);
}

TEST(MetricsTest, NonDyadicWindowSplitTerminates) {
  // With 0.1 s windows, 43 * 0.1 / 0.1 rounds below 43: the split must
  // step to window 43 rather than recompute window 42 from the boundary.
  MetricsCollector m(1, 0.1, 10.0);
  m.RecordService(0, 4.25, 4.35);
  const Matrix& busy = m.window_busy();
  double booked = 0.0;
  for (size_t w = 0; w < busy.rows(); ++w) {
    if (w != 42 && w != 43) {
      EXPECT_EQ(busy(w, 0), 0.0) << "window " << w;
    }
    booked += busy(w, 0);
  }
  EXPECT_NEAR(busy(42, 0), 0.05, 1e-12);
  EXPECT_NEAR(busy(43, 0), 0.05, 1e-12);
  EXPECT_NEAR(booked, 0.1, 1e-12);
}

TEST(MetricsTest, ServicePastHorizonIsClipped) {
  MetricsCollector m(1, 1.0, 2.0);
  m.RecordService(0, 1.5, 5.0);  // runs past the 2-window horizon
  EXPECT_NEAR(m.window_busy()(1, 0), 0.5, 1e-12);
  // Total busy time still counts the full interval.
  EXPECT_NEAR(m.NodeUtilization(0, 2.0), 3.5 / 2.0, 1e-12);
}

TEST(MetricsTest, OverloadedWindowsThreshold) {
  MetricsCollector m(2, 1.0, 3.0);
  m.RecordService(0, 0.0, 1.0);    // window 0: node 0 pegged
  m.RecordService(1, 1.0, 1.5);    // window 1: node 1 at 50%
  m.RecordService(0, 2.0, 2.995);  // window 2: node 0 at 99.5%
  EXPECT_EQ(m.OverloadedWindows(0.99), 2u);
  EXPECT_EQ(m.OverloadedWindows(0.999), 1u);
  EXPECT_EQ(m.OverloadedWindows(0.4), 3u);
  EXPECT_EQ(m.num_windows(), 3u);
}

TEST(MetricsTest, MultiNodeWindowsIndependent) {
  MetricsCollector m(3, 2.0, 4.0);
  m.RecordService(0, 0.0, 2.0);
  m.RecordService(2, 2.0, 4.0);
  EXPECT_NEAR(m.window_busy()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(m.window_busy()(0, 2), 0.0, 1e-12);
  EXPECT_NEAR(m.window_busy()(1, 2), 2.0, 1e-12);
  // Node 1 never busy.
  EXPECT_NEAR(m.NodeUtilization(1, 4.0), 0.0, 1e-12);
}

TEST(MetricsTest, FractionalWindowCountRoundsUp) {
  MetricsCollector m(1, 1.0, 2.5);
  EXPECT_EQ(m.num_windows(), 3u);
}

}  // namespace
}  // namespace rod::sim
