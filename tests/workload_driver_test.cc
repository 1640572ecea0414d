// Tests for the arrival generator (trace -> tuple arrival times).

#include "runtime/workload_driver.h"

#include <gtest/gtest.h>

#include <cmath>

namespace rod::sim {
namespace {

trace::RateTrace MakeTrace(std::vector<double> rates, double window = 1.0) {
  trace::RateTrace t;
  t.window_sec = window;
  t.rates = std::move(rates);
  return t;
}

TEST(ArrivalGeneratorTest, PoissonMeanRateMatchesTrace) {
  Rng rng(1);
  ArrivalGenerator gen(MakeTrace(std::vector<double>(100, 50.0)), true, &rng);
  size_t count = 0;
  double t = 0.0;
  while (true) {
    t = gen.NextArrival(t);
    if (!std::isfinite(t)) break;
    ++count;
  }
  // 100 s at 50/s: ~5000 arrivals.
  EXPECT_NEAR(static_cast<double>(count), 5000.0, 220.0);
}

TEST(ArrivalGeneratorTest, PoissonGapsAreExponential) {
  Rng rng(2);
  ArrivalGenerator gen(MakeTrace(std::vector<double>(200, 100.0)), true, &rng);
  std::vector<double> gaps;
  double t = 0.0;
  while (true) {
    const double next = gen.NextArrival(t);
    if (!std::isfinite(next)) break;
    gaps.push_back(next - t);
    t = next;
  }
  // Exponential(100): mean = sd = 0.01.
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 0.01, 0.001);
  EXPECT_NEAR(std::sqrt(var), 0.01, 0.002);
}

TEST(ArrivalGeneratorTest, DeterministicSpacingIsEven) {
  Rng rng(3);
  ArrivalGenerator gen(MakeTrace({10.0, 10.0}), false, &rng);
  double t = 0.0;
  std::vector<double> arrivals;
  while (true) {
    t = gen.NextArrival(t);
    if (!std::isfinite(t)) break;
    arrivals.push_back(t);
  }
  ASSERT_GE(arrivals.size(), 15u);
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_NEAR(arrivals[i] - arrivals[i - 1], 0.1, 1e-9);
  }
}

TEST(ArrivalGeneratorTest, ZeroRateWindowsProduceNothing) {
  Rng rng(4);
  // 1 s silent, 1 s at 100/s, 1 s silent.
  ArrivalGenerator gen(MakeTrace({0.0, 100.0, 0.0}), true, &rng);
  double t = 0.0;
  size_t count = 0;
  while (true) {
    t = gen.NextArrival(t);
    if (!std::isfinite(t)) break;
    EXPECT_GE(t, 1.0);
    EXPECT_LT(t, 2.0);
    ++count;
  }
  EXPECT_NEAR(static_cast<double>(count), 100.0, 35.0);
}

TEST(ArrivalGeneratorTest, NonDyadicWindowWidthTerminates) {
  // 0.04 s does not divide exactly: some window ends t = (w + 1) * 0.04
  // have t / 0.04 < w + 1, so a walk that recomputed the window index
  // from t would stay in window w forever.
  std::vector<double> rates(2001, 0.0);
  rates.back() = 1000.0;
  const trace::RateTrace trace = MakeTrace(rates, 0.04);
  const auto arrivals =
      MaterializeArrivals({trace}, true, 11, trace.duration());
  ASSERT_EQ(arrivals.size(), 1u);
  ASSERT_FALSE(arrivals[0].empty());
  for (const double t : arrivals[0]) {
    EXPECT_GE(t, 2000 * 0.04);
    EXPECT_LT(t, 2001 * 0.04);
  }
}

TEST(ArrivalGeneratorTest, ExhaustedTraceReturnsInfinity) {
  Rng rng(5);
  ArrivalGenerator gen(MakeTrace({5.0}), false, &rng);
  EXPECT_FALSE(std::isfinite(gen.NextArrival(100.0)));
}

TEST(ArrivalGeneratorTest, RateChangeShowsInDensity) {
  Rng rng(6);
  ArrivalGenerator gen(MakeTrace({20.0, 200.0}, 10.0), true, &rng);
  size_t early = 0, late = 0;
  double t = 0.0;
  while (true) {
    t = gen.NextArrival(t);
    if (!std::isfinite(t)) break;
    (t < 10.0 ? early : late) += 1;
  }
  EXPECT_NEAR(static_cast<double>(early), 200.0, 60.0);
  EXPECT_NEAR(static_cast<double>(late), 2000.0, 200.0);
}

}  // namespace
}  // namespace rod::sim
