// Tests for Hurst exponent estimation (self-similarity verification).

#include "trace/hurst.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "onoff.h"
#include "trace/bmodel.h"

namespace rod::trace {
namespace {

TEST(HurstTest, RejectsShortSeries) {
  EXPECT_FALSE(EstimateHurstRS(std::vector<double>(10, 1.0)).ok());
  EXPECT_FALSE(EstimateHurstVarianceTime(std::vector<double>(32, 1.0)).ok());
}

TEST(HurstTest, WhiteNoiseNearHalf) {
  Rng rng(1);
  std::vector<double> noise(8192);
  for (double& x : noise) x = rng.Normal();
  auto h = EstimateHurstRS(noise);
  ASSERT_TRUE(h.ok());
  // R/S on finite iid samples biases slightly above 0.5 (Anis–Lloyd).
  EXPECT_NEAR(*h, 0.55, 0.08);
}

TEST(HurstTest, IncreasingTrendNearOne) {
  // A strongly persistent series: cumulative sum of positive drift noise.
  Rng rng(2);
  std::vector<double> series(4096);
  double level = 0.0;
  for (double& x : series) {
    level += 0.01 + 0.001 * rng.Normal();
    x = level;
  }
  auto h = EstimateHurstRS(series);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(*h, 0.85);
}

TEST(HurstTest, AlternatingSeriesAntiPersistent) {
  std::vector<double> series(2048);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = (i % 2 == 0) ? 1.0 : -1.0;
  }
  auto h = EstimateHurstRS(series);
  ASSERT_TRUE(h.ok());
  EXPECT_LT(*h, 0.3);
}

TEST(HurstTest, BModelCascadeIsPersistent) {
  BModelOptions options;
  options.levels = 13;
  options.bias = 0.7;
  Rng rng(3);
  const RateTrace t = GenerateBModel(options, rng);
  auto h = EstimateHurstRS(t.rates);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(*h, 0.6);  // long-range dependent, like the paper's traces
}

TEST(HurstTest, OnOffAggregateIsPersistent) {
  OnOffOptions options;
  options.num_sources = 64;
  options.num_windows = 8192;
  options.alpha_on = 1.4;  // theoretical H = (3 - 1.4)/2 = 0.8
  options.alpha_off = 1.4;
  Rng rng(4);
  const RateTrace t = GenerateOnOff(options, rng);
  auto h = EstimateHurstRS(t.rates);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(*h, 0.62);
  EXPECT_LT(*h, 1.05);
}

TEST(HurstTest, VarianceTimeAgreesWithRSOnPersistentSeries) {
  BModelOptions options;
  options.levels = 13;
  options.bias = 0.65;
  Rng rng(5);
  const RateTrace t = GenerateBModel(options, rng);
  auto rs = EstimateHurstRS(t.rates);
  auto vt = EstimateHurstVarianceTime(t.rates);
  ASSERT_TRUE(rs.ok() && vt.ok());
  EXPECT_NEAR(*rs, *vt, 0.25);  // different estimators; rough agreement
  EXPECT_GT(*vt, 0.55);
}

TEST(HurstTest, ConstantSeriesFailsGracefully) {
  EXPECT_FALSE(EstimateHurstRS(std::vector<double>(1024, 3.0)).ok());
}

}  // namespace
}  // namespace rod::trace
