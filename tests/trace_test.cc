// Tests for rate traces and the synthetic trace generators.

#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "onoff.h"
#include "trace/bmodel.h"

namespace rod::trace {
namespace {

TEST(RateTraceTest, BasicStatistics) {
  RateTrace t;
  t.window_sec = 2.0;
  t.rates = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(t.MeanRate(), 2.0);
  EXPECT_DOUBLE_EQ(t.StdDevRate(), 1.0);
  EXPECT_DOUBLE_EQ(t.CoefficientOfVariation(), 0.5);
  EXPECT_DOUBLE_EQ(t.duration(), 4.0);
  EXPECT_EQ(t.num_windows(), 2u);
}

TEST(RateTraceTest, RateAtClampsAndIndexes) {
  RateTrace t;
  t.window_sec = 1.0;
  t.rates = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(t.RateAt(-1.0), 10.0);
  EXPECT_DOUBLE_EQ(t.RateAt(0.5), 10.0);
  EXPECT_DOUBLE_EQ(t.RateAt(1.5), 20.0);
  EXPECT_DOUBLE_EQ(t.RateAt(99.0), 30.0);
  EXPECT_DOUBLE_EQ(RateTrace{}.RateAt(0.0), 0.0);
}

TEST(RateTraceTest, ScalingPreservesShape) {
  RateTrace t;
  t.window_sec = 1.0;
  t.rates = {1.0, 3.0};
  const RateTrace scaled = t.ScaledToMean(10.0);
  EXPECT_DOUBLE_EQ(scaled.MeanRate(), 10.0);
  EXPECT_DOUBLE_EQ(scaled.CoefficientOfVariation(),
                   t.CoefficientOfVariation());
  const RateTrace norm = t.Normalized();
  EXPECT_DOUBLE_EQ(norm.MeanRate(), 1.0);
}

TEST(BModelTest, ConservesVolumeAndMean) {
  BModelOptions options;
  options.levels = 10;
  options.bias = 0.7;
  options.mean_rate = 5.0;
  Rng rng(1);
  const RateTrace t = GenerateBModel(options, rng);
  EXPECT_EQ(t.num_windows(), 1024u);
  EXPECT_NEAR(t.MeanRate(), 5.0, 1e-9);  // cascade conserves total volume
  for (double r : t.rates) EXPECT_GE(r, 0.0);
}

TEST(BModelTest, BiasHalfIsFlat) {
  BModelOptions options;
  options.levels = 8;
  options.bias = 0.5;
  Rng rng(2);
  const RateTrace t = GenerateBModel(options, rng);
  EXPECT_NEAR(t.CoefficientOfVariation(), 0.0, 1e-12);
}

TEST(BModelTest, HigherBiasIsBurstier) {
  Rng rng1(3), rng2(3);
  BModelOptions mild{.levels = 12, .bias = 0.55};
  BModelOptions wild{.levels = 12, .bias = 0.8};
  const double cv_mild = GenerateBModel(mild, rng1).CoefficientOfVariation();
  const double cv_wild = GenerateBModel(wild, rng2).CoefficientOfVariation();
  EXPECT_GT(cv_wild, 2.0 * cv_mild);
}

TEST(BModelTest, TheoreticalCvMatchesEmpirical) {
  BModelOptions options;
  options.levels = 14;
  options.bias = 0.62;
  Rng rng(4);
  const RateTrace t = GenerateBModel(options, rng);
  const double expected = BModelTheoreticalCv(options.bias, options.levels);
  EXPECT_NEAR(t.CoefficientOfVariation(), expected, 0.15 * expected);
}

TEST(BModelTest, BiasForCvInvertsTheoreticalCv) {
  for (double cv : {0.2, 0.35, 0.5, 1.0}) {
    const double bias = BModelBiasForCv(cv, 12);
    EXPECT_GE(bias, 0.5);
    EXPECT_LT(bias, 1.0);
    EXPECT_NEAR(BModelTheoreticalCv(bias, 12), cv, 1e-9);
  }
}

TEST(OnOffTest, MeanRateMatchesDutyCycle) {
  OnOffOptions options;
  options.num_sources = 64;
  options.num_windows = 4096;
  options.mean_on = 2.0;
  options.mean_off = 6.0;
  options.peak_rate = 1.0;
  Rng rng(5);
  const RateTrace t = GenerateOnOff(options, rng);
  // Expected mean: sources * peak * on/(on+off) = 64 * 0.25 = 16.
  EXPECT_NEAR(t.MeanRate(), 16.0, 2.5);
  EXPECT_GT(t.CoefficientOfVariation(), 0.02);  // visibly bursty
}

TEST(OnOffTest, NonNegativeBoundedByPeakSum) {
  OnOffOptions options;
  options.num_sources = 8;
  options.num_windows = 512;
  Rng rng(6);
  const RateTrace t = GenerateOnOff(options, rng);
  for (double r : t.rates) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, options.peak_rate * options.num_sources + 1e-9);
  }
}

TEST(PresetTest, NamesAndNormalization) {
  EXPECT_STREQ(TracePresetName(TracePreset::kPkt), "PKT");
  EXPECT_STREQ(TracePresetName(TracePreset::kTcp), "TCP");
  EXPECT_STREQ(TracePresetName(TracePreset::kHttp), "HTTP");
  Rng rng(7);
  const RateTrace t = GeneratePreset(TracePreset::kPkt, 600, 1.0, rng);
  EXPECT_EQ(t.num_windows(), 600u);
  EXPECT_NEAR(t.MeanRate(), 1.0, 1e-9);
}

TEST(PresetTest, BurstinessOrderingMatchesFigure2) {
  // TCP > HTTP > PKT in variability, averaged over several seeds (one
  // cascade realization has high variance in its sample cv).
  double cv_pkt = 0, cv_tcp = 0, cv_http = 0;
  const int trials = 8;
  for (int s = 0; s < trials; ++s) {
    Rng r1(100 + s), r2(200 + s), r3(300 + s);
    cv_pkt += GeneratePreset(TracePreset::kPkt, 1024, 1.0, r1)
                  .CoefficientOfVariation();
    cv_tcp += GeneratePreset(TracePreset::kTcp, 1024, 1.0, r2)
                  .CoefficientOfVariation();
    cv_http += GeneratePreset(TracePreset::kHttp, 1024, 1.0, r3)
                   .CoefficientOfVariation();
  }
  EXPECT_GT(cv_tcp, cv_http);
  EXPECT_GT(cv_http, cv_pkt);
  // Calibration sanity: PKT ~ 0.2, TCP ~ 0.5 (loose bands; sample cv of a
  // finite cascade fluctuates).
  EXPECT_NEAR(cv_pkt / trials, 0.2, 0.1);
  EXPECT_NEAR(cv_tcp / trials, 0.5, 0.2);
}

TEST(SinusoidTest, MeanAmplitudeAndPeriod) {
  SinusoidOptions options;
  options.num_windows = 600;
  options.mean = 10.0;
  options.relative_amplitude = 0.5;
  options.period = 100.0;
  const RateTrace t = GenerateSinusoid(options);
  EXPECT_EQ(t.num_windows(), 600u);
  EXPECT_NEAR(t.MeanRate(), 10.0, 0.05);
  double lo = 1e300, hi = -1e300;
  for (double r : t.rates) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_NEAR(hi, 15.0, 0.1);
  EXPECT_NEAR(lo, 5.0, 0.1);
  // Periodicity: window w and w + period are equal.
  EXPECT_NEAR(t.rates[10], t.rates[110], 1e-9);
}

TEST(SinusoidTest, ClampsAtZeroForLargeAmplitude) {
  SinusoidOptions options;
  options.num_windows = 200;
  options.mean = 1.0;
  options.relative_amplitude = 2.0;  // would dip to -1 without clamping
  options.period = 50.0;
  const RateTrace t = GenerateSinusoid(options);
  for (double r : t.rates) EXPECT_GE(r, 0.0);
}

TEST(SinusoidTest, PhaseShiftsTheWave) {
  SinusoidOptions a;
  a.num_windows = 100;
  a.period = 100.0;
  SinusoidOptions b = a;
  b.phase = M_PI;  // half a cycle
  const RateTrace ta = GenerateSinusoid(a);
  const RateTrace tb = GenerateSinusoid(b);
  // Anti-phased: where a is above mean, b is below.
  EXPECT_NEAR(ta.rates[20] - 1.0, -(tb.rates[20] - 1.0), 1e-9);
}

TEST(PresetTest, BurstyAtCoarserTimeScales) {
  // Self-similarity: aggregating 16x must leave substantial variability
  // (an iid series' cv would fall by 4x; the cascade's falls much less).
  Rng rng(9);
  const RateTrace t = GeneratePreset(TracePreset::kTcp, 4096, 1.0, rng);
  std::vector<double> coarse;
  for (size_t i = 0; i + 16 <= t.rates.size(); i += 16) {
    double sum = 0.0;
    for (size_t j = 0; j < 16; ++j) sum += t.rates[i + j];
    coarse.push_back(sum / 16.0);
  }
  RateTrace ct;
  ct.rates = coarse;
  EXPECT_GT(ct.CoefficientOfVariation(),
            0.4 * t.CoefficientOfVariation());
}

}  // namespace
}  // namespace rod::trace
