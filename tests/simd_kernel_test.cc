// Bit-exactness of the AVX2 membership kernel against the scalar
// reference path: same verdict for every sample — hence the same count —
// across odd sample counts, ranges that start off a lane-group boundary
// (misaligned tails), dimensions above the lane-group width, and the
// affinely-mapped lower-bound variant. Vector-path tests skip on
// machines without AVX2; the dispatch plumbing tests always run.

#include "geometry/simd_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "geometry/feasible_set.h"
#include "geometry/hyperplane.h"
#include "geometry/sample_cache.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rod::geom {
namespace {

/// Restores runtime dispatch however a test toggled it.
struct SimdGuard {
  ~SimdGuard() { SetSimdKernelEnabled(true); }
};

Matrix RandomWeights(size_t rows, size_t dims, uint64_t seed) {
  Matrix w(rows, dims);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      w(i, k) = rng.Uniform(0.2, 3.0);
    }
  }
  return w;
}

/// The kernel's `row_bound` for rows in any order: the largest |w_ik| of
/// row i and every row after it.
std::vector<double> RowBounds(const Matrix& weights) {
  std::vector<double> bound(weights.rows(), 0.0);
  double running = 0.0;
  for (size_t i = weights.rows(); i-- > 0;) {
    for (double w : weights.Row(i)) running = std::max(running, std::abs(w));
    bound[i] = running;
  }
  return bound;
}

/// The scalar verdict the kernel documents itself against: dot products
/// accumulated in k order as mul-then-add (exactly hyperplane.h's Dot),
/// every row tested against W x <= 1 + tol.
size_t ReferenceCount(const Matrix& weights, const Matrix& samples,
                      size_t begin, size_t end, const double* lower_bound,
                      double scale, double tol) {
  const size_t d = samples.cols();
  std::vector<double> mapped(d);
  size_t feasible = 0;
  for (size_t s = begin; s < end; ++s) {
    std::span<const double> x = samples.Row(s);
    if (lower_bound != nullptr) {
      for (size_t k = 0; k < d; ++k) {
        mapped[k] = lower_bound[k] + scale * x[k];
      }
      x = mapped;
    }
    bool inside = true;
    for (size_t i = 0; i < weights.rows(); ++i) {
      if (Dot(weights.Row(i), x) > 1.0 + tol) {
        inside = false;
        break;
      }
    }
    if (inside) ++feasible;
  }
  return feasible;
}

TEST(SimdKernelTest, IsaNameTracksToggle) {
  SimdGuard guard;
  SetSimdKernelEnabled(false);
  EXPECT_STREQ(ActiveSimdIsa(), "scalar");
  EXPECT_FALSE(SimdKernelEnabled());
  SetSimdKernelEnabled(true);
  if (SimdKernelAvailable()) {
    EXPECT_STREQ(ActiveSimdIsa(), "avx2");
    EXPECT_TRUE(SimdKernelEnabled());
  } else {
    EXPECT_STREQ(ActiveSimdIsa(), "scalar");
  }
}

TEST(SimdKernelTest, DirectKernelMatchesScalarOnMisalignedRanges) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  // Odd sample counts and dims straddling the 4-wide lane group; begins
  // off the group boundary force partial-group bookkeeping.
  for (size_t dims : {1u, 2u, 3u, 4u, 5u, 7u, 11u}) {
    for (size_t num_samples : {5u, 7u, 63u, 130u}) {
      SimplexSampleKey key;
      key.dims = dims;
      key.num_samples = num_samples;
      const SimplexSampleSet set = GenerateSimplexSampleSet(key);
      const Matrix weights = RandomWeights(3, dims, 0xabc0 + dims);
      for (size_t begin : {0u, 1u, 2u, 3u, 5u}) {
        if (begin >= num_samples) continue;
        const size_t end = num_samples;
        size_t tail = begin;
        const size_t simd_count = CountContainedAvx2(
            weights.Row(0).data(), RowBounds(weights).data(), weights.rows(),
            dims, set.lanes.data(),
            set.lane_stride, begin, end, /*lower_bound=*/nullptr,
            /*scale=*/1.0, /*tol=*/1e-9, /*map_scratch=*/nullptr, &tail);
        const size_t full_groups = (end - begin) / kSimdGroup;
        EXPECT_EQ(tail, begin + kSimdGroup * full_groups)
            << "dims=" << dims << " n=" << num_samples << " begin=" << begin;
        EXPECT_EQ(simd_count,
                  ReferenceCount(weights, set.samples, begin, tail,
                                 /*lower_bound=*/nullptr, 1.0, 1e-9))
            << "dims=" << dims << " n=" << num_samples << " begin=" << begin;
      }
    }
  }
}

TEST(SimdKernelTest, DirectKernelMatchesScalarWithLowerBoundMapping) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  for (size_t dims : {2u, 5u, 9u}) {
    const size_t num_samples = 101;  // odd: scalar tail of one sample
    SimplexSampleKey key;
    key.dims = dims;
    key.num_samples = num_samples;
    const SimplexSampleSet set = GenerateSimplexSampleSet(key);
    const Matrix weights = RandomWeights(4, dims, 0xbee0 + dims);
    std::vector<double> lb(dims);
    for (size_t k = 0; k < dims; ++k) {
      lb[k] = 0.01 * static_cast<double>(k + 1);
    }
    const double scale = 0.75;
    std::vector<double> scratch(kSimdGroup * dims);
    size_t tail = 0;
    const size_t simd_count = CountContainedAvx2(
        weights.Row(0).data(), RowBounds(weights).data(), weights.rows(),
        dims, set.lanes.data(),
        set.lane_stride, 0, num_samples, lb.data(), scale, 1e-9,
        scratch.data(), &tail);
    EXPECT_EQ(tail, num_samples - num_samples % kSimdGroup);
    EXPECT_EQ(simd_count, ReferenceCount(weights, set.samples, 0, tail,
                                         lb.data(), scale, 1e-9))
        << "dims=" << dims;
  }
}

TEST(SimdKernelTest, RatioToIdealIdenticalAcrossPaths) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  SimdGuard guard;
  for (size_t dims : {2u, 3u, 5u, 8u}) {
    const Matrix weights = RandomWeights(6, dims, 0xfeed + dims);
    const FeasibleSet fs{Matrix(weights)};
    VolumeOptions vol;
    vol.num_samples = 4097;  // odd: exercises the scalar tail
    SetSimdKernelEnabled(true);
    const double simd_ratio = fs.RatioToIdeal(vol);
    SetSimdKernelEnabled(false);
    const double scalar_ratio = fs.RatioToIdeal(vol);
    EXPECT_EQ(simd_ratio, scalar_ratio) << "dims=" << dims;

    std::vector<double> lb(dims, 0.02);
    SetSimdKernelEnabled(true);
    const auto simd_above = fs.RatioToIdealAbove(lb, vol);
    SetSimdKernelEnabled(false);
    const auto scalar_above = fs.RatioToIdealAbove(lb, vol);
    ASSERT_TRUE(simd_above.ok());
    ASSERT_TRUE(scalar_above.ok());
    EXPECT_EQ(*simd_above, *scalar_above) << "dims=" << dims;
  }
}

/// The coordinate sum both kernel paths bound a sample by: sum_k |x_k| of
/// the (mapped) point, added in ascending k.
double CoordinateSum(std::span<const double> x, const double* lower_bound,
                     double scale) {
  double sum = 0.0;
  for (size_t k = 0; k < x.size(); ++k) {
    const double v =
        lower_bound != nullptr ? lower_bound[k] + scale * x[k] : x[k];
    sum += std::abs(v);
  }
  return sum;
}

TEST(SimdKernelTest, EdgeRowsAtTheRowBoundMatchTheOracle) {
  // A row w = c * 1 with c = (1 + tol) / S, S a sample's computed
  // coordinate sum, puts max|w| * S at 1 + tol; nudged by 1-4 ulps either
  // way, its bound sits within rounding of the limit, so a bound without
  // its margin stops samples whose computed dot product exceeds the limit.
  // Each target sample is the one with the largest sum of its lane group,
  // which is the sum the AVX2 path bounds the group by. A second, lighter
  // row sorts after the edge row.
  SimdGuard guard;
  const double tol = kMembershipTol;
  const size_t num_samples = 1023;  // odd: the last samples are a tail
  for (size_t dims : {3u, 6u, 10u}) {
    VolumeOptions vol;
    vol.num_samples = num_samples;
    const auto set = SimplexSampleCache::Global().Get(VolumeSampleKey(dims, vol));
    for (const bool with_lb : {false, true}) {
      const std::vector<double> lb(with_lb ? dims : 0, 0.02);
      const double* lb_ptr = with_lb ? lb.data() : nullptr;
      const double scale = with_lb ? 1.0 - Sum(lb) : 1.0;
      for (size_t group = 0; group < 16; ++group) {
        size_t target = group * 61 / kSimdGroup * kSimdGroup;
        for (size_t s = target; s < target + kSimdGroup; ++s) {
          if (CoordinateSum(set->samples.Row(s), lb_ptr, scale) >
              CoordinateSum(set->samples.Row(target), lb_ptr, scale)) {
            target = s;
          }
        }
        const double sum = CoordinateSum(set->samples.Row(target), lb_ptr,
                                         scale);
        for (int nudge = -4; nudge <= 4; ++nudge) {
          double c = (1.0 + tol) / sum;
          for (int u = 0; u < std::abs(nudge); ++u) {
            c = std::nextafter(c, nudge < 0 ? 0.0 : 2.0 * c);
          }
          Matrix weights(2, dims);
          for (size_t k = 0; k < dims; ++k) {
            weights(0, k) = c * (0.25 + 0.5 * static_cast<double>(k % 2));
            weights(1, k) = c;
          }
          const std::string where = "dims=" + std::to_string(dims) +
                                    " lb=" + std::to_string(with_lb) +
                                    " sample=" + std::to_string(target) +
                                    " nudge=" + std::to_string(nudge);
          const double oracle =
              static_cast<double>(ReferenceCount(weights, set->samples, 0,
                                                 num_samples, lb_ptr, scale,
                                                 tol)) /
              static_cast<double>(num_samples);
          const FeasibleSet fs{Matrix(weights)};
          for (const bool simd : {true, false}) {
            SetSimdKernelEnabled(simd);
            const double ratio = with_lb ? *fs.RatioToIdealAbove(lb, vol)
                                         : fs.RatioToIdeal(vol);
            EXPECT_EQ(ratio, oracle) << where << " simd=" << simd;
          }
          if (!SimdKernelAvailable()) continue;
          std::vector<double> scratch(kSimdGroup * dims);
          size_t tail = 0;
          const size_t direct = CountContainedAvx2(
              weights.Row(0).data(), RowBounds(weights).data(), 2, dims,
              set->lanes.data(), set->lane_stride, 0, num_samples, lb_ptr,
              scale, tol, with_lb ? scratch.data() : nullptr, &tail);
          EXPECT_EQ(direct, ReferenceCount(weights, set->samples, 0, tail,
                                           lb_ptr, scale, tol))
              << where;
        }
      }
    }
  }
}

TEST(SimdKernelTest, PlaceScalePlanRatioMatchesTheOracleOnBothPaths) {
  // The place_scale shape: 10 random trees of 1,000 operators each, on
  // 256 homogeneous nodes, scored over the default 2^15 samples.
  SimdGuard guard;
  query::GraphGenOptions gen;
  gen.num_input_streams = 10;
  gen.ops_per_tree = 1000;
  Rng rng(3);
  auto model = query::BuildLoadModel(query::GenerateRandomTrees(gen, rng));
  ASSERT_TRUE(model.ok());
  const place::SystemSpec system = place::SystemSpec::Homogeneous(256);
  auto plan = place::RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());
  const place::PlacementEvaluator evaluator(*model, system);
  auto weights = evaluator.WeightMatrix(*plan);
  ASSERT_TRUE(weights.ok());
  const VolumeOptions vol;
  const auto set = SimplexSampleCache::Global().Get(VolumeSampleKey(10, vol));
  const double oracle =
      static_cast<double>(ReferenceCount(*weights, set->samples, 0,
                                         vol.num_samples, nullptr, 1.0,
                                         kMembershipTol)) /
      static_cast<double>(vol.num_samples);
  for (const bool simd : {true, false}) {
    SetSimdKernelEnabled(simd);
    EXPECT_EQ(*evaluator.RatioToIdeal(*plan, vol), oracle) << "simd=" << simd;
  }
}

TEST(SimdKernelTest, ThreadedCountsIdenticalAcrossPaths) {
  if (!SimdKernelAvailable()) GTEST_SKIP() << "no AVX2 on this machine";
  SimdGuard guard;
  const size_t dims = 6;
  const Matrix weights = RandomWeights(8, dims, 0x5eed);
  const FeasibleSet fs{Matrix(weights)};
  VolumeOptions vol;
  vol.num_samples = 8191;  // odd and spanning several kernel chunks
  SetSimdKernelEnabled(true);
  const double base = fs.RatioToIdeal(vol);
  for (size_t threads : {1u, 2u, 4u}) {
    vol.num_threads = threads;
    SetSimdKernelEnabled(true);
    EXPECT_EQ(fs.RatioToIdeal(vol), base) << "simd threads=" << threads;
    SetSimdKernelEnabled(false);
    EXPECT_EQ(fs.RatioToIdeal(vol), base) << "scalar threads=" << threads;
  }
}

}  // namespace
}  // namespace rod::geom
