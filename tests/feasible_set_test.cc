// Tests for feasible-set membership and QMC volume estimation, including
// cross-checks against the exact 2-D polygon areas.

#include "geometry/feasible_set.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.h"
#include "geometry/polygon2d.h"
#include "geometry/sample_cache.h"
#include "telemetry/telemetry.h"

namespace rod::geom {
namespace {

TEST(FeasibleSetTest, ContainsRespectsAllNodes) {
  const FeasibleSet fs(Matrix::FromRows({{2.0, 0.0}, {0.0, 2.0}}));
  EXPECT_TRUE(fs.Contains(Vector{0.4, 0.4}));
  EXPECT_TRUE(fs.Contains(Vector{0.5, 0.5}));   // exactly on both planes
  EXPECT_FALSE(fs.Contains(Vector{0.6, 0.1}));  // node 0 overloaded
  EXPECT_FALSE(fs.Contains(Vector{0.1, 0.6}));  // node 1 overloaded
  EXPECT_TRUE(fs.Contains(Vector{0.0, 0.0}));
}

TEST(FeasibleSetTest, IdealWeightsGiveRatioOne) {
  const FeasibleSet fs(Matrix::FromRows({{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}));
  EXPECT_NEAR(fs.RatioToIdeal(), 1.0, 1e-12);
}

TEST(FeasibleSetTest, QmcMatchesExact2D) {
  // Several 2-D weight matrices: Halton estimate vs exact polygon area.
  const std::vector<Matrix> cases = {
      Matrix::FromRows({{2.0, 0.0}, {0.0, 2.0}}),
      Matrix::FromRows({{1.5, 0.5}, {0.5, 1.5}}),
      Matrix::FromRows({{2.0, 2.0}, {0.0, 0.0}}),
      Matrix::FromRows({{1.2, 0.3}, {0.8, 1.7}, {0.1, 1.1}}),
  };
  VolumeOptions options;
  options.num_samples = 65536;
  for (const Matrix& w : cases) {
    const double exact = *ExactRatioToIdeal2D(w);
    const double qmc = FeasibleSet(w).RatioToIdeal(options);
    EXPECT_NEAR(qmc, exact, 0.01) << w.ToString();
  }
}

TEST(FeasibleSetTest, PseudoRandomMatchesExact2D) {
  const Matrix w = Matrix::FromRows({{1.5, 0.5}, {0.5, 1.5}});
  VolumeOptions options;
  options.num_samples = 200000;
  options.use_pseudo_random = true;
  EXPECT_NEAR(FeasibleSet(w).RatioToIdeal(options), 2.0 / 3.0, 0.01);
}

TEST(FeasibleSetTest, ScaledIdealHasRatioScaleToTheD) {
  // Uniform weights 1/s shrink the feasible simplex by s per axis:
  // ratio = s^d (s <= 1).
  for (size_t d : {2u, 3u, 5u}) {
    const double s = 0.7;
    Matrix w(1, d, 1.0 / s);
    VolumeOptions options;
    options.num_samples = 1u << 16;
    const double ratio = FeasibleSet(w).RatioToIdeal(options);
    EXPECT_NEAR(ratio, std::pow(s, static_cast<double>(d)), 0.02) << d;
  }
}

TEST(FeasibleSetTest, NormalizedVolumeIncludesFactorial) {
  const FeasibleSet fs(Matrix::FromRows({{1.0, 1.0}}));
  EXPECT_NEAR(fs.NormalizedVolume(), 0.5, 1e-9);  // full simplex, d = 2
}

TEST(FeasibleSetTest, MonotoneInWeights) {
  // Increasing any weight can only shrink the feasible set.
  VolumeOptions options;
  options.num_samples = 1u << 15;
  const double big =
      FeasibleSet(Matrix::FromRows({{1.1, 0.9}, {0.9, 1.1}})).RatioToIdeal(options);
  const double small =
      FeasibleSet(Matrix::FromRows({{1.6, 0.9}, {0.9, 1.1}})).RatioToIdeal(options);
  EXPECT_GT(big, small);
}

TEST(FeasibleSetTest, HighDimensionFallsBackToPseudoRandom) {
  // d = 16 exceeds max_halton_dims: must still produce a sane estimate.
  Matrix w(1, 16, 1.0);
  VolumeOptions options;
  options.num_samples = 1u << 14;
  EXPECT_NEAR(FeasibleSet(w).RatioToIdeal(options), 1.0, 1e-12);
}

TEST(LowerBoundRatioTest, FullRegionWhenIdeal) {
  const FeasibleSet fs(Matrix::FromRows({{1.0, 1.0}}));
  auto r = fs.RatioToIdealAbove(Vector{0.2, 0.1});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 1.0, 1e-12);
}

TEST(LowerBoundRatioTest, EmptyAboveIdealPlane) {
  const FeasibleSet fs(Matrix::FromRows({{1.0, 1.0}}));
  auto r = fs.RatioToIdealAbove(Vector{0.7, 0.5});  // sum >= 1
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 0.0);
}

TEST(LowerBoundRatioTest, MatchesExactForAxisAlignedCase) {
  // W = [[2,0],[0,2]], lower bound b = (0.25, 0). Region above b within
  // the ideal triangle: triangle with vertices (0.25,0),(1,0),(0.25,0.75),
  // area = 0.75^2/2. Feasible part: 0.25<=x<=0.5, 0<=y<=0.5 -> 0.125.
  // Ratio = 0.125 / 0.28125 = 4/9.
  const FeasibleSet fs(Matrix::FromRows({{2.0, 0.0}, {0.0, 2.0}}));
  VolumeOptions options;
  options.num_samples = 1u << 17;
  auto r = fs.RatioToIdealAbove(Vector{0.25, 0.0}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 4.0 / 9.0, 0.01);
}

TEST(LowerBoundRatioTest, RejectsBadBounds) {
  const FeasibleSet fs(Matrix::FromRows({{1.0, 1.0}}));
  EXPECT_FALSE(fs.RatioToIdealAbove(Vector{0.1}).ok());          // wrong size
  EXPECT_FALSE(fs.RatioToIdealAbove(Vector{-0.1, 0.0}).ok());    // negative
}

TEST(FeasibleSetTest, DeterministicAcrossCalls) {
  const FeasibleSet fs(Matrix::FromRows({{1.3, 0.8}, {0.6, 1.4}}));
  EXPECT_DOUBLE_EQ(fs.RatioToIdeal(), fs.RatioToIdeal());
}

TEST(RandomizedQmcTest, ErrorBandCoversExactValue) {
  const Matrix w = Matrix::FromRows({{1.5, 0.5}, {0.5, 1.5}});
  const double exact = *ExactRatioToIdeal2D(w);  // 2/3
  VolumeOptions options;
  options.num_samples = 8192;
  const auto est = FeasibleSet(w).RatioToIdealWithError(8, options);
  EXPECT_EQ(est.replications, 8u);
  EXPECT_GT(est.std_error, 0.0);
  EXPECT_NEAR(est.mean, exact, 6.0 * est.std_error + 1e-6);
  EXPECT_LT(est.std_error, 0.01);  // RQMC at 8k points is tight in 2-D
}

TEST(RandomizedQmcTest, ErrorShrinksWithSampleCount) {
  const Matrix w = Matrix::FromRows({{1.2, 0.9, 0.4}, {0.5, 1.1, 1.3}});
  VolumeOptions small;
  small.num_samples = 512;
  VolumeOptions large;
  large.num_samples = 16384;
  const auto coarse = FeasibleSet(w).RatioToIdealWithError(8, small);
  const auto fine = FeasibleSet(w).RatioToIdealWithError(8, large);
  EXPECT_LT(fine.std_error, coarse.std_error);
  // Both agree within their joint uncertainty.
  EXPECT_NEAR(coarse.mean, fine.mean,
              6.0 * (coarse.std_error + fine.std_error) + 1e-6);
}

TEST(RandomizedQmcTest, IdealSetHasZeroError) {
  const FeasibleSet fs(Matrix::FromRows({{1.0, 1.0}}));
  const auto est = fs.RatioToIdealWithError(4);
  EXPECT_DOUBLE_EQ(est.mean, 1.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
}

TEST(RandomizedQmcTest, HonorsForcedPseudoRandom) {
  // The forced-pseudo-random replications must reproduce, bit for bit,
  // the per-replication reseeding contract: replication r is a plain
  // RatioToIdeal with seed `seed ^ (0x9e3779b97f4a7c15 * (r + 1))`.
  const Matrix w = Matrix::FromRows({{1.5, 0.5}, {0.5, 1.5}});
  VolumeOptions options;
  options.num_samples = 4096;
  options.use_pseudo_random = true;
  const size_t reps = 4;
  const auto est = FeasibleSet(w).RatioToIdealWithError(reps, options);
  double sum = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    VolumeOptions rep = options;
    rep.seed = options.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
    sum += FeasibleSet(w).RatioToIdeal(rep);
  }
  EXPECT_DOUBLE_EQ(est.mean, sum / static_cast<double>(reps));
  EXPECT_NEAR(est.mean, 2.0 / 3.0, 0.05);
  EXPECT_GT(est.std_error, 0.0);  // Halton rotations would differ; pseudo
                                  // replications genuinely vary
}

TEST(RandomizedQmcTest, HighDimensionFallsBackToPseudoRandom) {
  // d = 16 exceeds max_halton_dims: each replication must be a reseeded
  // pseudo-random estimate (same contract as above), not a Halton
  // rotation.
  Matrix w(1, 16, 1.0 / 0.95);  // ratio = 0.95^16, non-trivial
  VolumeOptions options;
  options.num_samples = 4096;
  const size_t reps = 3;
  const auto est = FeasibleSet(w).RatioToIdealWithError(reps, options);
  double sum = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    VolumeOptions rep = options;
    rep.seed = options.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
    sum += FeasibleSet(w).RatioToIdeal(rep);
  }
  EXPECT_DOUBLE_EQ(est.mean, sum / static_cast<double>(reps));
  EXPECT_NEAR(est.mean, std::pow(0.95, 16.0), 0.05);
}

TEST(ParallelVolumeTest, RatioBitExactAcrossThreadCounts) {
  const Matrix w = Matrix::FromRows({{1.3, 0.8, 0.4, 0.9, 0.2, 0.6},
                                     {0.6, 1.4, 0.7, 0.3, 0.8, 0.5},
                                     {0.9, 0.5, 1.2, 0.6, 0.4, 1.1}});
  const FeasibleSet fs(w);
  VolumeOptions options;
  options.num_samples = 1u << 14;
  options.num_threads = 1;
  const double sequential = fs.RatioToIdeal(options);
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(fs.RatioToIdeal(options), sequential) << threads;
  }
}

TEST(ParallelVolumeTest, WithErrorBitExactAcrossThreadCounts) {
  const Matrix w = Matrix::FromRows({{1.2, 0.9, 0.4}, {0.5, 1.1, 1.3}});
  const FeasibleSet fs(w);
  VolumeOptions options;
  options.num_samples = 4096;
  options.num_threads = 1;
  const auto sequential = fs.RatioToIdealWithError(8, options);
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    const auto parallel = fs.RatioToIdealWithError(8, options);
    EXPECT_EQ(parallel.mean, sequential.mean) << threads;
    EXPECT_EQ(parallel.std_error, sequential.std_error) << threads;
  }
}

TEST(ParallelVolumeTest, AboveBitExactAcrossThreadCounts) {
  const FeasibleSet fs(Matrix::FromRows({{2.0, 0.0}, {0.0, 2.0}}));
  VolumeOptions options;
  options.num_samples = 1u << 14;
  options.num_threads = 1;
  const double sequential = *fs.RatioToIdealAbove(Vector{0.25, 0.0}, options);
  for (size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(*fs.RatioToIdealAbove(Vector{0.25, 0.0}, options), sequential)
        << threads;
  }
}

TEST(ParallelVolumeTest, SampleSetSharedAcrossPlacements) {
  // Two different weight matrices with the same options must hit the same
  // cached sample set: the second estimate costs no generation.
  VolumeOptions options;
  options.num_samples = 2048;
  const FeasibleSet a(Matrix::FromRows({{1.4, 0.7}, {0.9, 1.2}}));
  const FeasibleSet b(Matrix::FromRows({{0.8, 1.6}, {1.1, 0.3}}));
  auto& cache = SimplexSampleCache::Global();
  (void)a.RatioToIdeal(options);  // key resident after this call
  const size_t misses_before = cache.misses();
  const size_t hits_before = cache.hits();
  (void)b.RatioToIdeal(options);
  EXPECT_EQ(cache.misses(), misses_before);  // no regeneration
  EXPECT_EQ(cache.hits(), hits_before + 1);
}

TEST(ParallelVolumeTest, MembershipKernelMatchesContains) {
  const FeasibleSet fs(Matrix::FromRows({{1.5, 0.5}, {0.5, 1.5}}));
  SimplexSampleKey key;
  key.dims = 2;
  key.num_samples = 1024;
  const Matrix samples = GenerateSimplexSamples(key);
  size_t expected = 0;
  for (size_t s = 0; s < samples.rows(); ++s) {
    if (fs.Contains(samples.Row(s))) ++expected;
  }
  for (size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(fs.CountContained(samples, threads), expected) << threads;
  }
}

/// A `nodes` x `dims` weight matrix with entries in [0.2, 1.6].
Matrix RandomWeights(size_t nodes, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Matrix w(nodes, dims);
  for (size_t i = 0; i < nodes; ++i) {
    for (size_t k = 0; k < dims; ++k) w(i, k) = rng.Uniform(0.2, 1.6);
  }
  return w;
}

/// Runs `fn` with a sink on the shared pool and returns how many pool
/// tasks ran meanwhile.
template <typename Fn>
uint64_t SharedPoolTasksDuring(Fn&& fn) {
  telemetry::Telemetry telemetry;
  ThreadPool::Shared().set_telemetry(&telemetry);
  fn();
  ThreadPool::Shared().set_telemetry(nullptr);
  return telemetry.Snapshot().counters.at("pool.tasks");
}

/// Counts of one problem at 1, 2, 4 and 8 threads through RatioToIdeal,
/// RatioToIdealAbove and CountContained, checked equal to the 1-thread
/// counts; returns the pool tasks the multi-thread runs used. The sample
/// set is generated before the sink is attached.
uint64_t CheckCountsAcrossThreadCounts(const FeasibleSet& fs,
                                       size_t num_samples) {
  VolumeOptions options;
  options.num_samples = num_samples;
  const Vector lower(fs.dims(), 0.02);
  const double ratio = fs.RatioToIdeal(options);
  const double above = *fs.RatioToIdealAbove(lower, options);
  const Matrix samples =
      SimplexSampleCache::Global()
          .Get(VolumeSampleKey(fs.dims(), options))
          ->samples.ToMatrix();
  const size_t count = fs.CountContained(samples);
  EXPECT_GT(ratio, 0.0);
  EXPECT_LT(ratio, 1.0);
  return SharedPoolTasksDuring([&] {
    for (size_t threads : {2u, 4u, 8u}) {
      options.num_threads = threads;
      EXPECT_EQ(fs.RatioToIdeal(options), ratio) << threads;
      EXPECT_EQ(*fs.RatioToIdealAbove(lower, options), above) << threads;
      EXPECT_EQ(fs.CountContained(samples, threads), count) << threads;
    }
  });
}

TEST(ParallelVolumeTest, SmallProblemStaysOnTheCallingThread) {
  // 3 dims x 5 nodes x 8,192 samples: work 122,880.
  const FeasibleSet fs(RandomWeights(5, 3, 11));
  ASSERT_LT(5u * 8192u * 3u, kMinParallelKernelWork);
  EXPECT_EQ(CheckCountsAcrossThreadCounts(fs, 8192), 0u);
}

TEST(ParallelVolumeTest, ProblemAboveTheFloorFansOut) {
  // 6 dims x 20 nodes x 16,384 samples: work 1,966,080.
  const FeasibleSet fs(RandomWeights(20, 6, 12));
  ASSERT_GE(20u * 16384u * 6u, kMinParallelKernelWork);
  EXPECT_GT(CheckCountsAcrossThreadCounts(fs, 16384), 0u);
}

}  // namespace
}  // namespace rod::geom
