// Tests for the simplex sample cache: hit/reuse semantics (same key ->
// same shared buffer, no regeneration), exact reproduction of the
// sequential generators (Halton, pseudo-random, Cranley–Patterson shifts),
// byte-for-byte agreement of both layouts with the per-point oracle
// whether the set is chunked over the shared pool or generated inline on
// a pool worker, access-order independence of shift replications, and
// FIFO eviction.

#include "geometry/sample_cache.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "common/random.h"
#include "common/thread_pool.h"
#include "geometry/simd_kernel.h"
#include "qmc_oracle.h"
#include "telemetry/telemetry.h"

namespace rod::geom {
namespace {

SimplexSampleKey HaltonKey(size_t dims, size_t num_samples) {
  SimplexSampleKey key;
  key.dims = dims;
  key.num_samples = num_samples;
  return key;
}

TEST(SampleCacheTest, SameKeyReturnsSameBufferWithoutRegeneration) {
  SimplexSampleCache cache;
  const auto key = HaltonKey(3, 64);
  const auto first = cache.Get(key);
  const auto second = cache.Get(key);
  EXPECT_EQ(first.get(), second.get());  // the same shared matrix
  EXPECT_EQ(cache.misses(), 1u);         // generated exactly once
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SampleCacheTest, DistinctKeysGetDistinctBuffers) {
  SimplexSampleCache cache;
  const auto a = cache.Get(HaltonKey(3, 64));
  const auto b = cache.Get(HaltonKey(3, 128));
  const auto c = cache.Get(HaltonKey(4, 64));
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(SampleCacheTest, HaltonMatchesSequentialDraw) {
  const size_t d = 3, S = 32;
  const auto key = HaltonKey(d, S);
  const Matrix generated = GenerateSimplexSamples(key);
  HaltonSequence halton(d);
  for (size_t s = 0; s < S; ++s) {
    const Vector expected = MapUnitCubeToSimplex(halton.Next());
    for (size_t k = 0; k < d; ++k) {
      EXPECT_EQ(generated(s, k), expected[k]) << "sample " << s;
    }
  }
}

TEST(SampleCacheTest, PseudoRandomMatchesSequentialDraw) {
  SimplexSampleKey key;
  key.dims = 4;
  key.num_samples = 32;
  key.pseudo_random = true;
  key.seed = 0xfeedULL;
  const Matrix generated = GenerateSimplexSamples(key);
  Rng rng(key.seed);
  for (size_t s = 0; s < key.num_samples; ++s) {
    Vector cube(key.dims);
    for (double& v : cube) v = rng.NextDouble();
    const Vector expected = MapUnitCubeToSimplex(std::move(cube));
    for (size_t k = 0; k < key.dims; ++k) {
      EXPECT_EQ(generated(s, k), expected[k]) << "sample " << s;
    }
  }
}

TEST(SampleCacheTest, ShiftReplicationMatchesSequentialRotationStream) {
  // Replication r must use draws [r*d, (r+1)*d) of the shift stream — the
  // values the sequential estimator drew when running replications in
  // order — regardless of which replications were generated before it.
  const size_t d = 3, S = 16;
  const uint64_t shift_seed = 0xabcdULL;
  Rng shift_rng(shift_seed);
  Vector shift(d);
  for (int rep = 0; rep < 3; ++rep) {  // keep draws for replication 2
    for (double& v : shift) v = shift_rng.NextDouble();
  }
  HaltonSequence halton(d);
  Matrix expected(S, d);
  for (size_t s = 0; s < S; ++s) {
    Vector p = halton.Next();
    for (size_t k = 0; k < d; ++k) {
      p[k] += shift[k];
      if (p[k] >= 1.0) p[k] -= 1.0;
    }
    const Vector point = MapUnitCubeToSimplex(std::move(p));
    for (size_t k = 0; k < d; ++k) expected(s, k) = point[k];
  }

  SimplexSampleKey key = HaltonKey(d, S);
  key.shift_index = 3;  // replication 2
  key.shift_seed = shift_seed;
  // Generated directly, with no earlier replications ever requested.
  EXPECT_TRUE(GenerateSimplexSamples(key).AlmostEquals(expected, 0.0));
}

TEST(SampleCacheTest, SamplesLieInTheSolidSimplex) {
  for (bool pseudo : {false, true}) {
    SimplexSampleKey key = HaltonKey(5, 256);
    key.pseudo_random = pseudo;
    key.seed = pseudo ? 7u : 0u;
    const Matrix samples = GenerateSimplexSamples(key);
    for (size_t s = 0; s < samples.rows(); ++s) {
      double sum = 0.0;
      for (size_t k = 0; k < samples.cols(); ++k) {
        EXPECT_GE(samples(s, k), 0.0);
        sum += samples(s, k);
      }
      EXPECT_LE(sum, 1.0 + 1e-12);
    }
  }
}

TEST(SampleCacheTest, EvictsOldestInsertFirst) {
  SimplexSampleCache cache(/*max_entries=*/2);
  (void)cache.Get(HaltonKey(2, 16));
  (void)cache.Get(HaltonKey(3, 16));
  (void)cache.Get(HaltonKey(4, 16));  // evicts (2, 16)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
  (void)cache.Get(HaltonKey(3, 16));  // still resident
  EXPECT_EQ(cache.hits(), 1u);
  (void)cache.Get(HaltonKey(2, 16));  // evicted: regenerated
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(SampleCacheTest, EvictedBufferSurvivesThroughSharedPtr) {
  SimplexSampleCache cache(/*max_entries=*/1);
  const auto held = cache.Get(HaltonKey(2, 16));
  (void)cache.Get(HaltonKey(3, 16));  // evicts the held entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(held->samples.rows(), 16u);  // still valid
  EXPECT_EQ(held->samples.cols(), 2u);
}

TEST(SampleCacheTest, ClearResetsEntriesAndCounters) {
  SimplexSampleCache cache;
  (void)cache.Get(HaltonKey(2, 16));
  (void)cache.Get(HaltonKey(2, 16));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

/// Runs `fn` on the worker thread of a private pool, where a ParallelFor
/// runs inline instead of fanning out.
template <typename Fn>
void RunOnPoolWorker(Fn&& fn) {
  ThreadPool pool(1);
  pool.Submit([&fn] { fn(); });
}  // ~ThreadPool runs the queued task, then joins.

/// Index of the first of `n` doubles whose bytes differ, or n.
size_t FirstByteDifference(const double* a, const double* b, size_t n) {
  if (std::memcmp(a, b, n * sizeof(double)) == 0) return n;
  size_t i = 0;
  while (std::memcmp(a + i, b + i, sizeof(double)) == 0) ++i;
  return i;
}

std::string Describe(const SimplexSampleKey& key) {
  std::ostringstream out;
  out << "dims " << key.dims << ", samples " << key.num_samples
      << (key.pseudo_random ? ", pseudo-random" : ", halton")
      << ", shift_index " << key.shift_index;
  return out.str();
}

/// Checks both layouts of `set` against the oracle's matrix: the rows
/// byte for byte, the lanes byte for byte as its transpose, and every pad
/// lane zero.
void ExpectMatchesOracle(const SimplexSampleSet& set, const Matrix& expected,
                         const std::string& what) {
  const size_t S = expected.rows(), d = expected.cols();
  ASSERT_EQ(set.samples.rows(), S) << what;
  ASSERT_EQ(set.samples.cols(), d) << what;
  EXPECT_EQ(FirstByteDifference(set.samples.Row(0).data(),
                                expected.Row(0).data(), S * d),
            S * d)
      << what << ": rows differ (first differing double shown)";
  ASSERT_EQ(set.lane_stride, (S + kSimdGroup - 1) / kSimdGroup * kSimdGroup)
      << what;
  ASSERT_EQ(set.lanes.size(), set.lane_stride * d) << what;
  AlignedLaneBuffer lanes(set.lane_stride * d, 0.0);
  for (size_t s = 0; s < S; ++s) {
    for (size_t k = 0; k < d; ++k) {
      lanes[k * set.lane_stride + s] = expected(s, k);
    }
  }
  EXPECT_EQ(FirstByteDifference(set.lanes.data(), lanes.data(), lanes.size()),
            lanes.size())
      << what << ": lanes differ (first differing double shown)";
  for (size_t k = 0; k < d; ++k) {
    for (size_t s = S; s < set.lane_stride; ++s) {
      EXPECT_EQ(set.Lane(k)[s], 0.0) << what << ": pad lane " << k;
    }
  }
}

/// Every key kind the generator serves at `dims` and `num_samples`:
/// unshifted Halton, Cranley–Patterson replications 0 and 2, and the
/// pseudo-random stream. Halton keys are built directly, so dims above
/// VolumeOptions::max_halton_dims get Halton points too.
std::vector<SimplexSampleKey> KeysFor(size_t dims, size_t num_samples) {
  std::vector<SimplexSampleKey> keys;
  for (uint64_t shift_index : {0u, 1u, 3u}) {
    SimplexSampleKey key = HaltonKey(dims, num_samples);
    key.shift_index = shift_index;
    // The shift seed RatioToIdealWithError derives from the default
    // VolumeOptions::seed.
    key.shift_seed = shift_index == 0 ? 0 : 0x5eedf00dULL ^ 0xc9a471e5ULL;
    keys.push_back(key);
  }
  SimplexSampleKey pseudo = HaltonKey(dims, num_samples);
  pseudo.pseudo_random = true;
  pseudo.seed = 0x5eedf00dULL;
  keys.push_back(pseudo);
  return keys;
}

class GeneratorOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GeneratorOracleTest, BothLayoutsMatchThePerPointPathByteForByte) {
  // Sample counts on both sides of the 1,024-sample chunk edge, and far
  // enough for the indices (from 32) to carry into a new digit in bases
  // 2 and 3: 2^16 and 3^10 both lie below 32 + 70,001.
  const size_t d = GetParam();
  for (size_t num_samples :
       {1u, 7u, 1023u, 1024u, 1025u, 5000u, 32768u, 70001u}) {
    for (const SimplexSampleKey& key : KeysFor(d, num_samples)) {
      const std::string what = Describe(key);
      const Matrix expected = OracleSimplexSamples(key);
      // From the main thread: Halton sets fan out over the shared pool.
      const SimplexSampleSet fanned = GenerateSimplexSampleSet(key);
      ExpectMatchesOracle(fanned, expected, what + " (main thread)");
      const Matrix rows = GenerateSimplexSamples(key);
      EXPECT_EQ(FirstByteDifference(rows.Row(0).data(),
                                    expected.Row(0).data(), num_samples * d),
                num_samples * d)
          << what << " (rows only)";
      // From a pool worker: the same generator runs inline.
      SimplexSampleSet inline_set;
      RunOnPoolWorker([&] { inline_set = GenerateSimplexSampleSet(key); });
      ExpectMatchesOracle(inline_set, expected, what + " (pool worker)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims1To16, GeneratorOracleTest,
                         ::testing::Range<size_t>(1, 17));

TEST(SampleCacheTest, HaltonSetFansOutFromMainThreadButNotFromAWorker) {
  if (ThreadPool::Shared().num_threads() < 2) {
    GTEST_SKIP() << "the shared pool has one thread: nothing to fan out to";
  }
  const SimplexSampleKey key = HaltonKey(4, 8192);
  telemetry::Telemetry telemetry;
  auto tasks = [&] { return telemetry.Snapshot().counters.at("pool.tasks"); };
  ThreadPool::Shared().set_telemetry(&telemetry);
  const SimplexSampleSet fanned = GenerateSimplexSampleSet(key);
  const uint64_t after_main = tasks();
  SimplexSampleSet inline_set;
  RunOnPoolWorker([&] { inline_set = GenerateSimplexSampleSet(key); });
  const uint64_t after_worker = tasks();
  ThreadPool::Shared().set_telemetry(nullptr);
  EXPECT_GT(after_main, 0u);            // helper tasks ran on the pool
  EXPECT_EQ(after_worker, after_main);  // the worker ran every chunk itself
  const size_t n = fanned.samples.rows() * fanned.samples.cols();
  EXPECT_EQ(FirstByteDifference(fanned.samples.Row(0).data(),
                                inline_set.samples.Row(0).data(), n),
            n);
  EXPECT_EQ(FirstByteDifference(fanned.lanes.data(), inline_set.lanes.data(),
                                fanned.lanes.size()),
            fanned.lanes.size());
}

TEST(SampleCacheTest, GlobalIsOneInstance) {
  EXPECT_EQ(&SimplexSampleCache::Global(), &SimplexSampleCache::Global());
}

}  // namespace
}  // namespace rod::geom
