// Tests for the Halton sequence and the cube-to-simplex transform.

#include "geometry/qmc.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "qmc_oracle.h"

namespace rod::geom {
namespace {

TEST(PrimesTest, FirstPrimes) {
  EXPECT_EQ(FirstPrimes(8),
            (std::vector<uint32_t>{2, 3, 5, 7, 11, 13, 17, 19}));
  EXPECT_TRUE(FirstPrimes(0).empty());
}

TEST(RadicalInverseTest, Base2KnownValues) {
  EXPECT_DOUBLE_EQ(RadicalInverse(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(RadicalInverse(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(RadicalInverse(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(RadicalInverse(3, 2), 0.75);
  EXPECT_DOUBLE_EQ(RadicalInverse(4, 2), 0.125);
}

TEST(RadicalInverseTest, Base3KnownValues) {
  EXPECT_DOUBLE_EQ(RadicalInverse(1, 3), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(RadicalInverse(2, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(RadicalInverse(3, 3), 1.0 / 9.0);
}

TEST(HaltonTest, PointsInUnitCube) {
  HaltonSequence h(5);
  for (int i = 0; i < 1000; ++i) {
    const Vector p = h.Next();
    ASSERT_EQ(p.size(), 5u);
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(HaltonTest, DeterministicAcrossInstances) {
  HaltonSequence a(3), b(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(HaltonTest, LowDiscrepancyBeatsNothing) {
  // The 1-D Halton mean converges to 0.5 much faster than 1/sqrt(N).
  HaltonSequence h(1);
  double sum = 0.0;
  const int n = 4096;
  for (int i = 0; i < n; ++i) sum += h.Next()[0];
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(HaltonTest, DimensionsDecorrelated) {
  // Sample covariance between the base-2 and base-3 coordinates ~ 0.
  HaltonSequence h(2);
  const int n = 8192;
  double sx = 0, sy = 0, sxy = 0;
  for (int i = 0; i < n; ++i) {
    const Vector p = h.Next();
    sx += p[0];
    sy += p[1];
    sxy += p[0] * p[1];
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  EXPECT_NEAR(cov, 0.0, 0.002);
}

TEST(SimplexMapTest, OutputInSolidSimplex) {
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    Vector cube(4);
    for (double& v : cube) v = rng.NextDouble();
    const Vector x = MapUnitCubeToSimplex(cube);
    double sum = 0.0;
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_LE(sum, 1.0 + 1e-12);
  }
}

TEST(SimplexMapTest, PreservesTotalAsMaxCoordinate) {
  // sum of spacings equals the largest input coordinate.
  Vector cube = {0.7, 0.2, 0.4};
  const Vector x = MapUnitCubeToSimplex(cube);
  EXPECT_NEAR(x[0] + x[1] + x[2], 0.7, 1e-12);
  EXPECT_NEAR(x[0], 0.2, 1e-12);
  EXPECT_NEAR(x[1], 0.2, 1e-12);
  EXPECT_NEAR(x[2], 0.3, 1e-12);
}

TEST(SimplexMapTest, UniformMeasure) {
  // Under the uniform distribution on the solid simplex {x>=0, sum<=1} in
  // d dims, E[x_k] = 1/(d+1) for every k. Check with pseudo-random input.
  Rng rng(17);
  const size_t d = 3;
  const int n = 200000;
  Vector mean(d, 0.0);
  for (int i = 0; i < n; ++i) {
    Vector cube(d);
    for (double& v : cube) v = rng.NextDouble();
    const Vector x = MapUnitCubeToSimplex(std::move(cube));
    for (size_t k = 0; k < d; ++k) mean[k] += x[k];
  }
  for (size_t k = 0; k < d; ++k) {
    EXPECT_NEAR(mean[k] / n, 0.25, 0.002) << "coordinate " << k;
  }
}

TEST(SimplexMapTest, HalfSpaceProbability) {
  // P(sum x <= 1/2) over the solid simplex is (1/2)^d (scaled sub-simplex).
  Rng rng(23);
  const size_t d = 4;
  const int n = 300000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    Vector cube(d);
    for (double& v : cube) v = rng.NextDouble();
    const Vector x = MapUnitCubeToSimplex(std::move(cube));
    double sum = 0.0;
    for (double v : x) sum += v;
    hits += sum <= 0.5;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 1.0 / 16.0, 0.003);
}

}  // namespace
}  // namespace rod::geom
