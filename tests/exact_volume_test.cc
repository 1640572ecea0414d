// Tests for the Lasserre exact polytope volume and its agreement with the
// polygon (d = 2) and QMC (d >= 3) estimators.

#include "exact_volume.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "geometry/feasible_set.h"
#include "geometry/polygon2d.h"

namespace rod::geom {
namespace {

/// Constraints for the unit box [0, s]^d.
void BoxSystem(size_t d, double s, Matrix* a, Vector* b) {
  *a = Matrix(2 * d, d);
  b->assign(2 * d, 0.0);
  for (size_t k = 0; k < d; ++k) {
    (*a)(k, k) = 1.0;
    (*b)[k] = s;
    (*a)(d + k, k) = -1.0;
    (*b)[d + k] = 0.0;
  }
}

TEST(PolytopeVolumeTest, UnitBoxes) {
  for (size_t d : {1u, 2u, 3u, 4u, 5u}) {
    Matrix a;
    Vector b;
    BoxSystem(d, 1.0, &a, &b);
    auto v = PolytopeVolume(a, b);
    ASSERT_TRUE(v.ok()) << d;
    EXPECT_NEAR(*v, 1.0, 1e-9) << "d = " << d;
  }
}

TEST(PolytopeVolumeTest, ScaledBox) {
  Matrix a;
  Vector b;
  BoxSystem(3, 0.5, &a, &b);
  auto v = PolytopeVolume(a, b);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, 0.125, 1e-9);
}

TEST(PolytopeVolumeTest, StandardSimplices) {
  for (size_t d : {2u, 3u, 4u, 5u}) {
    Matrix a(d + 1, d);
    Vector b(d + 1, 0.0);
    for (size_t k = 0; k < d; ++k) {
      a(k, k) = -1.0;                       // x_k >= 0
      a(d, k) = 1.0;                        // sum <= 1
    }
    b[d] = 1.0;
    auto v = PolytopeVolume(a, b);
    ASSERT_TRUE(v.ok());
    EXPECT_NEAR(*v, 1.0 / std::tgamma(static_cast<double>(d) + 1.0), 1e-9)
        << "d = " << d;
  }
}

TEST(PolytopeVolumeTest, RedundantConstraintsHarmless) {
  Matrix a;
  Vector b;
  BoxSystem(3, 1.0, &a, &b);
  // Add a redundant plane and a duplicate of an existing facet.
  Matrix a2(a.rows() + 2, 3);
  Vector b2 = b;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < 3; ++k) a2(i, k) = a(i, k);
  }
  a2(a.rows(), 0) = 1.0;  // x <= 10 (redundant)
  b2.push_back(10.0);
  a2(a.rows() + 1, 1) = 2.0;  // 2y <= 2 == facet y <= 1 duplicated
  b2.push_back(2.0);
  auto v = PolytopeVolume(a2, b2);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, 1.0, 1e-9);
}

TEST(PolytopeVolumeTest, EmptyPolytopeIsZero) {
  // x >= 1 and x <= 0 in a box.
  Matrix a(4, 2);
  Vector b(4, 0.0);
  a(0, 0) = 1.0;
  b[0] = 0.0;  // x <= 0
  a(1, 0) = -1.0;
  b[1] = -1.0;  // x >= 1
  a(2, 1) = 1.0;
  b[2] = 1.0;
  a(3, 1) = -1.0;
  b[3] = 0.0;
  auto v = PolytopeVolume(a, b);
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v, 0.0, 1e-12);
}

TEST(PolytopeVolumeTest, UnboundedRejected) {
  Matrix a(1, 2);
  a(0, 0) = 1.0;
  Vector b = {1.0};
  EXPECT_FALSE(PolytopeVolume(a, b).ok());
}

TEST(PolytopeVolumeTest, GuardsAndValidation) {
  Matrix a(2, 7, 1.0);
  Vector b(2, 1.0);
  EXPECT_FALSE(PolytopeVolume(a, b).ok());  // d = 7 > default guard
  Matrix ok(1, 2, 1.0);
  EXPECT_FALSE(PolytopeVolume(ok, Vector{1.0, 2.0}).ok());  // size mismatch
}

TEST(ExactRatioNDTest, IdealMatrixGivesOne) {
  for (size_t d : {2u, 3u, 4u}) {
    Matrix w(3, d, 1.0);
    auto r = ExactRatioToIdealND(w);
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(*r, 1.0, 1e-9) << d;
  }
}

TEST(ExactRatioNDTest, HandComputed3D) {
  // W = 2*I in 3-D: feasible = {x <= 1/2 each} ∩ {sum <= 1}. Volume =
  // (1/2)^3 - (corner simplex with legs 1/2) = 1/8 - 1/48 = 5/48;
  // ratio = (5/48) / (1/6) = 5/8.
  Matrix w(3, 3);
  for (size_t i = 0; i < 3; ++i) w(i, i) = 2.0;
  auto r = ExactRatioToIdealND(w);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 5.0 / 8.0, 1e-9);
}

TEST(ExactRatioNDTest, MatchesPolygonIn2D) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Matrix w(1 + rng.NextIndex(4), 2);
    for (size_t i = 0; i < w.rows(); ++i) {
      w(i, 0) = rng.Uniform(0.0, 3.0);
      w(i, 1) = rng.Uniform(0.0, 3.0);
    }
    const double polygon = *ExactRatioToIdeal2D(w);
    auto lasserre = ExactRatioToIdealND(w);
    ASSERT_TRUE(lasserre.ok());
    EXPECT_NEAR(*lasserre, polygon, 1e-9) << w.ToString();
  }
}

TEST(ExactRatioNDTest, MatchesQmcIn3And4D) {
  Rng rng(13);
  VolumeOptions vol;
  vol.num_samples = 1u << 16;
  for (size_t d : {3u, 4u}) {
    for (int trial = 0; trial < 5; ++trial) {
      Matrix w(3, d);
      for (size_t i = 0; i < w.rows(); ++i) {
        for (size_t k = 0; k < d; ++k) w(i, k) = rng.Uniform(0.2, 2.5);
      }
      auto exact = ExactRatioToIdealND(w);
      ASSERT_TRUE(exact.ok());
      const double qmc = FeasibleSet(w).RatioToIdeal(vol);
      EXPECT_NEAR(qmc, *exact, 0.02) << "d=" << d << "\n" << w.ToString();
    }
  }
}

}  // namespace
}  // namespace rod::geom
