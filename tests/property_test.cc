// Property-based invariant sweeps (TEST_P) over randomized query graphs,
// placements, and cluster shapes. Each property is the paper's algebra made
// executable: L^n = A L^o, Theorem 1's bounds, normalization identities,
// linearization consistency.

#include <gtest/gtest.h>

#include <cmath>

#include "geometry/feasible_set.h"
#include "geometry/hyperplane.h"
#include "geometry/polygon2d.h"
#include "placement/baselines.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "qmc_oracle.h"

namespace rod {
namespace {

using place::Placement;
using place::PlacementEvaluator;
using place::SystemSpec;
using query::QueryGraph;

struct SweepCase {
  uint64_t seed;
  size_t inputs;
  size_t ops_per_tree;
  size_t nodes;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " d=" << c.inputs << " m/tree=" << c.ops_per_tree
      << " n=" << c.nodes;
}

class GraphSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    const SweepCase& c = GetParam();
    query::GraphGenOptions gen;
    gen.num_input_streams = c.inputs;
    gen.ops_per_tree = c.ops_per_tree;
    Rng rng(c.seed);
    graph_ = query::GenerateRandomTrees(gen, rng);
    auto model = query::BuildLoadModel(graph_);
    ASSERT_TRUE(model.ok());
    model_ = std::move(*model);
    system_ = SystemSpec::Homogeneous(c.nodes);
  }

  Placement RandomPlacement(uint64_t seed) {
    Rng rng(seed);
    auto p = place::RandomPlace(model_, system_, rng);
    EXPECT_TRUE(p.ok());
    return *p;
  }

  QueryGraph graph_;
  query::LoadModel model_;
  SystemSpec system_;
};

TEST_P(GraphSweepTest, NodeCoeffsEqualAllocationTimesOpCoeffs) {
  const Placement p = RandomPlacement(1);
  const Matrix direct = p.NodeCoeffs(model_.op_coeffs());
  const Matrix via = p.AllocationMatrix().MatMul(model_.op_coeffs());
  EXPECT_TRUE(direct.AlmostEquals(via, 1e-9));
}

TEST_P(GraphSweepTest, ColumnSumsInvariantUnderPlacement) {
  // Constraint (1) of Theorem 1: sum_i l^n_ik = sum_j l^o_jk = l_k for any
  // placement.
  for (uint64_t s : {2u, 3u}) {
    const Matrix ln = RandomPlacement(s).NodeCoeffs(model_.op_coeffs());
    for (size_t k = 0; k < model_.num_vars(); ++k) {
      EXPECT_NEAR(ln.ColSum(k), model_.total_coeffs()[k], 1e-9);
    }
  }
}

TEST_P(GraphSweepTest, WeightedCapacityMeanIsOne) {
  // sum_i w_ik * (C_i / C_T) = 1 for every stream k: the capacity-weighted
  // average weight of a stream is always exactly 1.
  const PlacementEvaluator eval(model_, system_);
  auto w = eval.WeightMatrix(RandomPlacement(4));
  ASSERT_TRUE(w.ok());
  const double ct = system_.TotalCapacity();
  for (size_t k = 0; k < w->cols(); ++k) {
    double acc = 0.0;
    for (size_t i = 0; i < w->rows(); ++i) {
      acc += (*w)(i, k) * system_.capacities[i] / ct;
    }
    EXPECT_NEAR(acc, 1.0, 1e-9);
  }
}

TEST_P(GraphSweepTest, RatioNeverExceedsOne) {
  const PlacementEvaluator eval(model_, system_);
  geom::VolumeOptions vol;
  vol.num_samples = 4096;
  for (uint64_t s : {5u, 6u}) {
    auto ratio = eval.RatioToIdeal(RandomPlacement(s), vol);
    ASSERT_TRUE(ratio.ok());
    EXPECT_GE(*ratio, 0.0);
    EXPECT_LE(*ratio, 1.0 + 1e-12);
  }
}

TEST_P(GraphSweepTest, MmadBoundHolds) {
  // §4.1: ratio >= prod_k min(1, min-axis-distance_k).
  const PlacementEvaluator eval(model_, system_);
  geom::VolumeOptions vol;
  vol.num_samples = 1u << 14;
  const Placement p = RandomPlacement(7);
  auto w = eval.WeightMatrix(p);
  ASSERT_TRUE(w.ok());
  auto ratio = eval.RatioToIdeal(p, vol);
  ASSERT_TRUE(ratio.ok());
  EXPECT_GE(*ratio + 0.02, geom::AxisDistanceVolumeLowerBound(*w));
}

TEST_P(GraphSweepTest, HypersphereBoundHolds) {
  // §4.2: the feasible set contains the nonneg-orthant part of the
  // r-sphere, so ratio * V(F*) >= orthant sphere volume; a cheaper check:
  // every sampled infeasible point lies farther than r from the origin.
  const PlacementEvaluator eval(model_, system_);
  const Placement p = RandomPlacement(8);
  auto w = eval.WeightMatrix(p);
  ASSERT_TRUE(w.ok());
  const double r = geom::MinPlaneDistance(*w);
  const geom::FeasibleSet fs(*w);
  geom::HaltonSequence halton(model_.num_vars());
  for (int s = 0; s < 2000; ++s) {
    const Vector x = geom::MapUnitCubeToSimplex(halton.Next());
    if (!fs.Contains(x)) {
      EXPECT_GE(Norm2(x), r - 1e-9);
    }
  }
}

TEST_P(GraphSweepTest, RodFeasibleSetContainsPointsBelowMinPlane) {
  // ROD's plan must itself satisfy the same geometry.
  auto plan = place::RodPlace(model_, system_);
  ASSERT_TRUE(plan.ok());
  const PlacementEvaluator eval(model_, system_);
  auto w = eval.WeightMatrix(*plan);
  ASSERT_TRUE(w.ok());
  const geom::FeasibleSet fs(*w);
  const double r = geom::MinPlaneDistance(*w);
  // Points strictly inside the r-sphere are always feasible.
  Rng rng(99);
  for (int s = 0; s < 500; ++s) {
    Vector x(model_.num_vars());
    double norm = 0.0;
    for (double& v : x) {
      v = rng.NextDouble();
      norm += v * v;
    }
    norm = std::sqrt(norm);
    const double scale = 0.99 * r / norm * rng.NextDouble();
    for (double& v : x) v *= scale;
    EXPECT_TRUE(fs.Contains(x));
  }
}

TEST_P(GraphSweepTest, AnalyticFeasibilityMatchesNormalizedContainment) {
  // FeasibleAt(R) <=> normalized point within the weight polytope.
  const PlacementEvaluator eval(model_, system_);
  const Placement p = RandomPlacement(10);
  auto w = eval.WeightMatrix(p);
  ASSERT_TRUE(w.ok());
  const geom::FeasibleSet fs(*w);
  Rng rng(123);
  const double ct = system_.TotalCapacity();
  for (int s = 0; s < 200; ++s) {
    Vector rates(model_.num_system_inputs());
    for (size_t k = 0; k < rates.size(); ++k) {
      // Up to ~1.5x the single-stream ideal boundary.
      rates[k] = rng.NextDouble() * 1.5 * ct /
                 (model_.total_coeffs()[k] *
                  static_cast<double>(rates.size()));
    }
    const Vector x =
        geom::NormalizePoint(rates, model_.total_coeffs(), ct);
    EXPECT_EQ(eval.FeasibleAt(p, rates), fs.Contains(x))
        << "sample " << s;
  }
}

TEST_P(GraphSweepTest, RodBeatsOrMatchesRandomOnAverage) {
  const PlacementEvaluator eval(model_, system_);
  geom::VolumeOptions vol;
  vol.num_samples = 8192;
  auto rod = place::RodPlace(model_, system_);
  ASSERT_TRUE(rod.ok());
  auto rod_ratio = eval.RatioToIdeal(*rod, vol);
  ASSERT_TRUE(rod_ratio.ok());
  double random_sum = 0.0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    auto ratio = eval.RatioToIdeal(RandomPlacement(1000 + t), vol);
    ASSERT_TRUE(ratio.ok());
    random_sum += *ratio;
  }
  EXPECT_GE(*rod_ratio + 1e-9, random_sum / trials);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GraphSweepTest,
    ::testing::Values(SweepCase{101, 2, 8, 2}, SweepCase{102, 2, 20, 3},
                      SweepCase{103, 3, 10, 2}, SweepCase{104, 3, 25, 4},
                      SweepCase{105, 5, 12, 3}, SweepCase{106, 5, 30, 5},
                      SweepCase{107, 7, 15, 4}, SweepCase{108, 4, 40, 6}));

// --- 2-D exactness sweep: QMC volume vs polygon area on random weights ---

class Exact2DSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Exact2DSweepTest, QmcAgreesWithPolygon) {
  Rng rng(GetParam());
  const size_t n = 1 + rng.NextIndex(4);
  Matrix w(n, 2);
  for (size_t i = 0; i < n; ++i) {
    w(i, 0) = rng.Uniform(0.0, 3.0);
    w(i, 1) = rng.Uniform(0.0, 3.0);
  }
  const double exact = *geom::ExactRatioToIdeal2D(w);
  geom::VolumeOptions vol;
  vol.num_samples = 1u << 15;
  const double qmc = geom::FeasibleSet(w).RatioToIdeal(vol);
  EXPECT_NEAR(qmc, exact, 0.015);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Exact2DSweepTest,
                         ::testing::Range<uint64_t>(1, 21));

// --- Linearization identity sweep over graphs with joins ---

class JoinSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinSweepTest, CoefficientLoadsMatchDirectLoads) {
  Rng rng(GetParam());
  // Random 2-input graph with a join over two random-depth chains.
  QueryGraph g;
  const auto i0 = g.AddInputStream("L");
  const auto i1 = g.AddInputStream("R");
  query::StreamRef left = query::StreamRef::Input(i0);
  query::StreamRef right = query::StreamRef::Input(i1);
  const int depth = 1 + static_cast<int>(rng.NextIndex(3));
  for (int j = 0; j < depth; ++j) {
    left = query::StreamRef::Op(*g.AddOperator(
        {.name = std::string("l").append(std::to_string(j)),
         .kind = query::OperatorKind::kFilter,
         .cost = rng.Uniform(0.5, 2.0),
         .selectivity = rng.Uniform(0.3, 1.0)},
        {left}));
    right = query::StreamRef::Op(*g.AddOperator(
        {.name = std::string("r").append(std::to_string(j)),
         .kind = query::OperatorKind::kFilter,
         .cost = rng.Uniform(0.5, 2.0),
         .selectivity = rng.Uniform(0.3, 1.0)},
        {right}));
  }
  auto join = g.AddOperator({.name = "join",
                             .kind = query::OperatorKind::kJoin,
                             .cost = rng.Uniform(0.1, 1.0),
                             .selectivity = rng.Uniform(0.1, 0.9),
                             .window = rng.Uniform(0.5, 4.0)},
                            {left, right});
  ASSERT_TRUE(join.ok());
  ASSERT_TRUE(g.AddOperator({.name = "down",
                             .kind = query::OperatorKind::kMap,
                             .cost = rng.Uniform(0.5, 2.0)},
                            {query::StreamRef::Op(*join)})
                  .ok());
  auto model = query::BuildLinearizedLoadModel(g);
  ASSERT_TRUE(model.ok());
  for (int s = 0; s < 20; ++s) {
    const Vector rates = {rng.Uniform(0.0, 5.0), rng.Uniform(0.0, 5.0)};
    const Vector direct = model->OperatorLoadsAt(rates);
    const Vector via = model->op_coeffs().MatVec(model->ExtendRates(rates));
    for (size_t j = 0; j < direct.size(); ++j) {
      EXPECT_NEAR(direct[j], via[j], 1e-6 * (1.0 + direct[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinSweepTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace rod
