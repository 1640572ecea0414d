// Tests for the ROD algorithm itself: paper Example 2 behaviour, the
// perfectly balanceable case, the §6.1 lower-bound variant, tie-break
// policies, and the ablation modes.

#include "placement/rod.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "geometry/hyperplane.h"
#include "placement/evaluator.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rod::place {
namespace {

using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

QueryGraph PaperFigure4Graph() {
  QueryGraph g;
  const InputStreamId i1 = g.AddInputStream("I1");
  const InputStreamId i2 = g.AddInputStream("I2");
  auto o1 = g.AddOperator({.name = "o1", .kind = OperatorKind::kMap,
                           .cost = 4.0, .selectivity = 1.0},
                          {StreamRef::Input(i1)});
  auto o2 = g.AddOperator({.name = "o2", .kind = OperatorKind::kMap,
                           .cost = 6.0, .selectivity = 1.0},
                          {StreamRef::Op(*o1)});
  auto o3 = g.AddOperator({.name = "o3", .kind = OperatorKind::kFilter,
                           .cost = 9.0, .selectivity = 0.5},
                          {StreamRef::Input(i2)});
  auto o4 = g.AddOperator({.name = "o4", .kind = OperatorKind::kMap,
                           .cost = 4.0, .selectivity = 1.0},
                          {StreamRef::Op(*o3)});
  EXPECT_TRUE(o4.ok());
  return g;
}

TEST(RodTest, PaperExample2SplitsBothStreams) {
  const QueryGraph g = PaperFigure4Graph();
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());

  // ROD must not put a whole input stream's operators on one node: o1 and
  // o2 (stream 1) split, o3 and o4 (stream 2) split.
  EXPECT_NE(plan->node_of(0), plan->node_of(1));
  EXPECT_NE(plan->node_of(2), plan->node_of(3));

  // And its feasible ratio beats the connected plan {o1,o2}|{o3,o4} (0.5).
  const PlacementEvaluator eval(*model, system);
  geom::VolumeOptions options;
  options.num_samples = 1u << 16;
  auto rod_ratio = eval.RatioToIdeal(*plan, options);
  ASSERT_TRUE(rod_ratio.ok());
  auto connected_ratio = eval.RatioToIdeal(Placement(2, {0, 0, 1, 1}), options);
  ASSERT_TRUE(connected_ratio.ok());
  EXPECT_GT(*rod_ratio, *connected_ratio);
}

TEST(RodTest, PerfectlyBalanceableReachesIdeal) {
  // Two streams, two identical operators each, two equal nodes: the ideal
  // matrix is achievable, so ROD should attain ratio 1 and min plane
  // distance r* = 1/sqrt(2).
  QueryGraph g;
  const InputStreamId i1 = g.AddInputStream("I1");
  const InputStreamId i2 = g.AddInputStream("I2");
  for (int rep = 0; rep < 2; ++rep) {
    const std::string a_name = std::string("a").append(std::to_string(rep));
    ASSERT_TRUE(g.AddOperator({.name = a_name,
                               .kind = OperatorKind::kMap, .cost = 3.0},
                              {StreamRef::Input(i1)})
                    .ok());
    const std::string b_name = std::string("b").append(std::to_string(rep));
    ASSERT_TRUE(g.AddOperator({.name = b_name,
                               .kind = OperatorKind::kMap, .cost = 5.0},
                              {StreamRef::Input(i2)})
                    .ok());
  }
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());

  const PlacementEvaluator eval(*model, system);
  auto distance = eval.MinPlaneDistance(*plan);
  ASSERT_TRUE(distance.ok());
  EXPECT_NEAR(*distance, geom::IdealPlaneDistance(2), 1e-9);
  auto ratio = eval.RatioToIdeal(*plan);
  ASSERT_TRUE(ratio.ok());
  EXPECT_NEAR(*ratio, 1.0, 1e-9);
}

TEST(RodTest, HeterogeneousCapacitiesRespected) {
  // One node with 3x capacity should host ~3x the load per stream.
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  for (int rep = 0; rep < 4; ++rep) {
    const std::string name = std::string("o").append(std::to_string(rep));
    ASSERT_TRUE(g.AddOperator({.name = name,
                               .kind = OperatorKind::kMap, .cost = 1.0},
                              {StreamRef::Input(in)})
                    .ok());
  }
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system{Vector{3.0, 1.0}};
  auto plan = RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());
  // 4 equal ops; proportional shares are 3 and 1.
  const auto by_node = plan->OperatorsByNode();
  EXPECT_EQ(by_node[0].size(), 3u);
  EXPECT_EQ(by_node[1].size(), 1u);
}

TEST(RodTest, DeterministicByDefault) {
  query::GraphGenOptions gen;
  gen.num_input_streams = 3;
  gen.ops_per_tree = 10;
  Rng rng(99);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(4);
  auto a = RodPlace(*model, system);
  auto b = RodPlace(*model, system);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment(), b->assignment());
}

TEST(RodTest, RandomTieBreakDeterministicPerSeed) {
  query::GraphGenOptions gen;
  Rng rng(7);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  RodOptions options;
  options.tie_break = RodOptions::ClassITieBreak::kRandom;
  options.seed = 1234;
  auto a = RodPlace(*model, system, options);
  auto b = RodPlace(*model, system, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment(), b->assignment());
}

TEST(RodTest, MinCrossArcsTieBreakReducesCrossings) {
  query::GraphGenOptions gen;
  gen.num_input_streams = 4;
  gen.ops_per_tree = 25;
  Rng rng(5);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(4);

  auto default_plan = RodPlace(*model, system);
  RodOptions options;
  options.tie_break = RodOptions::ClassITieBreak::kMinCrossArcs;
  auto local_plan = RodPlace(*model, system, options, &g);
  ASSERT_TRUE(default_plan.ok() && local_plan.ok());
  EXPECT_LE(local_plan->CountCrossNodeArcs(g),
            default_plan->CountCrossNodeArcs(g));
}

TEST(RodTest, MinCrossArcsRequiresGraph) {
  const QueryGraph g = PaperFigure4Graph();
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  RodOptions options;
  options.tie_break = RodOptions::ClassITieBreak::kMinCrossArcs;
  EXPECT_FALSE(RodPlace(*model, SystemSpec::Homogeneous(2), options).ok());
}

TEST(RodTest, LowerBoundVariantRunsAndDiffersWhenBoundBinds) {
  query::GraphGenOptions gen;
  gen.num_input_streams = 2;
  gen.ops_per_tree = 12;
  Rng rng(21);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);

  auto base = RodPlace(*model, system);
  ASSERT_TRUE(base.ok());

  RodOptions options;
  // A floor consuming a large share of stream 0's ideal headroom.
  const double r0_max = system.TotalCapacity() / model->total_coeffs()[0];
  options.lower_bound = {0.8 * r0_max, 0.0};
  auto bounded = RodPlace(*model, system, options);
  ASSERT_TRUE(bounded.ok());

  // The bounded plan must be at least as good as the unbounded one when
  // measured by distance-from-the-bound.
  const PlacementEvaluator eval(*model, system);
  const Vector norm_lb = geom::NormalizePoint(
      options.lower_bound, model->total_coeffs(), system.TotalCapacity());
  auto w_base = eval.WeightMatrix(*base);
  auto w_bounded = eval.WeightMatrix(*bounded);
  ASSERT_TRUE(w_base.ok() && w_bounded.ok());
  EXPECT_GE(geom::MinPlaneDistanceFrom(*w_bounded, norm_lb) + 1e-12,
            geom::MinPlaneDistanceFrom(*w_base, norm_lb));
}

TEST(RodTest, LowerBoundWorksOnLinearizedModels) {
  // The physical lower bound covers only the system inputs; auxiliary
  // (join-output) variables get floor 0 automatically.
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("L");
  const InputStreamId i1 = g.AddInputStream("R");
  auto fl = g.AddOperator({.name = "fl", .kind = OperatorKind::kFilter,
                           .cost = 1e-3, .selectivity = 0.8},
                          {StreamRef::Input(i0)});
  auto fr = g.AddOperator({.name = "fr", .kind = OperatorKind::kFilter,
                           .cost = 1e-3, .selectivity = 0.8},
                          {StreamRef::Input(i1)});
  auto j = g.AddOperator({.name = "j", .kind = OperatorKind::kJoin,
                          .cost = 1e-5, .selectivity = 0.3, .window = 0.5},
                         {StreamRef::Op(*fl), StreamRef::Op(*fr)});
  auto d = g.AddOperator({.name = "d", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Op(*j)});
  ASSERT_TRUE(d.ok());
  auto model = query::BuildLinearizedLoadModel(g);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->has_aux_vars());
  RodOptions options;
  options.lower_bound = {10.0, 10.0};  // over the 2 physical inputs only
  auto plan = RodPlace(*model, SystemSpec::Homogeneous(2), options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST(RodTest, LowerBoundValidation) {
  const QueryGraph g = PaperFigure4Graph();
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  RodOptions options;
  options.lower_bound = {1.0};  // wrong dimension
  EXPECT_FALSE(RodPlace(*model, SystemSpec::Homogeneous(2), options).ok());
  options.lower_bound = {-1.0, 0.0};
  EXPECT_FALSE(RodPlace(*model, SystemSpec::Homogeneous(2), options).ok());
}

TEST(RodTest, AblationModesProduceValidPlans) {
  query::GraphGenOptions gen;
  gen.num_input_streams = 3;
  gen.ops_per_tree = 15;
  Rng rng(31);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  const PlacementEvaluator eval(*model, system);
  geom::VolumeOptions vol;
  vol.num_samples = 1u << 14;

  for (auto mode : {RodOptions::Mode::kCombined, RodOptions::Mode::kMmadOnly,
                    RodOptions::Mode::kMmpdOnly}) {
    RodOptions options;
    options.mode = mode;
    auto plan = RodPlace(*model, system, options);
    ASSERT_TRUE(plan.ok());
    auto ratio = eval.RatioToIdeal(*plan, vol);
    ASSERT_TRUE(ratio.ok());
    EXPECT_GT(*ratio, 0.0);
  }
}

TEST(RodTest, OrderingAblationStillValid) {
  query::GraphGenOptions gen;
  Rng rng(41);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  RodOptions unsorted;
  unsorted.sort_operators = false;
  RodOptions ascending;
  ascending.sort_ascending = true;
  EXPECT_TRUE(RodPlace(*model, SystemSpec::Homogeneous(4), unsorted).ok());
  EXPECT_TRUE(RodPlace(*model, SystemSpec::Homogeneous(4), ascending).ok());
}

TEST(RodTest, MinMaxWeightTieBreakBalancesAxes) {
  // Six equal ops on one stream, three nodes: kMinMaxWeight fills nodes
  // evenly (2-2-2) because it always picks the lowest-weight node.
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  for (int rep = 0; rep < 6; ++rep) {
    const std::string name = std::string("o").append(std::to_string(rep));
    ASSERT_TRUE(g.AddOperator({.name = name,
                               .kind = OperatorKind::kMap, .cost = 1.0},
                              {StreamRef::Input(in)})
                    .ok());
  }
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  RodOptions options;
  options.tie_break = RodOptions::ClassITieBreak::kMinMaxWeight;
  auto plan = RodPlace(*model, system, options);
  ASSERT_TRUE(plan.ok());
  for (const auto& ops : plan->OperatorsByNode()) {
    EXPECT_EQ(ops.size(), 2u);
  }
}

TEST(RodTest, MatrixInterfaceValidatesInputs) {
  const Matrix lo = Matrix::FromRows({{1.0, 0.0}});
  const SystemSpec system = SystemSpec::Homogeneous(2);
  // Non-positive total coefficient.
  EXPECT_FALSE(RodPlaceMatrix(lo, Vector{1.0, 0.0}, system).ok());
  // Size mismatch.
  EXPECT_FALSE(RodPlaceMatrix(lo, Vector{1.0}, system).ok());
  // Empty unit set.
  EXPECT_FALSE(RodPlaceMatrix(Matrix(), Vector{}, system).ok());
  // Valid.
  EXPECT_TRUE(RodPlaceMatrix(lo, Vector{1.0, 1.0}, system).ok());
}

TEST(RodTest, MatrixInterfaceRejectsNegativeAndNanCoefficients) {
  // The scan updates each node's largest weight by the loaded axes only,
  // which is exact because a coefficient c >= 0 can only raise a weight.
  const SystemSpec system = SystemSpec::Homogeneous(2);
  const Vector totals{1.0, 1.0};
  const Matrix negative = Matrix::FromRows({{0.5, 0.0}, {0.25, -0.25}});
  EXPECT_EQ(RodPlaceMatrix(negative, totals, system).status().code(),
            StatusCode::kInvalidArgument);
  const Matrix nan = Matrix::FromRows(
      {{0.5, std::numeric_limits<double>::quiet_NaN()}, {0.25, 0.25}});
  EXPECT_EQ(RodPlaceMatrix(nan, totals, system).status().code(),
            StatusCode::kInvalidArgument);
  // A pinned unit is checked too: its load seeds the node weights.
  const std::vector<size_t> fixed{2, 0};
  EXPECT_EQ(RodPlaceMatrix(negative, totals, system, {}, {}, nullptr, &fixed)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Zero coefficients, including -0.0, are not negative.
  const Matrix zeros = Matrix::FromRows({{0.5, -0.0}, {0.0, 0.5}});
  EXPECT_TRUE(RodPlaceMatrix(zeros, totals, system).ok());
}

}  // namespace
}  // namespace rod::place
