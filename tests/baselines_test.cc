// Tests for the four §7.2 baseline distribution algorithms.

#include "placement/baselines.h"

#include <gtest/gtest.h>

#include <cmath>

#include "placement/evaluator.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rod::place {
namespace {

using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

/// A graph of `m` independent single-operator chains on one stream, with
/// distinct costs so load-based tie-breaking is unambiguous.
QueryGraph UniformChains(size_t m, double base_cost = 1.0) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  for (size_t j = 0; j < m; ++j) {
    const std::string name = std::string("o").append(std::to_string(j));
    EXPECT_TRUE(g.AddOperator({.name = name,
                               .kind = OperatorKind::kMap,
                               .cost = base_cost * (1.0 + 0.01 * j)},
                              {StreamRef::Input(in)})
                    .ok());
  }
  return g;
}

TEST(RandomPlaceTest, EqualOperatorCounts) {
  const QueryGraph g = UniformChains(12);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(4);
  Rng rng(3);
  auto plan = RandomPlace(*model, system, rng);
  ASSERT_TRUE(plan.ok());
  for (const auto& ops : plan->OperatorsByNode()) {
    EXPECT_EQ(ops.size(), 3u);
  }
}

TEST(RandomPlaceTest, DifferentSeedsDifferentPlans) {
  const QueryGraph g = UniformChains(20);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(4);
  Rng r1(1), r2(2);
  auto a = RandomPlace(*model, system, r1);
  auto b = RandomPlace(*model, system, r2);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->assignment(), b->assignment());
}

TEST(LlfTest, BalancesLoadAtGivenRates) {
  const QueryGraph g = UniformChains(40);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(4);
  const Vector rates = {2.0};
  auto plan = LargestLoadFirstPlace(*model, system, rates);
  ASSERT_TRUE(plan.ok());
  const PlacementEvaluator eval(*model, system);
  const Vector loads = eval.NodeLoadsAt(*plan, rates);
  const double total = Sum(loads);
  for (double l : loads) {
    EXPECT_NEAR(l, total / 4.0, total * 0.05);  // within 5% of even split
  }
}

TEST(LlfTest, HonorsHeterogeneousCapacity) {
  const QueryGraph g = UniformChains(40);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system{Vector{3.0, 1.0}};
  const Vector rates = {1.0};
  auto plan = LargestLoadFirstPlace(*model, system, rates);
  ASSERT_TRUE(plan.ok());
  const PlacementEvaluator eval(*model, system);
  const Vector util = eval.NodeUtilizationAt(*plan, rates);
  EXPECT_NEAR(util[0], util[1], 0.1 * util[0]);  // balanced *utilization*
}

TEST(LlfTest, ValidatesRateSize) {
  const QueryGraph g = UniformChains(4);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(LargestLoadFirstPlace(*model, SystemSpec::Homogeneous(2),
                                     Vector{1.0, 2.0})
                   .ok());
}

TEST(ConnectedTest, KeepsChainsLocal) {
  // Two long chains on two streams; with two nodes the connected algorithm
  // should produce far fewer cross-node arcs than a random split.
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("I0");
  const InputStreamId i1 = g.AddInputStream("I1");
  StreamRef prev0 = StreamRef::Input(i0);
  StreamRef prev1 = StreamRef::Input(i1);
  for (int j = 0; j < 10; ++j) {
    prev0 = StreamRef::Op(*g.AddOperator(
        {.name = std::string("a").append(std::to_string(j)),
         .kind = OperatorKind::kMap,
         .cost = 1.0},
        {prev0}));
    prev1 = StreamRef::Op(*g.AddOperator(
        {.name = std::string("b").append(std::to_string(j)),
         .kind = OperatorKind::kMap,
         .cost = 1.0},
        {prev1}));
  }
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = ConnectedLoadBalancePlace(*model, g, system, Vector{1.0, 1.0});
  ASSERT_TRUE(plan.ok());
  // Perfect result: each chain whole on one node -> zero crossings.
  EXPECT_LE(plan->CountCrossNodeArcs(g), 2u);
  // And the load is balanced: 10 ops each side.
  const auto by_node = plan->OperatorsByNode();
  EXPECT_EQ(by_node[0].size(), 10u);
  EXPECT_EQ(by_node[1].size(), 10u);
}

TEST(ConnectedTest, AssignsEveryOperator) {
  query::GraphGenOptions gen;
  gen.num_input_streams = 4;
  gen.ops_per_tree = 12;
  Rng rng(17);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  Vector rates(4, 1.0);
  auto plan = ConnectedLoadBalancePlace(*model, g, system, rates);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_operators(), g.num_operators());
}

TEST(CorrelationTest, SeparatesPerfectlyCorrelatedOperators) {
  // Two heavy operators on the same stream are perfectly load-correlated;
  // with two nodes the correlation-based scheme must separate them.
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("I0");
  const InputStreamId i1 = g.AddInputStream("I1");
  auto a0 = g.AddOperator({.name = "a0", .kind = OperatorKind::kMap,
                           .cost = 10.0},
                          {StreamRef::Input(i0)});
  auto a1 = g.AddOperator({.name = "a1", .kind = OperatorKind::kMap,
                           .cost = 10.0},
                          {StreamRef::Input(i0)});
  auto b0 = g.AddOperator({.name = "b0", .kind = OperatorKind::kMap,
                           .cost = 10.0},
                          {StreamRef::Input(i1)});
  auto b1 = g.AddOperator({.name = "b1", .kind = OperatorKind::kMap,
                           .cost = 10.0},
                          {StreamRef::Input(i1)});
  ASSERT_TRUE(b1.ok());
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());

  // Anti-correlated rate history for the two streams.
  Matrix series(16, 2);
  for (size_t t = 0; t < 16; ++t) {
    series(t, 0) = 1.0 + std::sin(static_cast<double>(t));
    series(t, 1) = 1.0 - std::sin(static_cast<double>(t));
  }
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = CorrelationBasedPlace(*model, system, series);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->node_of(*a0), plan->node_of(*a1));
  EXPECT_NE(plan->node_of(*b0), plan->node_of(*b1));
}

TEST(CorrelationTest, ValidatesSeries) {
  const QueryGraph g = UniformChains(4);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  EXPECT_FALSE(CorrelationBasedPlace(*model, system, Matrix(1, 1)).ok());
  EXPECT_FALSE(CorrelationBasedPlace(*model, system, Matrix(10, 3)).ok());
}

TEST(BaselinesTest, AllRejectEmptyModelOrBadSystem) {
  const QueryGraph g = UniformChains(4);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  Rng rng(1);
  SystemSpec bad;  // no nodes
  EXPECT_FALSE(RandomPlace(*model, bad, rng).ok());
  EXPECT_FALSE(LargestLoadFirstPlace(*model, bad, Vector{1.0}).ok());
}

}  // namespace
}  // namespace rod::place
