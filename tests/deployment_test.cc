// Tests for deployment compilation (graph + placement -> routing tables).

#include "runtime/deployment.h"

#include <gtest/gtest.h>

namespace rod::sim {
namespace {

using place::Placement;
using place::SystemSpec;
using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

QueryGraph ChainWithJoin() {
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("L");
  const InputStreamId i1 = g.AddInputStream("R");
  auto a = g.AddOperator({.name = "a", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Input(i0)}, {7e-4});
  auto b = g.AddOperator({.name = "b", .kind = OperatorKind::kFilter,
                          .cost = 2e-3, .selectivity = 0.5},
                         {StreamRef::Input(i1)});
  auto j = g.AddOperator({.name = "j", .kind = OperatorKind::kJoin,
                          .cost = 1e-5, .selectivity = 0.3, .window = 2.0},
                         {StreamRef::Op(*a), StreamRef::Op(*b)}, {1e-4, 0.0});
  EXPECT_TRUE(j.ok());
  return g;
}

TEST(DeploymentTest, CompilesRoutingTables) {
  const QueryGraph g = ChainWithJoin();
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto dep = CompileDeployment(g, Placement(2, {0, 1, 0}), system);
  ASSERT_TRUE(dep.ok());
  EXPECT_EQ(dep->num_nodes(), 2u);
  EXPECT_EQ(dep->num_inputs(), 2u);
  ASSERT_EQ(dep->ops.size(), 3u);

  // Input routes: L -> a (node 0), R -> b (node 1); ingestion always
  // "crosses" (external sources).
  ASSERT_EQ(dep->input_routes[0].size(), 1u);
  EXPECT_EQ(dep->input_routes[0][0].to_op, 0u);
  EXPECT_TRUE(dep->input_routes[0][0].crosses_nodes);
  EXPECT_DOUBLE_EQ(dep->input_routes[0][0].comm_cost, 7e-4);

  // a (node 0) -> j (node 0): local. b (node 1) -> j (node 0): crossing.
  ASSERT_EQ(dep->ops[0].consumers.size(), 1u);
  EXPECT_FALSE(dep->ops[0].consumers[0].crosses_nodes);
  EXPECT_EQ(dep->ops[0].consumers[0].to_port, 0u);
  ASSERT_EQ(dep->ops[1].consumers.size(), 1u);
  EXPECT_TRUE(dep->ops[1].consumers[0].crosses_nodes);
  EXPECT_EQ(dep->ops[1].consumers[0].to_port, 1u);
}

TEST(DeploymentTest, SinkDetectionAndJoinWindowHalving) {
  const QueryGraph g = ChainWithJoin();
  const SystemSpec system = SystemSpec::Homogeneous(1);
  auto dep = CompileDeployment(g, Placement(1, {0, 0, 0}), system);
  ASSERT_TRUE(dep.ok());
  EXPECT_FALSE(dep->ops[0].is_sink);
  EXPECT_FALSE(dep->ops[1].is_sink);
  EXPECT_TRUE(dep->ops[2].is_sink);
  EXPECT_TRUE(dep->ops[2].is_join);
  // Symmetric probing convention: per-side horizon = window / 2.
  EXPECT_DOUBLE_EQ(dep->ops[2].window, 1.0);
  EXPECT_DOUBLE_EQ(dep->ops[1].selectivity, 0.5);
}

TEST(DeploymentTest, ValidatesShapes) {
  const QueryGraph g = ChainWithJoin();
  const SystemSpec system = SystemSpec::Homogeneous(2);
  // Placement with wrong operator count.
  EXPECT_FALSE(CompileDeployment(g, Placement(2, {0, 1}), system).ok());
  // Placement whose node count disagrees with the system.
  EXPECT_FALSE(
      CompileDeployment(g, Placement(3, {0, 1, 2}), system).ok());
  // Invalid system.
  EXPECT_FALSE(
      CompileDeployment(g, Placement(2, {0, 1, 0}), SystemSpec{}).ok());
  // Invalid graph.
  QueryGraph empty;
  EXPECT_FALSE(
      CompileDeployment(empty, Placement(1, {}), SystemSpec::Homogeneous(1))
          .ok());
}

TEST(DeploymentTest, FanOutCompilesOneRoutePerConsumer) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  auto src = g.AddOperator({.name = "src", .kind = OperatorKind::kMap,
                            .cost = 1e-3},
                           {StreamRef::Input(in)});
  for (int c = 0; c < 3; ++c) {
    const std::string name = std::string("c").append(std::to_string(c));
    ASSERT_TRUE(g.AddOperator({.name = name,
                               .kind = OperatorKind::kMap, .cost = 1e-3},
                              {StreamRef::Op(*src)})
                    .ok());
  }
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto dep = CompileDeployment(g, Placement(2, {0, 0, 1, 1}), system);
  ASSERT_TRUE(dep.ok());
  ASSERT_EQ(dep->ops[0].consumers.size(), 3u);
  size_t crossing = 0;
  for (const Route& r : dep->ops[0].consumers) crossing += r.crosses_nodes;
  EXPECT_EQ(crossing, 2u);  // consumers on node 1
}

TEST(DeploymentTest, ReassignOperatorsRemapsHostsAndCrossFlags) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  auto a = g.AddOperator({.name = "a", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Input(in)});
  auto b = g.AddOperator({.name = "b", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Op(*a)}, {2e-3});
  ASSERT_TRUE(b.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  auto dep = CompileDeployment(g, Placement(3, {0, 0}), system);
  ASSERT_TRUE(dep.ok());
  EXPECT_FALSE(dep->ops[0].consumers[0].crosses_nodes);

  // Move b to node 2: the a->b arc now crosses, comm cost unchanged.
  auto moved = ReassignOperators(*dep, {0, 2});
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, std::vector<uint32_t>{1});
  EXPECT_EQ(dep->ops[1].node, 2u);
  EXPECT_TRUE(dep->ops[0].consumers[0].crosses_nodes);
  EXPECT_DOUBLE_EQ(dep->ops[0].consumers[0].comm_cost, 2e-3);
  // Input routes keep crossing (external sources).
  EXPECT_TRUE(dep->input_routes[0][0].crosses_nodes);

  // Reunite both on node 2: the arc stops crossing.
  auto moved2 = ReassignOperators(*dep, {2, 2});
  ASSERT_TRUE(moved2.ok());
  EXPECT_EQ(*moved2, std::vector<uint32_t>{0});
  EXPECT_FALSE(dep->ops[0].consumers[0].crosses_nodes);

  // No-op reassignment moves nothing.
  auto moved3 = ReassignOperators(*dep, {2, 2});
  ASSERT_TRUE(moved3.ok());
  EXPECT_TRUE(moved3->empty());

  // Validation: wrong size, node outside the cluster.
  EXPECT_FALSE(ReassignOperators(*dep, {0}).ok());
  EXPECT_FALSE(ReassignOperators(*dep, {0, 3}).ok());
}

}  // namespace
}  // namespace rod::sim
