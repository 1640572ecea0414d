// Tests for incremental ROD and placement repair on cluster changes.

#include "placement/repair.h"

#include <gtest/gtest.h>

#include "placement/evaluator.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rod::place {
namespace {

using query::QueryGraph;

struct Fixture {
  QueryGraph graph;
  query::LoadModel model;

  explicit Fixture(uint64_t seed, size_t inputs = 4, size_t ops = 12) {
    query::GraphGenOptions gen;
    gen.num_input_streams = inputs;
    gen.ops_per_tree = ops;
    Rng rng(seed);
    graph = query::GenerateRandomTrees(gen, rng);
    model = *query::BuildLoadModel(graph);
  }
};

TEST(IncrementalRodTest, AllUnassignedEqualsFullRod) {
  Fixture f(1);
  const SystemSpec system = SystemSpec::Homogeneous(4);
  std::vector<size_t> none(f.model.num_operators(), kUnassigned);
  auto incremental = RodPlaceIncremental(f.model, system, none);
  auto full = RodPlace(f.model, system);
  ASSERT_TRUE(incremental.ok() && full.ok());
  EXPECT_EQ(incremental->assignment(), full->assignment());
}

TEST(IncrementalRodTest, PinnedOperatorsStayPut) {
  Fixture f(2);
  const SystemSpec system = SystemSpec::Homogeneous(3);
  std::vector<size_t> fixed(f.model.num_operators(), kUnassigned);
  fixed[0] = 2;
  fixed[5] = 1;
  fixed[7] = 2;
  auto plan = RodPlaceIncremental(f.model, system, fixed);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->node_of(0), 2u);
  EXPECT_EQ(plan->node_of(5), 1u);
  EXPECT_EQ(plan->node_of(7), 2u);
}

TEST(IncrementalRodTest, SeededLoadInfluencesChoices) {
  // One stream, two equal ops, two nodes: pinning op 0 on node 0 must
  // push op 1 to node 1.
  QueryGraph g;
  const auto in = g.AddInputStream("I");
  for (int rep = 0; rep < 2; ++rep) {
    const std::string name = std::string("o").append(std::to_string(rep));
    ASSERT_TRUE(g.AddOperator({.name = name,
                               .kind = query::OperatorKind::kMap,
                               .cost = 1.0},
                              {query::StreamRef::Input(in)})
                    .ok());
  }
  auto model = *query::BuildLoadModel(g);
  const SystemSpec system = SystemSpec::Homogeneous(2);
  std::vector<size_t> fixed = {0, kUnassigned};
  auto plan = RodPlaceIncremental(model, system, fixed);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->node_of(1), 1u);
}

TEST(IncrementalRodTest, Validation) {
  Fixture f(3);
  const SystemSpec system = SystemSpec::Homogeneous(2);
  // Wrong size.
  EXPECT_FALSE(RodPlaceIncremental(f.model, system, {0, 1}).ok());
  // kMinCrossArcs unsupported.
  std::vector<size_t> none(f.model.num_operators(), kUnassigned);
  RodOptions options;
  options.tie_break = RodOptions::ClassITieBreak::kMinCrossArcs;
  EXPECT_FALSE(RodPlaceIncremental(f.model, system, none, options).ok());
}

TEST(RepairTest, NodeLossMovesOnlyOrphans) {
  Fixture f(4, 4, 15);
  const SystemSpec old_system = SystemSpec::Homogeneous(4);
  auto original = RodPlace(f.model, old_system);
  ASSERT_TRUE(original.ok());

  // Node 2 dies; survivors keep their index order in the new 3-node system.
  const SystemSpec new_system = SystemSpec::Homogeneous(3);
  const std::vector<size_t> mapping = {0, 1, kUnassigned, 2};
  auto repaired = RepairPlacement(f.model, *original, new_system, mapping);
  ASSERT_TRUE(repaired.ok());

  size_t orphans = 0;
  for (size_t j = 0; j < f.model.num_operators(); ++j) {
    const size_t old_node = original->node_of(j);
    if (old_node == 2) {
      ++orphans;
    } else {
      EXPECT_EQ(repaired->placement.node_of(j), mapping[old_node])
          << "survivor " << j << " moved";
    }
  }
  EXPECT_EQ(repaired->operators_moved, orphans);
  EXPECT_GT(orphans, 0u);
}

TEST(RepairTest, RepairedPlanStaysResilient) {
  Fixture f(5, 5, 20);
  const SystemSpec old_system = SystemSpec::Homogeneous(5);
  auto original = RodPlace(f.model, old_system);
  ASSERT_TRUE(original.ok());
  const SystemSpec new_system = SystemSpec::Homogeneous(4);
  const std::vector<size_t> mapping = {0, 1, 2, 3, kUnassigned};
  auto repaired = RepairPlacement(f.model, *original, new_system, mapping);
  ASSERT_TRUE(repaired.ok());

  // Compare against ROD-from-scratch on the shrunken cluster: the repair
  // should retain most of the resilience at a fraction of the moves.
  auto scratch = RodPlace(f.model, new_system);
  ASSERT_TRUE(scratch.ok());
  const PlacementEvaluator eval(f.model, new_system);
  geom::VolumeOptions vol;
  vol.num_samples = 8192;
  const double r_repair = *eval.RatioToIdeal(repaired->placement, vol);
  const double r_scratch = *eval.RatioToIdeal(*scratch, vol);
  EXPECT_GT(r_repair, 0.7 * r_scratch);

  size_t scratch_moves = 0;
  for (size_t j = 0; j < f.model.num_operators(); ++j) {
    const size_t old_node = original->node_of(j);
    const size_t carried =
        old_node < mapping.size() && mapping[old_node] != kUnassigned
            ? mapping[old_node]
            : kUnassigned;
    scratch_moves += scratch->node_of(j) != carried;
  }
  EXPECT_LT(repaired->operators_moved, scratch_moves);
}

TEST(RepairTest, ScaleOutWithRebalanceBudget) {
  Fixture f(6, 3, 12);
  const SystemSpec old_system = SystemSpec::Homogeneous(2);
  auto original = RodPlace(f.model, old_system);
  ASSERT_TRUE(original.ok());

  // Add two fresh nodes; without rebalancing nothing moves at all.
  const SystemSpec new_system = SystemSpec::Homogeneous(4);
  const std::vector<size_t> mapping = {0, 1};
  auto frozen = RepairPlacement(f.model, *original, new_system, mapping);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->operators_moved, 0u);

  RepairOptions options;
  options.max_rebalance_moves = 6;
  auto rebalanced =
      RepairPlacement(f.model, *original, new_system, mapping, options);
  ASSERT_TRUE(rebalanced.ok());
  EXPECT_GT(rebalanced->operators_moved, 0u);
  EXPECT_LE(rebalanced->operators_moved, 6u);
  // Every move strictly improved the plane distance.
  EXPECT_GT(rebalanced->plane_distance, frozen->plane_distance);
}

TEST(RepairTest, Validation) {
  Fixture f(7);
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = RodPlace(f.model, system);
  ASSERT_TRUE(plan.ok());
  // Mapping size must match the old node count.
  EXPECT_FALSE(RepairPlacement(f.model, *plan, system, {0}).ok());
  // Mapping must stay inside the new system.
  EXPECT_FALSE(RepairPlacement(f.model, *plan, system, {0, 5}).ok());
}

}  // namespace
}  // namespace rod::place
