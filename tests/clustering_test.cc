// Tests for §6.3 operator clustering and the clustered-ROD sweep.

#include "placement/clustering.h"

#include <gtest/gtest.h>

#include "geometry/hyperplane.h"
#include "placement/evaluator.h"
#include "query/load_model.h"

namespace rod::place {
namespace {

using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

/// A chain I -> a -> b -> c with configurable communication costs on the
/// a->b and b->c arcs.
struct ChainFixture {
  QueryGraph g;
  query::OperatorId a, b, c;

  explicit ChainFixture(double comm_ab, double comm_bc) {
    const InputStreamId in = g.AddInputStream("I");
    a = *g.AddOperator({.name = "a", .kind = OperatorKind::kMap, .cost = 1.0},
                       {StreamRef::Input(in)});
    b = *g.AddOperator({.name = "b", .kind = OperatorKind::kMap, .cost = 2.0},
                       {StreamRef::Op(a)}, {comm_ab});
    c = *g.AddOperator({.name = "c", .kind = OperatorKind::kMap, .cost = 4.0},
                       {StreamRef::Op(b)}, {comm_bc});
  }
};

TEST(ClusteringTest, SingletonClusteringIsIdentity) {
  ChainFixture f(0.0, 0.0);
  auto model = query::BuildLoadModel(f.g);
  ASSERT_TRUE(model.ok());
  const Clustering c = SingletonClustering(*model);
  EXPECT_EQ(c.num_clusters(), 3u);
  EXPECT_TRUE(c.cluster_coeffs.AlmostEquals(model->op_coeffs()));
  const Placement cluster_plan(2, {0, 1, 0});
  const Placement expanded = c.ExpandPlacement(cluster_plan);
  EXPECT_EQ(expanded.assignment(), (std::vector<size_t>{0, 1, 0}));
}

TEST(ClusteringTest, ContractsHighRatioArc) {
  // comm(a->b) = 5 vs min cost 1 -> ratio 5; comm(b->c) = 0.1 vs min 2
  // -> ratio 0.05. Threshold 1: only a-b merges.
  ChainFixture f(5.0, 0.1);
  auto model = query::BuildLoadModel(f.g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  ClusteringOptions options;
  options.ratio_threshold = 1.0;
  options.max_cluster_weight = 1.0;  // no cap interference
  auto clustering = ClusterOperators(*model, f.g, system, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(clustering->num_clusters(), 2u);
  EXPECT_EQ(clustering->cluster_of[f.a], clustering->cluster_of[f.b]);
  EXPECT_NE(clustering->cluster_of[f.b], clustering->cluster_of[f.c]);
  // Cluster coefficients sum member rows: a (1) + b (2) = 3.
  const size_t ab = clustering->cluster_of[f.a];
  EXPECT_NEAR(clustering->cluster_coeffs(ab, 0), 3.0, 1e-12);
}

TEST(ClusteringTest, ZeroCommArcsNeverContract) {
  ChainFixture f(0.0, 0.0);
  auto model = query::BuildLoadModel(f.g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto clustering = ClusterOperators(*model, f.g, system, {});
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(clustering->num_clusters(), 3u);
}

TEST(ClusteringTest, WeightCapBlocksOversizedClusters) {
  // Both arcs hugely expensive, but the default cap (C_max/C_T = 1/2)
  // blocks merging the whole chain (total weight 7/7 = 1.0). With
  // l = 7, weights are a = 1/7, b = 2/7, c = 4/7: {a,b} may merge
  // (3/7 <= 1/2), but c cannot join them — and c alone already exceeds
  // the cap, which only ever constrains *merges*, never singletons.
  ChainFixture f(100.0, 100.0);
  auto model = query::BuildLoadModel(f.g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto clustering = ClusterOperators(*model, f.g, system, {});
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(clustering->num_clusters(), 2u);
  EXPECT_EQ(clustering->cluster_of[f.a], clustering->cluster_of[f.b]);
  EXPECT_NE(clustering->cluster_of[f.b], clustering->cluster_of[f.c]);
  const size_t ab = clustering->cluster_of[f.a];
  EXPECT_NEAR(clustering->ClusterWeight(ab, model->total_coeffs()),
              3.0 / 7.0, 1e-12);
}

TEST(ClusteringTest, MinWeightSchemeMergesLightestPairFirst) {
  // Star: in -> hub; hub feeds two consumers with equal comm ratios but
  // very different weights. With a cap that allows only one merge, the
  // min-weight scheme must pick the lighter consumer.
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  auto hub = *g.AddOperator({.name = "hub", .kind = OperatorKind::kMap,
                             .cost = 1.0},
                            {StreamRef::Input(in)});
  auto heavy = *g.AddOperator({.name = "heavy", .kind = OperatorKind::kMap,
                               .cost = 8.0},
                              {StreamRef::Op(hub)}, {10.0});
  auto light = *g.AddOperator({.name = "light", .kind = OperatorKind::kMap,
                               .cost = 1.0},
                              {StreamRef::Op(hub)}, {10.0});
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  ClusteringOptions options;
  options.scheme = ClusteringOptions::Scheme::kMinWeight;
  options.ratio_threshold = 1.0;
  // Total l = 10. hub+light weight = 2/10 = 0.2; hub+heavy = 0.9.
  options.max_cluster_weight = 0.5;
  auto clustering = ClusterOperators(*model, g, system, options);
  ASSERT_TRUE(clustering.ok());
  EXPECT_EQ(clustering->cluster_of[hub], clustering->cluster_of[light]);
  EXPECT_NE(clustering->cluster_of[hub], clustering->cluster_of[heavy]);
}

TEST(ClusterSweepTest, PicksCommAwareBestPlan) {
  // With heavy communication on every arc, the sweep must beat (or match)
  // plain unclustered ROD on the comm-aware plane-distance metric.
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("I0");
  const InputStreamId i1 = g.AddInputStream("I1");
  StreamRef prev0 = StreamRef::Input(i0);
  StreamRef prev1 = StreamRef::Input(i1);
  for (int j = 0; j < 6; ++j) {
    prev0 = StreamRef::Op(*g.AddOperator(
        {.name = std::string("a").append(std::to_string(j)),
         .kind = OperatorKind::kMap,
         .cost = 1.0},
        {prev0}, {3.0}));
    prev1 = StreamRef::Op(*g.AddOperator(
        {.name = std::string("b").append(std::to_string(j)),
         .kind = OperatorKind::kMap,
         .cost = 1.0},
        {prev1}, {3.0}));
  }
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);

  auto sweep = ClusteredRodPlace(*model, g, system);
  ASSERT_TRUE(sweep.ok());
  EXPECT_GT(sweep->plans_evaluated, 1u);

  // Compare against unclustered ROD under the same metric.
  auto plain = RodPlace(*model, system);
  ASSERT_TRUE(plain.ok());
  const Matrix plain_coeffs = NodeCoeffsWithComm(*plain, *model, g);
  auto plain_w = geom::ComputeWeightMatrix(plain_coeffs,
                                           model->total_coeffs(),
                                           system.capacities);
  ASSERT_TRUE(plain_w.ok());
  EXPECT_GE(sweep->plane_distance + 1e-12,
            geom::MinPlaneDistance(*plain_w));
}

TEST(ClusterSweepTest, NoCommMeansUnclusteredWins) {
  ChainFixture f(0.0, 0.0);
  auto model = query::BuildLoadModel(f.g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto sweep = ClusteredRodPlace(*model, f.g, system);
  ASSERT_TRUE(sweep.ok());
  // Every clustering collapses to singletons; the chosen clustering must
  // be singleton and the placement equal to plain ROD.
  EXPECT_EQ(sweep->clustering.num_clusters(), 3u);
  auto plain = RodPlace(*model, system);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(sweep->placement.assignment(), plain->assignment());
}

TEST(ClusteringTest, ValidatesOptions) {
  ChainFixture f(1.0, 1.0);
  auto model = query::BuildLoadModel(f.g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  ClusteringOptions options;
  options.ratio_threshold = 0.0;
  EXPECT_FALSE(ClusterOperators(*model, f.g, system, options).ok());
}

}  // namespace
}  // namespace rod::place
