// Tests for the correlation-based dynamic policy ([23] as a fluid
// migration policy) and hybrid (light-op-only) migration.

#include <gtest/gtest.h>

#include <cmath>

#include "placement/correlation_policy.h"
#include "placement/dynamic.h"
#include "query/query_graph.h"
#include "runtime/fluid.h"

namespace rod::place {
namespace {

using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;
using sim::FluidOptions;
using sim::FluidSimulate;

/// Four operators: two on stream 0, two on stream 1 (equal unit costs).
struct FourOpFixture {
  QueryGraph g;
  query::LoadModel model;

  FourOpFixture() {
    const InputStreamId i0 = g.AddInputStream("I0");
    const InputStreamId i1 = g.AddInputStream("I1");
    for (int rep = 0; rep < 2; ++rep) {
      const std::string a_name = std::string("a").append(std::to_string(rep));
      EXPECT_TRUE(g.AddOperator({.name = a_name,
                                 .kind = OperatorKind::kMap, .cost = 1e-3},
                                {StreamRef::Input(i0)})
                      .ok());
      const std::string b_name = std::string("b").append(std::to_string(rep));
      EXPECT_TRUE(g.AddOperator({.name = b_name,
                                 .kind = OperatorKind::kMap, .cost = 1e-3},
                                {StreamRef::Input(i1)})
                      .ok());
    }
    model = *query::BuildLoadModel(g);
  }
};

/// Anti-phased square waves: stream 0 peaks on even 4-epoch blocks,
/// stream 1 on odd blocks.
std::vector<trace::RateTrace> AntiPhased(size_t epochs, double lo, double hi) {
  trace::RateTrace t0, t1;
  t0.window_sec = t1.window_sec = 1.0;
  for (size_t e = 0; e < epochs; ++e) {
    const bool even_block = (e / 4) % 2 == 0;
    t0.rates.push_back(even_block ? hi : lo);
    t1.rates.push_back(even_block ? lo : hi);
  }
  return {t0, t1};
}

TEST(CorrelationBalancerTest, SeparatesCorrelatedOperators) {
  FourOpFixture f;
  const place::SystemSpec system = place::SystemSpec::Homogeneous(2);
  // Worst case: each node hosts both operators of one stream, so its load
  // doubles whenever that stream peaks.
  const Placement plan(2, {0, 1, 0, 1});  // a0,a1 -> 0; b0,b1 -> 1? (ids: a0,b0,a1,b1)
  // Operator ids in creation order: a0(0), b0(1), a1(2), b1(3); so
  // {0,1,0,1} puts a0,a1 on node 0 and b0,b1 on node 1 — same-stream pairs
  // co-located, exactly what correlation-based distribution undoes.
  const auto traces = AntiPhased(120, 100.0, 880.0);

  auto static_run = FluidSimulate(f.model, plan, system, traces);
  CorrelationBalancer balancer;
  auto dynamic_run = FluidSimulate(f.model, plan, system, traces,
                                   FluidOptions{}, &balancer);
  ASSERT_TRUE(static_run.ok() && dynamic_run.ok());
  // Static: each peak block overloads one node (0.1 + 0.88 -> 1.76 util).
  EXPECT_GT(static_run->overloaded_epochs, 50u);
  // The correlation policy should mix the streams across nodes and then
  // stay quiet (anti-phased loads cancel: ~0.98 util per node).
  EXPECT_LT(dynamic_run->overloaded_epochs, static_run->overloaded_epochs);
  EXPECT_GE(dynamic_run->migrations, 1u);
  // Final assignment mixes streams: nodes host one op of each stream.
  const auto& fin = dynamic_run->final_assignment;
  EXPECT_NE(fin[0], fin[2]);  // a0 and a1 apart
  EXPECT_NE(fin[1], fin[3]);  // b0 and b1 apart
}

TEST(CorrelationBalancerTest, NeedsHistoryBeforeActing) {
  FourOpFixture f;
  const place::SystemSpec system = place::SystemSpec::Homogeneous(2);
  const Placement plan(2, {0, 1, 0, 1});
  CorrelationBalancer::Options options;
  options.min_history = 1000;  // never enough
  CorrelationBalancer balancer(options);
  auto run = FluidSimulate(f.model, plan, system,
                           AntiPhased(40, 100.0, 880.0), FluidOptions{},
                           &balancer);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->migrations, 0u);
}

TEST(CorrelationBalancerTest, QuietWhenBalanced) {
  FourOpFixture f;
  const place::SystemSpec system = place::SystemSpec::Homogeneous(2);
  const Placement mixed(2, {0, 0, 1, 1});  // one op of each stream per node
  CorrelationBalancer balancer;
  auto run = FluidSimulate(f.model, mixed, system,
                           AntiPhased(60, 100.0, 700.0), FluidOptions{},
                           &balancer);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->migrations, 0u);  // 0.8 peak util: below the watermark
}

TEST(HybridTest, LightOpRestrictionBlocksHeavyMoves) {
  // One heavy op and one light op on a hot node; with the hybrid
  // restriction only the light one may move — which doesn't relieve the
  // node enough, so ReactiveBalancer moves the light one at most.
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  EXPECT_TRUE(g.AddOperator({.name = "heavy", .kind = OperatorKind::kMap,
                             .cost = 9e-4},
                            {StreamRef::Input(in)})
                  .ok());
  EXPECT_TRUE(g.AddOperator({.name = "light", .kind = OperatorKind::kMap,
                             .cost = 1e-4},
                            {StreamRef::Input(in)})
                  .ok());
  auto model = *query::BuildLoadModel(g);
  const place::SystemSpec system = place::SystemSpec::Homogeneous(2);
  const Placement plan(2, {0, 0});

  trace::RateTrace t;
  t.window_sec = 1.0;
  t.rates.assign(30, 950.0);  // node 0 util 0.95

  ReactiveBalancer::Options options;
  options.max_movable_load_fraction = 0.2;  // heavy op (0.855) immovable
  ReactiveBalancer balancer(options);
  auto run =
      FluidSimulate(model, plan, system, {t}, FluidOptions{}, &balancer);
  ASSERT_TRUE(run.ok());
  // Only the light operator may have moved.
  EXPECT_EQ(run->final_assignment[0], 0u);
  EXPECT_LE(run->migrations, 1u);

  ReactiveBalancer unrestricted;
  auto free_run = FluidSimulate(model, plan, system, {t}, FluidOptions{},
                                &unrestricted);
  ASSERT_TRUE(free_run.ok());
  // Without the restriction the heavy op moves instead (bigger relief).
  EXPECT_EQ(free_run->final_assignment[0], 1u);
}

}  // namespace
}  // namespace rod::place
