// End-to-end integration tests: the full pipeline from graph generation
// through placement to analytic evaluation and the DES runtime, checking
// the paper's headline claims in miniature.

#include <gtest/gtest.h>

#include "geometry/feasible_set.h"
#include "placement/baselines.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "runtime/engine.h"
#include "trace/trace.h"
#include "qmc_oracle.h"

namespace rod {
namespace {

using place::Placement;
using place::PlacementEvaluator;
using place::SystemSpec;
using query::QueryGraph;

TEST(IntegrationTest, RodDominatesBaselinesOnPaperScaleGraph) {
  // A §7.3.1-style instance: 5 input streams, 20 ops per tree, 5 nodes.
  query::GraphGenOptions gen;
  gen.num_input_streams = 5;
  gen.ops_per_tree = 20;
  Rng rng(2024);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(5);
  const PlacementEvaluator eval(*model, system);
  geom::VolumeOptions vol;
  vol.num_samples = 1u << 14;

  auto rod = place::RodPlace(*model, system);
  ASSERT_TRUE(rod.ok());
  const double rod_ratio = *eval.RatioToIdeal(*rod, vol);

  // Average each baseline over a few trials (as §7.3.1 does over ten).
  auto average = [&](auto&& make_plan) {
    double sum = 0.0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      auto plan = make_plan(t);
      EXPECT_TRUE(plan.ok());
      sum += *eval.RatioToIdeal(*plan, vol);
    }
    return sum / trials;
  };

  Rng seeder(7);
  const double random_avg = average([&](int) {
    Rng r = seeder.Fork();
    return place::RandomPlace(*model, system, r);
  });
  const double llf_avg = average([&](int t) {
    Rng r(400 + t);
    Vector rates(5);
    for (double& x : rates) x = r.Uniform(0.01, 1.0);
    return place::LargestLoadFirstPlace(*model, system, rates);
  });
  const double connected_avg = average([&](int t) {
    Rng r(500 + t);
    Vector rates(5);
    for (double& x : rates) x = r.Uniform(0.01, 1.0);
    return place::ConnectedLoadBalancePlace(*model, g, system, rates);
  });

  // The paper's Figure 14 ordering: ROD above every load balancer, and
  // Connected worst.
  EXPECT_GT(rod_ratio, random_avg);
  EXPECT_GT(rod_ratio, llf_avg);
  EXPECT_GT(rod_ratio, connected_avg);
  EXPECT_GT(random_avg, connected_avg);
}

TEST(IntegrationTest, AnalyticAndSimulatedFeasibilityAgree) {
  // The Borealis-vs-simulator consistency check (§7.3.1: "the simulator
  // results tracked the results in Borealis very closely"), here between
  // our analytic model and the DES: probe rate points near the boundary.
  query::TrafficMonitoringOptions topts;
  topts.num_links = 2;
  topts.windows = {1.0};
  const QueryGraph g = query::BuildTrafficMonitoringGraph(topts);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2, 1.0);
  auto plan = place::RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());
  const PlacementEvaluator eval(*model, system);

  sim::SimulationOptions sopts;
  sopts.duration = 40.0;
  int agreements = 0, cases = 0;
  Rng rng(77);
  for (int s = 0; s < 6; ++s) {
    // Random direction, two magnitudes: clearly inside (60% of boundary)
    // and clearly outside (160%).
    Vector dir(2);
    for (double& v : dir) v = 0.2 + rng.NextDouble();
    // Find the scale at which this direction crosses the boundary.
    double lo = 0.0, hi = 1e9;
    // Utilization is linear in scale: boundary scale = 1 / max-util at 1.
    const Vector util = eval.NodeUtilizationAt(*plan, dir);
    const double peak = *std::max_element(util.begin(), util.end());
    ASSERT_GT(peak, 0.0);
    const double boundary = 1.0 / peak;
    (void)lo;
    (void)hi;
    for (double frac : {0.6, 1.6}) {
      const Vector rates = Scale(dir, frac * boundary);
      const bool analytic = eval.FeasibleAt(*plan, rates);
      auto probed = sim::ProbeFeasibleAt(g, *plan, system, rates, sopts);
      ASSERT_TRUE(probed.ok());
      agreements += analytic == *probed;
      ++cases;
    }
  }
  // Allow one disagreement at most (stochastic arrivals near boundaries).
  EXPECT_GE(agreements, cases - 1);
}

TEST(IntegrationTest, PrototypeStyleFeasibleFractionTracksAnalytic) {
  // The paper's Borealis methodology (§7.1): sample random workload points
  // within the ideal feasible set, run the system at each, and call the
  // point feasible if no node saturates; the feasible fraction estimates
  // V(F)/V(F*). That prototype-style estimate must track our analytic QMC
  // ratio ("the simulator results tracked the results in Borealis very
  // closely", §7.3.1).
  query::GraphGenOptions gen;
  gen.num_input_streams = 2;
  gen.ops_per_tree = 6;
  gen.min_cost = 1e-3;
  gen.max_cost = 4e-3;
  Rng rng(424242);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = place::RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());
  const PlacementEvaluator eval(*model, system);

  const double analytic = *eval.RatioToIdeal(*plan);

  // Uniform points in the ideal simplex, mapped back to physical rates
  // r_k = x_k * C_T / l_k.
  sim::SimulationOptions sopts;
  sopts.duration = 25.0;
  const double ct = system.TotalCapacity();
  geom::HaltonSequence halton(2);
  int feasible = 0;
  const int kPoints = 24;
  for (int s = 0; s < kPoints; ++s) {
    const Vector x = geom::MapUnitCubeToSimplex(halton.Next());
    Vector rates(2);
    for (size_t k = 0; k < 2; ++k) {
      rates[k] = x[k] * ct / model->total_coeffs()[k];
    }
    auto probed = sim::ProbeFeasibleAt(g, *plan, system, rates, sopts);
    ASSERT_TRUE(probed.ok());
    feasible += *probed;
  }
  const double prototype_ratio =
      static_cast<double>(feasible) / static_cast<double>(kPoints);
  // 24 Bernoulli samples: generous band, but enough to catch systematic
  // disagreement between the runtime and the analytic model.
  EXPECT_NEAR(prototype_ratio, analytic, 0.2);
}

TEST(IntegrationTest, RodSustainsBurstsBetterInSimulation) {
  // Drive the same graph with bursty TCP-like traces at a mean rate near
  // the connected plan's weakest direction: ROD should overload in fewer
  // windows than the Connected baseline.
  query::GraphGenOptions gen;
  gen.num_input_streams = 2;
  gen.ops_per_tree = 8;
  gen.min_cost = 1e-3;
  gen.max_cost = 3e-3;
  Rng rng(31337);
  const QueryGraph g = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);

  auto rod = place::RodPlace(*model, system);
  ASSERT_TRUE(rod.ok());
  Vector flat_rates(2, 1.0);
  auto connected =
      place::ConnectedLoadBalancePlace(*model, g, system, flat_rates);
  ASSERT_TRUE(connected.ok());

  // Mean rates chosen so the *average* load is feasible for both plans,
  // with bursts pushing past each plan's weak directions.
  const PlacementEvaluator eval(*model, system);
  Vector probe(2, 1.0);
  const Vector util_rod = eval.NodeUtilizationAt(*rod, probe);
  const double peak =
      *std::max_element(util_rod.begin(), util_rod.end());
  const double mean_rate = 0.75 / peak;  // 75% of ROD's boundary

  sim::SimulationOptions sopts;
  sopts.duration = 120.0;
  Rng t1(1), t2(2);
  std::vector<trace::RateTrace> traces = {
      trace::GeneratePreset(trace::TracePreset::kTcp, 128, 1.0, t1)
          .ScaledToMean(mean_rate),
      trace::GeneratePreset(trace::TracePreset::kTcp, 128, 1.0, t2)
          .ScaledToMean(mean_rate)};

  auto rod_run = sim::SimulatePlacement(g, *rod, system, traces, sopts);
  auto conn_run =
      sim::SimulatePlacement(g, *connected, system, traces, sopts);
  ASSERT_TRUE(rod_run.ok() && conn_run.ok());
  EXPECT_LE(rod_run->overloaded_windows, conn_run->overloaded_windows);
}

TEST(IntegrationTest, LinearizedPlacementHandlesJoinGraphEndToEnd) {
  // Join-bearing graph: linearize, place with ROD, simulate, and confirm
  // the runtime stays feasible at a point the model calls feasible.
  QueryGraph g;
  const auto i0 = g.AddInputStream("L");
  const auto i1 = g.AddInputStream("R");
  auto fl = g.AddOperator({.name = "fl",
                           .kind = query::OperatorKind::kFilter,
                           .cost = 1e-3,
                           .selectivity = 0.8},
                          {query::StreamRef::Input(i0)});
  auto fr = g.AddOperator({.name = "fr",
                           .kind = query::OperatorKind::kFilter,
                           .cost = 1e-3,
                           .selectivity = 0.8},
                          {query::StreamRef::Input(i1)});
  auto join = g.AddOperator({.name = "join",
                             .kind = query::OperatorKind::kJoin,
                             .cost = 5e-5,
                             .selectivity = 0.2,
                             .window = 0.5},
                            {query::StreamRef::Op(*fl),
                             query::StreamRef::Op(*fr)});
  auto agg = g.AddOperator({.name = "agg",
                            .kind = query::OperatorKind::kAggregate,
                            .cost = 1e-3,
                            .selectivity = 0.1},
                           {query::StreamRef::Op(*join)});
  ASSERT_TRUE(agg.ok());
  auto model = query::BuildLinearizedLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  auto plan = place::RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());

  const PlacementEvaluator eval(*model, system);
  const Vector rates = {60.0, 60.0};
  ASSERT_TRUE(eval.FeasibleAt(*plan, rates));

  sim::SimulationOptions sopts;
  sopts.duration = 30.0;
  auto probed = sim::ProbeFeasibleAt(g, *plan, system, rates, sopts);
  ASSERT_TRUE(probed.ok());
  EXPECT_TRUE(*probed);
}

TEST(IntegrationTest, ComplianceGraphFullPipeline) {
  const QueryGraph g = query::BuildComplianceGraph(
      {.num_feeds = 2, .num_rules = 8, .base_cost = 0.2e-3});
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(3);
  auto plan = place::RodPlace(*model, system);
  ASSERT_TRUE(plan.ok());
  const PlacementEvaluator eval(*model, system);
  auto ratio = eval.RatioToIdeal(*plan);
  ASSERT_TRUE(ratio.ok());
  EXPECT_GT(*ratio, 0.2);

  Rng t(5);
  std::vector<trace::RateTrace> traces;
  for (int k = 0; k < 2; ++k) {
    traces.push_back(
        trace::GeneratePreset(trace::TracePreset::kHttp, 64, 1.0, t)
            .ScaledToMean(100.0));
  }
  sim::SimulationOptions sopts;
  sopts.duration = 60.0;
  auto run = sim::SimulatePlacement(g, *plan, system, traces, sopts);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->output_tuples, 0u);
  EXPECT_FALSE(run->saturated);
}

}  // namespace
}  // namespace rod
