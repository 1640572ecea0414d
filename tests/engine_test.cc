// Tests for the tuple-level simulation engine: queueing physics,
// selectivity, join semantics, communication costs, and the feasibility
// probe's agreement with the analytic load model.

#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "placement/evaluator.h"
#include "query/load_model.h"

namespace rod::sim {
namespace {

using place::Placement;
using place::SystemSpec;
using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

trace::RateTrace ConstantTrace(double rate, double duration) {
  trace::RateTrace t;
  t.window_sec = duration;
  t.rates = {rate};
  return t;
}

/// Graph: I -> map(cost, selectivity) -> sink.
QueryGraph OneOpGraph(double cost, double selectivity) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  EXPECT_TRUE(g.AddOperator({.name = "op", .kind = OperatorKind::kMap,
                             .cost = cost, .selectivity = selectivity},
                            {StreamRef::Input(in)})
                  .ok());
  return g;
}

TEST(EngineTest, UtilizationMatchesOfferedLoad) {
  const QueryGraph g = OneOpGraph(2e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 50.0;
  // rho = rate * cost = 200 * 0.002 = 0.4.
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(200.0, options.duration)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->max_node_utilization, 0.4, 0.05);
  EXPECT_FALSE(r->saturated);
  EXPECT_GT(r->input_tuples, 8000u);
}

TEST(EngineTest, OutputCountTracksSelectivity) {
  const QueryGraph g = OneOpGraph(1e-4, 0.3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 50.0;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(100.0, options.duration)}, options);
  ASSERT_TRUE(r.ok());
  const double ratio = static_cast<double>(r->output_tuples) /
                       static_cast<double>(r->input_tuples);
  EXPECT_NEAR(ratio, 0.3, 0.03);
}

TEST(EngineTest, LatencyGrowsNearSaturation) {
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 60.0;

  auto light = SimulatePlacement(g, Placement(1, {0}), system,
                                 {ConstantTrace(200.0, 60.0)}, options);
  auto heavy = SimulatePlacement(g, Placement(1, {0}), system,
                                 {ConstantTrace(950.0, 60.0)}, options);
  ASSERT_TRUE(light.ok() && heavy.ok());
  // M/D/1: mean delay at rho=0.2 ~ service; at rho=0.95 >> service.
  EXPECT_GT(heavy->mean_latency, 4.0 * light->mean_latency);
  EXPECT_FALSE(light->saturated);
}

TEST(EngineTest, OverloadSaturates) {
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 30.0;
  // rho = 1.5: queue grows without bound.
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(1500.0, 30.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->saturated);
  EXPECT_GT(r->final_backlog, 1000u);
  EXPECT_GT(r->overloaded_windows, r->total_windows / 2);
}

TEST(EngineTest, PipelineLatencyAccumulates) {
  // Chain of three 1 ms operators at trivial load: latency >= 3 ms.
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  StreamRef prev = StreamRef::Input(in);
  for (int j = 0; j < 3; ++j) {
    prev = StreamRef::Op(*g.AddOperator(
        {.name = std::string("s").append(std::to_string(j)),
         .kind = OperatorKind::kMap,
         .cost = 1e-3},
        {prev}));
  }
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 20.0;
  auto r = SimulatePlacement(g, Placement(1, {0, 0, 0}), system,
                             {ConstantTrace(20.0, 20.0)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->p50_latency, 3e-3);
  EXPECT_LT(r->p50_latency, 8e-3);
}

TEST(EngineTest, NetworkLatencyAddsToCrossNodeFlows) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  auto a = g.AddOperator({.name = "a", .kind = OperatorKind::kMap,
                          .cost = 1e-4},
                         {StreamRef::Input(in)});
  auto b = g.AddOperator({.name = "b", .kind = OperatorKind::kMap,
                          .cost = 1e-4},
                         {StreamRef::Op(*a)});
  ASSERT_TRUE(b.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  SimulationOptions options;
  options.duration = 20.0;
  options.network_latency = 20e-3;

  auto colocated = SimulatePlacement(g, Placement(2, {0, 0}), system,
                                     {ConstantTrace(50.0, 20.0)}, options);
  auto split = SimulatePlacement(g, Placement(2, {0, 1}), system,
                                 {ConstantTrace(50.0, 20.0)}, options);
  ASSERT_TRUE(colocated.ok() && split.ok());
  EXPECT_GT(split->p50_latency, colocated->p50_latency + 15e-3);
}

TEST(EngineTest, CommCostRaisesUtilization) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  auto a = g.AddOperator({.name = "a", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Input(in)});
  auto b = g.AddOperator({.name = "b", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Op(*a)}, {2e-3});
  ASSERT_TRUE(b.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  SimulationOptions options;
  options.duration = 30.0;

  auto colocated = SimulatePlacement(g, Placement(2, {0, 0}), system,
                                     {ConstantTrace(100.0, 30.0)}, options);
  auto split = SimulatePlacement(g, Placement(2, {0, 1}), system,
                                 {ConstantTrace(100.0, 30.0)}, options);
  ASSERT_TRUE(colocated.ok() && split.ok());
  // Colocated: node 0 carries both ops, rho = 0.2. Split: each node pays
  // its op (0.1) plus comm (0.2) -> rho = 0.3 per node.
  EXPECT_NEAR(colocated->max_node_utilization, 0.2, 0.04);
  EXPECT_NEAR(split->max_node_utilization, 0.3, 0.05);
}

TEST(EngineTest, JoinLoadIsQuadraticAndEmitsPairs) {
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("L");
  const InputStreamId i1 = g.AddInputStream("R");
  auto j = g.AddOperator({.name = "j", .kind = OperatorKind::kJoin,
                          .cost = 1e-5, .selectivity = 0.5, .window = 0.5},
                         {StreamRef::Input(i0), StreamRef::Input(i1)});
  ASSERT_TRUE(j.ok());
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 40.0;
  const double rate = 50.0;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(rate, 40.0),
                              ConstantTrace(rate, 40.0)},
                             options);
  ASSERT_TRUE(r.ok());
  // Pairs probed per second = w * rL * rR = 0.5 * 50 * 50 = 1250 (the
  // engine compiles window/2 per side so symmetric probing matches the
  // paper's convention); outputs = selectivity * pairs = 625/s.
  const double out_rate =
      static_cast<double>(r->output_tuples) / options.duration;
  EXPECT_NEAR(out_rate, 625.0, 100.0);
  // Utilization = cost * pairs = 1e-5 * 1250 = 0.0125.
  EXPECT_NEAR(r->max_node_utilization, 0.0125, 0.006);
}

TEST(EngineTest, ProbeAgreesWithAnalyticFeasibility) {
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  const SystemSpec system = SystemSpec::Homogeneous(1);
  const Placement plan(1, {0});
  const place::PlacementEvaluator eval(*model, system);
  SimulationOptions options;
  options.duration = 30.0;

  // Well inside (rho = 0.5) and well outside (rho = 1.4).
  EXPECT_TRUE(eval.FeasibleAt(plan, Vector{500.0}));
  auto inside = ProbeFeasibleAt(g, plan, system, Vector{500.0}, options);
  ASSERT_TRUE(inside.ok());
  EXPECT_TRUE(*inside);

  EXPECT_FALSE(eval.FeasibleAt(plan, Vector{1400.0}));
  auto outside = ProbeFeasibleAt(g, plan, system, Vector{1400.0}, options);
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(*outside);
}

TEST(EngineTest, DeterministicGivenSeed) {
  const QueryGraph g = OneOpGraph(1e-3, 0.8);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 10.0;
  auto a = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(100.0, 10.0)}, options);
  auto b = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(100.0, 10.0)}, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->input_tuples, b->input_tuples);
  EXPECT_EQ(a->output_tuples, b->output_tuples);
  EXPECT_DOUBLE_EQ(a->mean_latency, b->mean_latency);
}

TEST(EngineTest, PerSinkLatencyBreakdownCoversAllSinks) {
  // Two independent chains -> two sinks with distinct ids.
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("A");
  const InputStreamId i1 = g.AddInputStream("B");
  auto a = g.AddOperator({.name = "a", .kind = OperatorKind::kMap,
                          .cost = 1e-3},
                         {StreamRef::Input(i0)});
  auto b = g.AddOperator({.name = "b", .kind = OperatorKind::kMap,
                          .cost = 2e-3},
                         {StreamRef::Input(i1)});
  ASSERT_TRUE(a.ok() && b.ok());
  const SystemSpec system = SystemSpec::Homogeneous(2);
  SimulationOptions options;
  options.duration = 20.0;
  auto r = SimulatePlacement(g, Placement(2, {0, 1}), system,
                             {ConstantTrace(50.0, 20.0),
                              ConstantTrace(50.0, 20.0)},
                             options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->sink_latencies.size(), 2u);
  size_t total = 0;
  for (const auto& s : r->sink_latencies) {
    EXPECT_GT(s.outputs, 0u);
    EXPECT_GT(s.p50, 0.0);
    EXPECT_GE(s.p95, s.p50);
    total += s.outputs;
  }
  EXPECT_EQ(total, r->output_tuples);
}

TEST(EngineTest, HeterogeneousCapacityScalesService) {
  // Same op on a 4x node runs at 1/4 the utilization.
  const QueryGraph g = OneOpGraph(2e-3, 1.0);
  SimulationOptions options;
  options.duration = 30.0;
  auto slow = SimulatePlacement(g, Placement(1, {0}),
                                SystemSpec::Homogeneous(1, 1.0),
                                {ConstantTrace(100.0, 30.0)}, options);
  auto fast = SimulatePlacement(g, Placement(1, {0}),
                                SystemSpec::Homogeneous(1, 4.0),
                                {ConstantTrace(100.0, 30.0)}, options);
  ASSERT_TRUE(slow.ok() && fast.ok());
  EXPECT_NEAR(slow->max_node_utilization, 0.2, 0.04);
  EXPECT_NEAR(fast->max_node_utilization, 0.05, 0.015);
}

TEST(EngineTest, UnionMergesStreams) {
  QueryGraph g;
  const InputStreamId i0 = g.AddInputStream("A");
  const InputStreamId i1 = g.AddInputStream("B");
  auto u = g.AddOperator({.name = "u", .kind = OperatorKind::kUnion,
                          .cost = 1e-4},
                         {StreamRef::Input(i0), StreamRef::Input(i1)});
  ASSERT_TRUE(u.ok());
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 30.0;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(40.0, 30.0),
                              ConstantTrace(60.0, 30.0)},
                             options);
  ASSERT_TRUE(r.ok());
  // Union emits one tuple per input tuple from either stream.
  EXPECT_NEAR(static_cast<double>(r->output_tuples),
              static_cast<double>(r->input_tuples), 5.0);
  EXPECT_NEAR(static_cast<double>(r->input_tuples) / options.duration, 100.0,
              8.0);
}

TEST(EngineTest, OperatorStatsTrackCountsAndCpu) {
  const QueryGraph g = OneOpGraph(2e-3, 0.5);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 40.0;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(100.0, 40.0)}, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->op_stats.size(), 1u);
  const auto& s = r->op_stats[0];
  EXPECT_EQ(s.tuples_processed, r->input_tuples);
  EXPECT_EQ(s.tuples_emitted, r->output_tuples);
  EXPECT_EQ(s.pairs_probed, 0u);
  // CPU = processed * cost.
  EXPECT_NEAR(s.cpu_seconds,
              2e-3 * static_cast<double>(s.tuples_processed), 1e-6);
}

TEST(EngineTest, WarmupExcludesColdStartFromLatency) {
  // Near saturation the queue builds toward steady state over tens of
  // seconds; tuples arriving into the initially *empty* queue see
  // unrepresentatively low latency. Excluding the cold start raises the
  // measured mean; total tuple counts are unchanged.
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);

  SimulationOptions cold;
  cold.duration = 60.0;
  cold.seed = 99;
  SimulationOptions warm = cold;
  warm.warmup = 30.0;

  auto cold_run = SimulatePlacement(g, Placement(1, {0}), system,
                                    {ConstantTrace(970.0, 60.0)}, cold);
  auto warm_run = SimulatePlacement(g, Placement(1, {0}), system,
                                    {ConstantTrace(970.0, 60.0)}, warm);
  ASSERT_TRUE(cold_run.ok() && warm_run.ok());
  EXPECT_EQ(cold_run->output_tuples, warm_run->output_tuples);
  EXPECT_GT(warm_run->output_tuples,
            warm_run->sink_latencies[0].outputs);  // some samples excluded
  EXPECT_GT(warm_run->mean_latency, cold_run->mean_latency);

  SimulationOptions bad = cold;
  bad.warmup = 60.0;  // >= duration
  EXPECT_FALSE(SimulatePlacement(g, Placement(1, {0}), system,
                                 {ConstantTrace(10.0, 60.0)}, bad)
                   .ok());
}

TEST(EngineTest, LoadSheddingBoundsQueuesUnderOverload) {
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 30.0;
  options.queue_bound = {.capacity = 50,
                         .policy = OverflowPolicy::kDropNewest};
  // rho = 2.0: without shedding the queue would grow to ~30k tasks.
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(2000.0, 30.0)}, options);
  ASSERT_TRUE(r.ok());
  // Roughly half the offered tuples must be shed; the backlog stays at
  // the shedding threshold instead of growing without bound.
  const double offered =
      static_cast<double>(r->input_tuples + r->shed_tuples);
  EXPECT_NEAR(static_cast<double>(r->shed_tuples) / offered, 0.5, 0.05);
  EXPECT_LE(r->final_backlog, options.queue_bound.capacity + 1);
  // The accepted tuples are all processed: throughput = capacity.
  EXPECT_NEAR(static_cast<double>(r->output_tuples) / options.duration,
              1000.0, 60.0);
  // Latency stays bounded by (threshold * service time).
  EXPECT_LT(r->p99_latency, 0.06);
}

TEST(EngineTest, SheddingConservesOfferedTuples) {
  // With deterministic evenly-spaced arrivals the offered volume is known
  // exactly: every offered tuple is either accepted or shed, never lost.
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 20.0;
  options.poisson_arrivals = false;
  options.queue_bound = {.capacity = 40,
                         .policy = OverflowPolicy::kDropNewest};
  const double rate = 1800.0;  // rho = 1.8: well past the threshold
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(rate, options.duration)}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->shed_tuples, 0u);
  EXPECT_LE(r->final_backlog, options.queue_bound.capacity + 1);
  // Conservation: accepted + shed = offered (evenly spaced arrivals give
  // exactly rate * duration offered tuples, +/- the boundary arrival).
  const auto offered = static_cast<size_t>(rate * options.duration);
  EXPECT_NEAR(static_cast<double>(r->input_tuples + r->shed_tuples),
              static_cast<double>(offered), 1.0);
  // Accepted tuples are all accounted for: emitted or still queued.
  EXPECT_EQ(r->input_tuples, r->output_tuples + r->final_backlog);
}

TEST(EngineTest, MaxEventsAbortNamesTheHotSpot) {
  // An overloaded run that trips the event guard must say where the
  // backlog piled up, not just that it aborted.
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 30.0;
  options.max_events = 20'000;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(2000.0, 30.0)}, options);
  ASSERT_FALSE(r.ok());
  const std::string& msg = r.status().message();
  EXPECT_NE(msg.find("hottest node 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("operator 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("queued"), std::string::npos) << msg;
}

TEST(EngineTest, NoSheddingBelowThresholdOrWhenDisabled) {
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  SimulationOptions options;
  options.duration = 20.0;
  options.queue_bound = {.capacity = 50,
                         .policy = OverflowPolicy::kDropNewest};
  auto light = SimulatePlacement(g, Placement(1, {0}), system,
                                 {ConstantTrace(300.0, 20.0)}, options);
  ASSERT_TRUE(light.ok());
  EXPECT_EQ(light->shed_tuples, 0u);

  options.queue_bound.capacity = 0;  // disabled
  auto unbounded = SimulatePlacement(g, Placement(1, {0}), system,
                                     {ConstantTrace(2000.0, 20.0)}, options);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(unbounded->shed_tuples, 0u);
  EXPECT_GT(unbounded->final_backlog, 1000u);
}

TEST(EngineTest, ValidatesInputs) {
  const QueryGraph g = OneOpGraph(1e-3, 1.0);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  // Wrong trace count.
  EXPECT_FALSE(
      SimulatePlacement(g, Placement(1, {0}), system, {}, {}).ok());
  // Bad duration.
  SimulationOptions bad;
  bad.duration = -1.0;
  EXPECT_FALSE(SimulatePlacement(g, Placement(1, {0}), system,
                                 {ConstantTrace(1.0, 1.0)}, bad)
                   .ok());
  // Mismatched placement.
  EXPECT_FALSE(SimulatePlacement(g, Placement(1, {0, 0}), system,
                                 {ConstantTrace(1.0, 1.0)}, {})
                   .ok());
}

}  // namespace
}  // namespace rod::sim
