// End-to-end chaos tests: mid-run node crashes in the tuple-level engine,
// supervised recovery via incremental placement repair, incident metrics
// (lost tuples, phase latencies, recovery time, availability), and the
// repair-beats-naive-dump claim at tuple granularity.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "runtime/chaos.h"
#include "runtime/engine.h"
#include "runtime/supervisor.h"

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
QueryGraph OneOpGraph(double cost, double selectivity = 1.0) {
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  EXPECT_TRUE(g.AddOperator({.name = "op", .kind = OperatorKind::kMap,
                             .cost = cost, .selectivity = selectivity},
                            {StreamRef::Input(in)})
                  .ok());
  return g;
}

/// The paper-style random forest scenario the repair tests run on.
struct Scenario {
  query::QueryGraph graph;
  query::LoadModel model;
  SystemSpec system = SystemSpec::Homogeneous(3);
  Placement plan{3, {}};

  Scenario() {
    query::GraphGenOptions gen;
    gen.num_input_streams = 3;
    gen.ops_per_tree = 10;
    Rng rng(0xfa11);
    graph = query::GenerateRandomTrees(gen, rng);
    model = *query::BuildLoadModel(graph);
    plan = *place::RodPlace(model, system);
  }

  /// Uniform input rates at `load_level` of this plan's boundary.
  std::vector<trace::RateTrace> Traces(double load_level,
                                       double duration) const {
    const place::PlacementEvaluator eval(model, system);
    Vector unit(model.num_system_inputs(), 1.0);
    const Vector util = eval.NodeUtilizationAt(plan, unit);
    double peak = 0.0;
    for (double u : util) peak = std::max(peak, u);
    std::vector<trace::RateTrace> traces;
    for (size_t k = 0; k < model.num_system_inputs(); ++k) {
      traces.push_back(ConstantTrace(load_level / peak, duration));
    }
    return traces;
  }

  /// The node hosting input stream 0's first consumer — crashing it
  /// guarantees arrivals bounce until the supervisor re-homes.
  uint32_t NodeOfInput0() const {
    for (query::OperatorId j = 0; j < graph.num_operators(); ++j) {
      for (const query::Arc& arc : graph.inputs_of(j)) {
        if (arc.from.kind == query::StreamRef::Kind::kInput &&
            arc.from.index == 0) {
          return static_cast<uint32_t>(plan.node_of(j));
        }
      }
    }
    ADD_FAILURE() << "input 0 has no consumer";
    return 0;
  }
};

TEST(FailureScheduleTest, ValidatesScripts) {
  FailureSchedule ok;
  ok.CrashAt(5.0, 1).RecoverAt(9.0, 1).CrashAt(12.0, 1).SlowdownAt(3.0, 0,
                                                                   0.5);
  EXPECT_TRUE(ok.Validate(2).ok());

  FailureSchedule bad_node;
  bad_node.CrashAt(1.0, 7);
  EXPECT_FALSE(bad_node.Validate(2).ok());

  FailureSchedule double_crash;
  double_crash.CrashAt(1.0, 0).CrashAt(2.0, 0);
  EXPECT_FALSE(double_crash.Validate(2).ok());

  FailureSchedule spurious_recover;
  spurious_recover.RecoverAt(1.0, 0);
  EXPECT_FALSE(spurious_recover.Validate(2).ok());

  FailureSchedule negative_time;
  negative_time.CrashAt(-1.0, 0);
  EXPECT_FALSE(negative_time.Validate(2).ok());

  FailureSchedule bad_factor;
  bad_factor.SlowdownAt(1.0, 0, 0.0);
  EXPECT_FALSE(bad_factor.Validate(2).ok());
}

TEST(FailureScheduleTest, ValidatesLoadSpikes) {
  FailureSchedule ok;
  ok.LoadSpikeAt(5.0, 1, 3.0).LoadSpikeAt(9.0, 1, 1.0).LoadSpikeAt(2.0, 0,
                                                                   0.0);
  EXPECT_TRUE(ok.Validate(/*num_nodes=*/1, /*num_streams=*/2).ok());

  // `node` indexes the stream universe for spikes, not the cluster.
  FailureSchedule bad_stream;
  bad_stream.LoadSpikeAt(1.0, 5, 2.0);
  EXPECT_FALSE(bad_stream.Validate(8, 2).ok());

  FailureSchedule negative_factor;
  negative_factor.LoadSpikeAt(1.0, 0, -0.5);
  EXPECT_FALSE(negative_factor.Validate(1, 1).ok());

  // The legacy single-arg form cannot know the stream universe.
  FailureSchedule spike;
  spike.LoadSpikeAt(1.0, 0, 2.0);
  EXPECT_FALSE(spike.Validate(4).ok());
  EXPECT_TRUE(spike.Validate(4, 1).ok());

  // Spikes are stream events: they are legal while nodes are down.
  FailureSchedule during_outage;
  during_outage.CrashAt(5.0, 0).LoadSpikeAt(6.0, 0, 2.0);
  EXPECT_TRUE(during_outage.Validate(1, 1).ok());
}

TEST(FailureScheduleTest, RejectsSlowdownOfCrashedNode) {
  // A slowdown must target a node that is up at that instant.
  FailureSchedule down;
  down.CrashAt(5.0, 0).SlowdownAt(6.0, 0, 0.5);
  EXPECT_FALSE(down.Validate(1).ok());
  EXPECT_FALSE(down.Validate(1, 0).ok());

  FailureSchedule recovered;
  recovered.CrashAt(5.0, 0).RecoverAt(6.0, 0).SlowdownAt(6.5, 0, 0.5);
  EXPECT_TRUE(recovered.Validate(1).ok());

  // Same-instant events apply in insertion order, matching the engine's
  // replay: crash-then-slowdown is invalid, slowdown-then-crash is fine.
  FailureSchedule crash_first;
  crash_first.CrashAt(5.0, 0).SlowdownAt(5.0, 0, 0.5);
  EXPECT_FALSE(crash_first.Validate(1).ok());

  FailureSchedule slowdown_first;
  slowdown_first.SlowdownAt(5.0, 0, 0.5).CrashAt(5.0, 0);
  EXPECT_TRUE(slowdown_first.Validate(1).ok());

  FailureSchedule recover_then_slow;
  recover_then_slow.CrashAt(4.0, 0).RecoverAt(5.0, 0).SlowdownAt(5.0, 0, 2.0);
  EXPECT_TRUE(recover_then_slow.Validate(1).ok());
}

TEST(ChaosTest, UnsupervisedCrashDropsWorkAndRejectsArrivals) {
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  FailureSchedule chaos;
  chaos.CrashAt(10.0, 0);
  SimulationOptions options;
  options.duration = 30.0;
  options.failures = &chaos;
  // rho = 0.8: the crash catches a non-trivial queue.
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(800.0, 30.0)}, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());
  const IncidentReport& inc = *r->incident;
  EXPECT_DOUBLE_EQ(inc.crash_time, 10.0);
  EXPECT_EQ(inc.failed_node, 0u);
  EXPECT_LT(inc.detect_time, 0.0);  // nobody watching
  // Every post-crash arrival bounces: ~2/3 of the offered tuples.
  EXPECT_GT(inc.rejected_inputs, 12000u);
  EXPECT_GT(inc.lost_queued + inc.lost_inflight, 0u);
  EXPECT_EQ(inc.lost_tuples,
            inc.lost_queued + inc.lost_inflight + inc.lost_network +
                inc.rejected_inputs);
  EXPECT_NEAR(inc.availability, 1.0 / 3.0, 0.05);
  // Outputs only exist pre-crash.
  EXPECT_GT(inc.pre_failure.outputs, 0u);
  EXPECT_EQ(inc.post_recovery.outputs + inc.during_recovery.outputs, 0u);
}

TEST(ChaosTest, CrashedNodeComesBackEmptyOnRecover) {
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  FailureSchedule chaos;
  chaos.CrashAt(10.0, 0).RecoverAt(20.0, 0);
  SimulationOptions options;
  options.duration = 40.0;
  options.failures = &chaos;
  auto r = SimulatePlacement(g, Placement(1, {0}), system,
                             {ConstantTrace(200.0, 40.0)}, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());
  // 10 s of the 40 s run rejected: availability ~ 3/4.
  EXPECT_NEAR(r->incident->availability, 0.75, 0.04);
  EXPECT_TRUE(r->incident->recovered);
  // Outputs resume after the node returns.
  EXPECT_GT(r->incident->post_recovery.outputs, 0u);
  EXPECT_FALSE(r->saturated);
}

TEST(ChaosTest, SlowdownRaisesUtilization) {
  const QueryGraph g = OneOpGraph(1e-3);
  const SystemSpec system = SystemSpec::Homogeneous(1);
  FailureSchedule chaos;
  chaos.SlowdownAt(0.0, 0, 0.5);  // half capacity from the start
  SimulationOptions options;
  options.duration = 30.0;
  options.failures = &chaos;
  auto slowed = SimulatePlacement(g, Placement(1, {0}), system,
                                  {ConstantTrace(300.0, 30.0)}, options);
  SimulationOptions healthy = options;
  healthy.failures = nullptr;
  auto normal = SimulatePlacement(g, Placement(1, {0}), system,
                                  {ConstantTrace(300.0, 30.0)}, healthy);
  ASSERT_TRUE(slowed.ok() && normal.ok());
  // rho doubles from 0.3 to 0.6 at half capacity.
  EXPECT_NEAR(normal->max_node_utilization, 0.3, 0.05);
  EXPECT_NEAR(slowed->max_node_utilization, 0.6, 0.08);
  EXPECT_FALSE(slowed->incident.has_value());  // slowdown is not a crash
}

TEST(ChaosTest, DeterministicGivenSeedAndSchedule) {
  Scenario s;
  FailureSchedule chaos;
  chaos.CrashAt(15.0, s.NodeOfInput0());
  Supervisor::Options sup_options;
  sup_options.detection_delay = 1.0;

  SimulationOptions options;
  options.duration = 50.0;
  options.failures = &chaos;

  auto run = [&]() {
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions o = options;
    o.recovery = &supervisor;
    return SimulatePlacement(s.graph, s.plan, s.system, s.Traces(0.5, 50.0),
                             o);
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->incident && b->incident);
  EXPECT_EQ(a->input_tuples, b->input_tuples);
  EXPECT_EQ(a->output_tuples, b->output_tuples);
  EXPECT_EQ(a->incident->lost_tuples, b->incident->lost_tuples);
  EXPECT_DOUBLE_EQ(a->incident->recovery_time, b->incident->recovery_time);
}

// The acceptance scenario: a 3-node cluster at ~50% of its boundary loses
// a node mid-run; the supervisor repairs the placement and the cluster
// must settle back under the overload threshold.
TEST(ChaosTest, SupervisedRepairRecoversFromMidRunCrash) {
  Scenario s;
  const double kDuration = 80.0;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  Supervisor::Options sup_options;
  sup_options.detection_delay = 1.0;
  Supervisor supervisor(s.model, sup_options);

  SimulationOptions options;
  options.duration = kDuration;
  options.failures = &chaos;
  options.recovery = &supervisor;

  auto r = SimulatePlacement(s.graph, s.plan, s.system,
                             s.Traces(0.5, kDuration), options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());
  const IncidentReport& inc = *r->incident;

  EXPECT_EQ(supervisor.repairs_performed(), 1u);
  EXPECT_TRUE(supervisor.last_status().ok());
  EXPECT_GT(inc.operators_moved, 0u);
  EXPECT_NEAR(inc.detect_time, 21.0, 1e-9);
  EXPECT_NEAR(inc.plan_applied_time, 21.0, 1e-9);

  // The incident cost something...
  EXPECT_GT(inc.lost_tuples, 0u);
  EXPECT_LT(inc.availability, 1.0);
  // ...but the cluster recovered and stays below the overload threshold.
  EXPECT_TRUE(inc.recovered);
  EXPECT_GE(inc.recovery_time, 0.0);
  EXPECT_LT(inc.post_recovery_max_utilization, kOverloadedUtilization);
  EXPECT_GT(inc.post_recovery.outputs, 0u);
  EXPECT_FALSE(r->saturated);
}

TEST(ChaosTest, FlightRecorderCapturesSupervisedCrashIncident) {
  Scenario s;
  const double kDuration = 80.0;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  telemetry::Telemetry tel;
  telemetry::FlightRecorder recorder(&tel);

  Supervisor::Options sup_options;
  sup_options.detection_delay = 1.0;
  sup_options.flight_recorder = &recorder;
  Supervisor supervisor(s.model, sup_options);

  SimulationOptions options;
  options.duration = kDuration;
  options.failures = &chaos;
  options.recovery = &supervisor;
  options.flight_recorder = &recorder;

  auto r = SimulatePlacement(s.graph, s.plan, s.system,
                             s.Traces(0.5, kDuration), options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());

  // One incident: opened at the crash, completed at run finalize, with
  // breadcrumbs from both the engine and the supervisor and the full
  // IncidentReport embedded as the report object.
  EXPECT_FALSE(recorder.pending());
  ASSERT_EQ(recorder.incident_count(), 1u);
  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"kind\": \"node_crash\""), std::string::npos) << json;
  EXPECT_NE(json.find("failure of node"), std::string::npos) << json;
  EXPECT_NE(json.find("plan applied"), std::string::npos) << json;
  EXPECT_NE(json.find("\"operators_moved\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"recovered\": true"), std::string::npos) << json;
}

TEST(ChaosTest, ShorterDetectionDelayLosesStrictlyFewerTuples) {
  Scenario s;
  const double kDuration = 60.0;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  auto lost_with_delay = [&](double delay) {
    Supervisor::Options sup_options;
    sup_options.detection_delay = delay;
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions options;
    options.duration = kDuration;
    options.failures = &chaos;
    options.recovery = &supervisor;
    auto r = SimulatePlacement(s.graph, s.plan, s.system,
                               s.Traces(0.5, kDuration), options);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->incident.has_value());
    return r->incident->lost_tuples;
  };

  const size_t slow = lost_with_delay(4.0);
  const size_t fast = lost_with_delay(0.5);
  EXPECT_GT(slow, 0u);
  EXPECT_GT(fast, 0u);  // the crash itself drops queued/in-flight work
  EXPECT_LT(fast, slow);
}

TEST(ChaosTest, NegativeDetectionDelayIsRejected) {
  // A crash's detection fires one detection delay after it. A negative
  // delay would fire it in the past, running the clock backwards and
  // detecting before the crash, so the run is rejected at set-up, as is
  // a delay that is not finite. A delay of 0 still runs.
  Scenario s;
  const double kDuration = 30.0;
  FailureSchedule chaos;
  chaos.CrashAt(10.0, s.NodeOfInput0());
  auto run = [&](double delay) {
    Supervisor::Options sup_options;
    sup_options.detection_delay = delay;
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions options;
    options.duration = kDuration;
    options.failures = &chaos;
    options.recovery = &supervisor;
    return SimulatePlacement(s.graph, s.plan, s.system,
                             s.Traces(0.5, kDuration), options);
  };
  for (double bad : {-0.1, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    const auto r = run(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  const auto zero = run(0.0);
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  ASSERT_TRUE(zero->incident.has_value());
  EXPECT_EQ(zero->incident->detect_time, zero->incident->crash_time);
  EXPECT_GT(zero->incident->operators_moved, 0u);
}

TEST(ChaosTest, RepairBeatsNaiveDumpOnRecoveryLatency) {
  Scenario s;
  const double kDuration = 80.0;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  auto run_policy = [&](Supervisor::Policy policy) {
    Supervisor::Options sup_options;
    sup_options.detection_delay = 1.0;
    sup_options.policy = policy;
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions options;
    options.duration = kDuration;
    options.failures = &chaos;
    options.recovery = &supervisor;
    auto r = SimulatePlacement(s.graph, s.plan, s.system,
                               s.Traces(0.55, kDuration), options);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->incident.has_value());
    return *r;
  };

  const SimulationResult repaired = run_policy(Supervisor::Policy::kRepair);
  const SimulationResult dumped = run_policy(Supervisor::Policy::kNaiveDump);

  // Both runs accepted comparable volumes (same arrivals, same outage
  // window), so the latency comparison is apples to apples.
  ASSERT_GT(repaired.incident->during_recovery.outputs, 0u);
  ASSERT_GT(dumped.incident->during_recovery.outputs, 0u);

  // Dumping every orphan on one survivor overloads it; spreading them via
  // incremental ROD keeps the recovery-phase tail latency strictly lower.
  EXPECT_LT(repaired.incident->during_recovery.p95,
            dumped.incident->during_recovery.p95);
  // The repaired cluster settles; the dump victim stays hot longer.
  EXPECT_TRUE(repaired.incident->recovered);
  EXPECT_LE(repaired.max_node_utilization, dumped.max_node_utilization);
}

TEST(ChaosTest, MigrationPauseBuffersAndReplays) {
  Scenario s;
  const double kDuration = 60.0;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  Supervisor::Options sup_options;
  sup_options.detection_delay = 1.0;
  sup_options.migration_pause = 0.5;
  Supervisor supervisor(s.model, sup_options);

  SimulationOptions options;
  options.duration = kDuration;
  options.failures = &chaos;
  options.recovery = &supervisor;

  auto r = SimulatePlacement(s.graph, s.plan, s.system,
                             s.Traces(0.5, kDuration), options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());
  EXPECT_GT(r->incident->migration_buffered, 0u);
  EXPECT_EQ(r->incident->migration_shed, 0u);
  EXPECT_TRUE(r->incident->recovered);

  // Shedding variant: held tuples are dropped instead.
  sup_options.shed_during_pause = true;
  Supervisor shedder(s.model, sup_options);
  options.recovery = &shedder;
  auto shed_run = SimulatePlacement(s.graph, s.plan, s.system,
                                    s.Traces(0.5, kDuration), options);
  ASSERT_TRUE(shed_run.ok());
  ASSERT_TRUE(shed_run->incident.has_value());
  EXPECT_GT(shed_run->incident->migration_shed, 0u);
  EXPECT_EQ(shed_run->incident->migration_buffered, 0u);
}

TEST(ChaosTest, MigrationPauseLossAttributionAndDeterminism) {
  Scenario s;
  const double kDuration = 60.0;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  auto run_variant = [&](bool shed_during_pause) {
    Supervisor::Options sup_options;
    sup_options.detection_delay = 1.0;
    sup_options.migration_pause = 0.5;
    sup_options.shed_during_pause = shed_during_pause;
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions options;
    options.duration = kDuration;
    options.failures = &chaos;
    options.recovery = &supervisor;
    auto r = SimulatePlacement(s.graph, s.plan, s.system,
                               s.Traces(0.5, kDuration), options);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->incident.has_value());
    return *r;
  };

  const SimulationResult buffered = run_variant(false);
  const SimulationResult buffered_again = run_variant(false);
  const SimulationResult shed = run_variant(true);

  // The buffered-replay control is bit-exact across runs.
  EXPECT_EQ(buffered.input_tuples, buffered_again.input_tuples);
  EXPECT_EQ(buffered.output_tuples, buffered_again.output_tuples);
  EXPECT_EQ(buffered.processed_events, buffered_again.processed_events);
  EXPECT_EQ(buffered.mean_latency, buffered_again.mean_latency);
  EXPECT_EQ(buffered.incident->lost_tuples, buffered_again.incident->lost_tuples);

  // Loss attribution: the total is exactly the sum of the mechanisms, and
  // migration-pause drops are accounted separately, never as crash loss.
  for (const SimulationResult* r : {&buffered, &shed}) {
    const IncidentReport& inc = *r->incident;
    EXPECT_EQ(inc.lost_tuples, inc.lost_queued + inc.lost_inflight +
                                   inc.lost_network + inc.rejected_inputs);
  }
  EXPECT_GT(buffered.incident->migration_buffered, 0u);
  EXPECT_EQ(buffered.incident->migration_shed, 0u);
  EXPECT_GT(shed.incident->migration_shed, 0u);
  EXPECT_EQ(shed.incident->migration_buffered, 0u);

  // Shedding forfeits the held tuples (and the two trajectories diverge
  // stochastically after the pause), so it outputs no more than the
  // replaying control.
  EXPECT_LE(shed.output_tuples, buffered.output_tuples);
}

TEST(ChaosTest, ReCrashDuringMigrationPauseIsHandled) {
  Scenario s;
  const double kDuration = 80.0;
  const uint32_t first = s.NodeOfInput0();
  const uint32_t second = (first + 1) % 3;

  // Detection at 21, plan applied at 21, pause until 24; the second node
  // dies at 22 — mid-pause — orphaning operators that may be paused with
  // buffered tuples.
  FailureSchedule chaos;
  chaos.CrashAt(20.0, first).CrashAt(22.0, second);
  ASSERT_TRUE(chaos.Validate(3, s.model.num_system_inputs()).ok());

  for (bool shed_during_pause : {false, true}) {
    Supervisor::Options sup_options;
    sup_options.detection_delay = 1.0;
    sup_options.migration_pause = 3.0;
    sup_options.shed_during_pause = shed_during_pause;
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions options;
    options.duration = kDuration;
    options.failures = &chaos;
    options.recovery = &supervisor;
    auto r = SimulatePlacement(s.graph, s.plan, s.system,
                               s.Traces(0.4, kDuration), options);
    ASSERT_TRUE(r.ok()) << "shed=" << shed_during_pause;
    ASSERT_TRUE(r->incident.has_value());
    EXPECT_EQ(r->incident->failed_node, first);
    EXPECT_EQ(supervisor.repairs_performed(), 2u);
    EXPECT_GT(r->output_tuples, 0u);

    auto again = SimulatePlacement(s.graph, s.plan, s.system,
                                   s.Traces(0.4, kDuration), options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(r->output_tuples, again->output_tuples);
    EXPECT_EQ(r->incident->lost_tuples, again->incident->lost_tuples);
  }
}

TEST(SupervisorTest, ResetClearsIntrospectionState) {
  Scenario s;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  Supervisor::Options sup_options;
  sup_options.detection_delay = 1.0;
  Supervisor supervisor(s.model, sup_options);
  SimulationOptions options;
  options.duration = 40.0;
  options.failures = &chaos;
  options.recovery = &supervisor;

  auto first = SimulatePlacement(s.graph, s.plan, s.system,
                                 s.Traces(0.5, 40.0), options);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(supervisor.repairs_performed(), 1u);
  EXPECT_GT(supervisor.operators_moved(), 0u);
  EXPECT_GT(supervisor.last_plane_distance(), 0.0);

  supervisor.Reset();
  EXPECT_EQ(supervisor.repairs_performed(), 0u);
  EXPECT_EQ(supervisor.operators_moved(), 0u);
  EXPECT_EQ(supervisor.last_plane_distance(), 0.0);
  EXPECT_EQ(supervisor.repair_retries(), 0u);
  EXPECT_EQ(supervisor.overload_consults(), 0u);
  EXPECT_EQ(supervisor.num_quarantined(), 0u);
  EXPECT_TRUE(supervisor.last_status().ok());

  // A reset supervisor serves a second run exactly like a fresh one.
  auto second = SimulatePlacement(s.graph, s.plan, s.system,
                                  s.Traces(0.5, 40.0), options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(supervisor.repairs_performed(), 1u);
  EXPECT_EQ(first->output_tuples, second->output_tuples);
  EXPECT_EQ(first->processed_events, second->processed_events);
}

TEST(SupervisorTest, FailedRepairRetriesWithDoublingBackoff) {
  Scenario s;
  auto dep = CompileDeployment(s.graph, s.plan, s.system);
  ASSERT_TRUE(dep.ok());

  // kMinCrossArcs is rejected by the incremental RepairPlacement, so
  // every repair attempt fails deterministically.
  Supervisor::Options sup_options;
  sup_options.rod.tie_break = place::RodOptions::ClassITieBreak::kMinCrossArcs;
  sup_options.max_repair_retries = 3;
  sup_options.repair_retry_backoff = 0.5;
  sup_options.repair_retry_backoff_max = 8.0;
  Supervisor supervisor(s.model, sup_options);

  std::vector<bool> node_up{true, true, true};
  node_up[s.NodeOfInput0()] = false;

  // No retry is pending before the first failure.
  EXPECT_EQ(supervisor.RepairRetryDelay(), 0.0);
  auto update = supervisor.OnFailureDetected(10.0, s.NodeOfInput0(), node_up,
                                             *dep);
  EXPECT_FALSE(update.has_value());
  EXPECT_FALSE(supervisor.last_status().ok());
  EXPECT_EQ(supervisor.repairs_performed(), 0u);

  // Doubling backoff: 0.5, 1.0, 2.0, then exhausted.
  EXPECT_EQ(supervisor.RepairRetryDelay(), 0.5);
  EXPECT_EQ(supervisor.RepairRetryDelay(), 1.0);
  EXPECT_EQ(supervisor.RepairRetryDelay(), 2.0);
  EXPECT_EQ(supervisor.RepairRetryDelay(), 0.0);
  EXPECT_EQ(supervisor.repair_retries(), 3u);
}

TEST(SupervisorTest, EngineReFiresDetectionUntilRetriesExhaust) {
  Scenario s;
  FailureSchedule chaos;
  chaos.CrashAt(10.0, s.NodeOfInput0());

  Supervisor::Options sup_options;
  sup_options.detection_delay = 0.5;
  sup_options.rod.tie_break = place::RodOptions::ClassITieBreak::kMinCrossArcs;
  sup_options.max_repair_retries = 3;
  sup_options.repair_retry_backoff = 0.5;
  Supervisor supervisor(s.model, sup_options);

  SimulationOptions options;
  options.duration = 40.0;
  options.failures = &chaos;
  options.recovery = &supervisor;
  auto r = SimulatePlacement(s.graph, s.plan, s.system, s.Traces(0.5, 40.0),
                             options);
  ASSERT_TRUE(r.ok());
  // Every attempt failed; the engine re-scheduled detection once per
  // granted retry, then accepted the failure as final.
  EXPECT_EQ(supervisor.repairs_performed(), 0u);
  EXPECT_EQ(supervisor.repair_retries(), 3u);
  EXPECT_FALSE(supervisor.last_status().ok());
  EXPECT_TRUE(r->incident.has_value());
  EXPECT_LT(r->incident->plan_applied_time, 0.0);  // never repaired
}

TEST(SupervisorTest, FlappingNodeIsQuarantined) {
  Scenario s;
  auto dep = CompileDeployment(s.graph, s.plan, s.system);
  ASSERT_TRUE(dep.ok());

  Supervisor::Options sup_options;
  sup_options.quarantine_after = 2;
  Supervisor supervisor(s.model, sup_options);

  const std::vector<bool> n1_down{true, false, true};
  const std::vector<bool> n2_down{true, true, false};

  // Crash #1 of node 1: repaired, not yet quarantined.
  auto u1 = supervisor.OnFailureDetected(10.0, 1, n1_down, *dep);
  ASSERT_TRUE(u1.has_value());
  EXPECT_FALSE(supervisor.quarantined(1));

  // Node 1 recovers (visible in the next liveness map); node 2 crashes.
  supervisor.OnFailureDetected(20.0, 2, n2_down, *dep);

  // Crash #2 of node 1: now quarantined.
  supervisor.OnFailureDetected(30.0, 1, n1_down, *dep);
  EXPECT_TRUE(supervisor.quarantined(1));
  EXPECT_EQ(supervisor.num_quarantined(), 1u);

  // Node 1 is nominally up in the next repair, but the supervisor never
  // places an operator on a quarantined node.
  auto update = supervisor.OnFailureDetected(40.0, 2, n2_down, *dep);
  ASSERT_TRUE(update.has_value());
  for (size_t node : update->assignment) EXPECT_NE(node, 1u);

  supervisor.Reset();
  EXPECT_FALSE(supervisor.quarantined(1));
  EXPECT_EQ(supervisor.num_quarantined(), 0u);
}

TEST(ChaosTest, RebalanceBudgetDoesNotHurtPlaneDistance) {
  Scenario s;
  FailureSchedule chaos;
  chaos.CrashAt(20.0, s.NodeOfInput0());

  auto distance_with_budget = [&](size_t budget) {
    Supervisor::Options sup_options;
    sup_options.detection_delay = 1.0;
    sup_options.rebalance_budget = budget;
    Supervisor supervisor(s.model, sup_options);
    SimulationOptions options;
    options.duration = 40.0;
    options.failures = &chaos;
    options.recovery = &supervisor;
    auto r = SimulatePlacement(s.graph, s.plan, s.system, s.Traces(0.5, 40.0),
                               options);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(supervisor.repairs_performed(), 1u);
    return supervisor.last_plane_distance();
  };

  const double repair_only = distance_with_budget(0);
  const double rebalanced = distance_with_budget(3);
  EXPECT_GE(rebalanced, repair_only - 1e-12);
}

}  // namespace
}  // namespace rod::sim
