// Pinned results of default-option runs. Every other bit-exactness test
// compares two configurations inside one build; these pin absolute
// values, so a change that moves a default run's results anywhere in the
// engine (event order, batching, metrics, incident accounting) fails
// here even when both sides of an in-build comparison move together.
// The literals were taken from a build before the engine dropped its
// selectable event queue and percentile knobs (the restart case's: before
// service completions moved into per-node queue slots); a change that
// means to move them must say so and re-pin.

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

void ExpectCounts(const SimulationResult& r, uint64_t events, size_t in,
                  size_t out, size_t shed) {
  EXPECT_EQ(r.processed_events, events);
  uint64_t by_type = 0;
  for (uint64_t n : r.events_by_type) by_type += n;
  EXPECT_EQ(by_type, r.processed_events);
  EXPECT_EQ(r.input_tuples, in);
  EXPECT_EQ(r.output_tuples, out);
  EXPECT_EQ(r.shed_tuples, shed);
}

void ExpectLatencies(const SimulationResult& r, double mean, double p50,
                     double p95, double p99, double max) {
  EXPECT_DOUBLE_EQ(r.mean_latency, mean);
  EXPECT_DOUBLE_EQ(r.p50_latency, p50);
  EXPECT_DOUBLE_EQ(r.p95_latency, p95);
  EXPECT_DOUBLE_EQ(r.p99_latency, p99);
  EXPECT_DOUBLE_EQ(r.max_latency, max);
}

void ExpectUtilization(const SimulationResult& r,
                       const std::vector<double>& per_node) {
  ASSERT_EQ(r.node_utilization.size(), per_node.size());
  for (size_t i = 0; i < per_node.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.node_utilization[i], per_node[i]) << "node " << i;
  }
}

TEST(PinnedResultsTest, FanOutAcrossANetworkHop) {
  // I -> src (node 0) -> {a, b, c} (node 1): each emission schedules three
  // same-instant deliveries across the hop, which batching coalesces.
  QueryGraph g;
  const InputStreamId in = g.AddInputStream("I");
  auto src = g.AddOperator({.name = "src", .kind = OperatorKind::kMap,
                            .cost = 2e-4, .selectivity = 1.0},
                           {StreamRef::Input(in)});
  ASSERT_TRUE(src.ok());
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(g.AddOperator({.name = name, .kind = OperatorKind::kMap,
                               .cost = 4e-4, .selectivity = 0.9},
                              {StreamRef::Op(*src)})
                    .ok());
  }
  SimulationOptions options;
  options.duration = 30.0;
  auto r = SimulatePlacement(g, Placement(2, {0, 1, 1, 1}),
                             SystemSpec::Homogeneous(2),
                             {ConstantTrace(400.0, 30.0)}, options);
  ASSERT_TRUE(r.ok());
  ExpectCounts(*r, 96381, 12048, 32499, 0);
  ExpectLatencies(*r, 0.0025771073555367237, 0.0023999999999979593,
                  0.0045105047175756138, 0.0060095835431553373,
                  0.012389774695288125);
  ExpectUtilization(*r, {0.080319999999883887, 0.48187999999974473});
}

TEST(PinnedResultsTest, WindowJoin) {
  // L -> filter (node 0), R -> filter (node 1), both -> join (node 1)
  // -> map (node 0): window state, probe-proportional cost, and sampled
  // pair emission, with one hop on each side of the join.
  QueryGraph g;
  const InputStreamId l = g.AddInputStream("L");
  const InputStreamId r_in = g.AddInputStream("R");
  auto fl = g.AddOperator({.name = "fl", .kind = OperatorKind::kFilter,
                           .cost = 1e-4, .selectivity = 0.8},
                          {StreamRef::Input(l)});
  auto fr = g.AddOperator({.name = "fr", .kind = OperatorKind::kFilter,
                           .cost = 1e-4, .selectivity = 0.7},
                          {StreamRef::Input(r_in)});
  ASSERT_TRUE(fl.ok() && fr.ok());
  auto j = g.AddOperator({.name = "j", .kind = OperatorKind::kJoin,
                          .cost = 2e-5, .selectivity = 0.05, .window = 0.4},
                         {StreamRef::Op(*fl), StreamRef::Op(*fr)});
  ASSERT_TRUE(j.ok());
  ASSERT_TRUE(g.AddOperator({.name = "m", .kind = OperatorKind::kMap,
                             .cost = 3e-4, .selectivity = 1.0},
                            {StreamRef::Op(*j)})
                  .ok());
  SimulationOptions options;
  options.duration = 20.0;
  auto r = SimulatePlacement(
      g, Placement(2, {0, 1, 1, 0}), SystemSpec::Homogeneous(2),
      {ConstantTrace(150.0, 20.0), ConstantTrace(120.0, 20.0)}, options);
  ASSERT_TRUE(r.ok());
  ExpectCounts(*r, 24840, 5369, 3815, 0);
  ExpectLatencies(*r, 0.002524011123886275, 0.0026399999999999757,
                  0.0033205352184237031, 0.0037196293350712042,
                  0.0046227288665985355);
  ExpectUtilization(*r, {0.072384999999907731, 0.090114999999986761});
  ASSERT_EQ(r->op_stats.size(), 4u);
  EXPECT_EQ(r->op_stats[2].pairs_probed, 78430u);
  EXPECT_EQ(r->op_stats[2].tuples_emitted, 3816u);
}

TEST(PinnedResultsTest, SupervisedCrash) {
  // Three two-operator chains, each crossing from node k to node k+1.
  // Node 1 crashes at t = 8 s; the supervisor re-homes its operators half
  // a second later with a short migration pause. A run with a failure
  // schedule keeps every latency sample, so this pins the exact
  // percentiles and the incident accounting.
  QueryGraph g;
  for (int k = 0; k < 3; ++k) {
    const InputStreamId in =
        g.AddInputStream(std::string("I").append(std::to_string(k)));
    const std::string f_name = std::string("f").append(std::to_string(k));
    auto f = g.AddOperator({.name = f_name,
                            .kind = OperatorKind::kFilter, .cost = 5e-4,
                            .selectivity = 0.8},
                           {StreamRef::Input(in)});
    ASSERT_TRUE(f.ok());
    const std::string m_name = std::string("m").append(std::to_string(k));
    ASSERT_TRUE(g.AddOperator({.name = m_name,
                               .kind = OperatorKind::kMap, .cost = 6e-4,
                               .selectivity = 1.0},
                              {StreamRef::Op(*f)})
                    .ok());
  }
  auto model = query::BuildLoadModel(g);
  ASSERT_TRUE(model.ok());
  FailureSchedule chaos;
  chaos.CrashAt(8.0, 1);
  Supervisor::Options sup_options;
  sup_options.detection_delay = 0.5;
  sup_options.migration_pause = 0.05;
  Supervisor supervisor(*model, sup_options);

  SimulationOptions options;
  options.duration = 20.0;
  options.failures = &chaos;
  options.recovery = &supervisor;
  const std::vector<trace::RateTrace> traces(3, ConstantTrace(300.0, 20.0));
  auto r = SimulatePlacement(g, Placement(3, {0, 1, 1, 2, 2, 0}),
                             SystemSpec::Homogeneous(3), traces, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());
  const IncidentReport& inc = *r->incident;
  ExpectCounts(*r, 64302, 17842, 14184, 0);
  EXPECT_EQ(inc.operators_moved, 2u);
  EXPECT_EQ(inc.lost_tuples, 245u);
  ExpectLatencies(*r, 0.0024299286362828073, 0.0021438764759484918,
                  0.0032622834494429372, 0.0040958131590026706,
                  0.0526844898618819);
  ExpectUtilization(*r, {0.38190999999997455, 0.1163250000000027,
                         0.37333499999994013});
  EXPECT_TRUE(inc.recovered);
  EXPECT_DOUBLE_EQ(inc.recovery_time, 0.0);
  EXPECT_DOUBLE_EQ(inc.post_recovery.p99, 0.0043775194520257778);
}

TEST(PinnedResultsTest, RestartBeforeACancelledCompletion) {
  // Node 1 runs a 50 ms operator x (stream S, 10/s) beside a 1 ms
  // operator y (stream T through a filter on node 0, ~100/s). It crashes
  // four times and recovers 2 ms after each crash, with no supervisor.
  // The crashes at 3, 9 and 12 s land in the middle of an x service and
  // cancel a completion that is still 15-48 ms away when the node comes
  // back, and the next tuple for y starts a new service before that time.
  // The node then has two completions pending at once: the new one takes
  // the node's completion slot in the event queue, and the cancelled one
  // spills into the queue's heap, where it still pops (counted as a
  // processed kNodeDone) and is discarded.
  QueryGraph g;
  const InputStreamId s = g.AddInputStream("S");
  const InputStreamId t = g.AddInputStream("T");
  ASSERT_TRUE(g.AddOperator({.name = "x", .kind = OperatorKind::kMap,
                             .cost = 0.05, .selectivity = 1.0},
                            {StreamRef::Input(s)})
                  .ok());
  auto f = g.AddOperator({.name = "f", .kind = OperatorKind::kFilter,
                          .cost = 2e-4, .selectivity = 0.9},
                         {StreamRef::Input(t)});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(g.AddOperator({.name = "y", .kind = OperatorKind::kMap,
                             .cost = 1e-3, .selectivity = 1.0},
                            {StreamRef::Op(*f)})
                  .ok());
  FailureSchedule chaos;
  for (double at : {3.0, 6.0, 9.0, 12.0}) {
    chaos.CrashAt(at, 1).RecoverAt(at + 0.002, 1);
  }
  SimulationOptions options;
  options.duration = 15.0;
  options.failures = &chaos;
  auto r = SimulatePlacement(
      g, Placement(2, {1, 0, 1}), SystemSpec::Homogeneous(2),
      {ConstantTrace(10.0, 15.0), ConstantTrace(110.0, 15.0)}, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->incident.has_value());
  const IncidentReport& inc = *r->incident;
  ExpectCounts(*r, 6337, 1732, 1556, 0);
  EXPECT_EQ(inc.lost_queued, 12u);
  EXPECT_EQ(inc.lost_inflight, 3u);
  EXPECT_EQ(inc.lost_tuples, 15u);
  ExpectLatencies(*r, 0.024821461768015668, 0.0038854712889961895,
                  0.086174874325280593, 0.1250746507291782,
                  0.15899206524818865);
  ExpectUtilization(*r, {0.021319999999988671, 0.52762738840814938});
}

}  // namespace
}  // namespace rod::sim
