// Wire-serialization tests for the cluster protocol payloads: every
// message type round-trips through Encode/Decode, the query graph ships
// losslessly inside a plan (specs, arcs, comm costs), and malformed
// payloads — truncation, trailing garbage, inconsistent sizes — are
// rejected with kInvalidArgument instead of being misparsed.

#include "cluster/wire.h"

#include <gtest/gtest.h>

#include <string>

#include "query/graph_gen.h"
#include "query/query_graph.h"

namespace rod::cluster {
namespace {

query::QueryGraph SmallGraph() {
  query::QueryGraph graph;
  const auto s0 = graph.AddInputStream("alpha");
  const auto s1 = graph.AddInputStream("beta");
  auto f = graph.AddOperator(
      {.name = "filter", .kind = query::OperatorKind::kFilter, .cost = 1e-4,
       .selectivity = 0.5},
      {query::StreamRef::Input(s0)});
  EXPECT_TRUE(f.ok());
  auto j = graph.AddOperator(
      {.name = "join",
       .kind = query::OperatorKind::kJoin,
       .cost = 2e-5,
       .selectivity = 0.01,
       .window = 1.5},
      {query::StreamRef::Op(*f), query::StreamRef::Input(s1)},
      {0.0, 3e-6});
  EXPECT_TRUE(j.ok());
  auto top = graph.AddOperator(
      {.name = "top",
       .kind = query::OperatorKind::kMap,
       .cost = 5e-5,
       .selectivity = 1.0,
       .variable_selectivity = true,
       .qos_weight = 2.0},
      {query::StreamRef::Op(*j)});
  EXPECT_TRUE(top.ok());
  return graph;
}

TEST(ClusterWireTest, HelloRoundTrip) {
  HelloMsg msg;
  msg.data_port = 40123;
  msg.http_port = 9102;
  msg.capacity = 0.75;
  msg.name = "rack1-w0";
  auto decoded = HelloMsg::Decode(msg.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->data_port, 40123);
  EXPECT_EQ(decoded->http_port, 9102);
  EXPECT_DOUBLE_EQ(decoded->capacity, 0.75);
  EXPECT_EQ(decoded->name, "rack1-w0");
}

TEST(ClusterWireTest, WelcomeAndStartRoundTrip) {
  WelcomeMsg welcome{3, 5, 0.125, 0.75};
  auto w = WelcomeMsg::Decode(welcome.Encode());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->worker_id, 3u);
  EXPECT_EQ(w->num_workers, 5u);
  EXPECT_DOUBLE_EQ(w->heartbeat_interval, 0.125);
  EXPECT_DOUBLE_EQ(w->heartbeat_timeout, 0.75);

  StartMsg start;
  start.duration = 12.5;
  start.tick_seconds = 0.02;
  start.seed = 0xfeedbeef;
  start.rates = {100.0, 250.5, 0.0};
  auto s = StartMsg::Decode(start.Encode());
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->duration, 12.5);
  EXPECT_EQ(s->seed, 0xfeedbeefu);
  EXPECT_EQ(s->rates, start.rates);
}

TEST(ClusterWireTest, PlanRoundTripPreservesGraphAndRouting) {
  PlanMsg plan;
  plan.version = 7;
  plan.graph = SmallGraph();
  plan.assignment = {0, 1, 1};
  plan.capacities = {1.0, 0.5};
  plan.endpoints = {{0, 41001}, {1, 41002}};
  plan.source_owner = {0, 1};

  auto decoded = PlanMsg::Decode(plan.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->assignment, plan.assignment);
  EXPECT_EQ(decoded->capacities, plan.capacities);
  EXPECT_EQ(decoded->source_owner, plan.source_owner);
  ASSERT_EQ(decoded->endpoints.size(), 2u);
  EXPECT_EQ(decoded->endpoints[1].data_port, 41002);

  const query::QueryGraph& graph = decoded->graph;
  ASSERT_EQ(graph.num_operators(), 3u);
  ASSERT_EQ(graph.num_input_streams(), 2u);
  EXPECT_EQ(graph.input_name(0), "alpha");
  EXPECT_EQ(graph.spec(0).name, "filter");
  EXPECT_DOUBLE_EQ(graph.spec(0).selectivity, 0.5);
  EXPECT_EQ(graph.spec(1).kind, query::OperatorKind::kJoin);
  EXPECT_DOUBLE_EQ(graph.spec(1).window, 1.5);
  EXPECT_TRUE(graph.spec(2).variable_selectivity);
  EXPECT_DOUBLE_EQ(graph.spec(2).qos_weight, 2.0);
  // The join's second arc came from input stream 1 with a comm cost.
  const auto& arcs = graph.inputs_of(1);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].from, query::StreamRef::Op(0));
  EXPECT_EQ(arcs[1].from, query::StreamRef::Input(1));
  EXPECT_DOUBLE_EQ(arcs[1].comm_cost, 3e-6);
}

TEST(ClusterWireTest, GeneratedGraphSurvivesTheWire) {
  // The paper's random-trees workload is what real runs ship; encode the
  // whole thing and verify structural equality.
  query::GraphGenOptions options;
  options.num_input_streams = 4;
  options.ops_per_tree = 8;
  Rng rng(21);
  const query::QueryGraph graph = query::GenerateRandomTrees(options, rng);

  WireWriter w;
  EncodeQueryGraph(graph, w);
  WireReader r(w.str());
  auto decoded = DecodeQueryGraph(r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(r.AtEnd());

  ASSERT_EQ(decoded->num_operators(), graph.num_operators());
  ASSERT_EQ(decoded->num_input_streams(), graph.num_input_streams());
  for (size_t j = 0; j < graph.num_operators(); ++j) {
    EXPECT_EQ(decoded->spec(j).name, graph.spec(j).name);
    EXPECT_EQ(decoded->spec(j).kind, graph.spec(j).kind);
    EXPECT_DOUBLE_EQ(decoded->spec(j).cost, graph.spec(j).cost);
    EXPECT_DOUBLE_EQ(decoded->spec(j).selectivity, graph.spec(j).selectivity);
    ASSERT_EQ(decoded->inputs_of(j).size(), graph.inputs_of(j).size());
    for (size_t a = 0; a < graph.inputs_of(j).size(); ++a) {
      EXPECT_EQ(decoded->inputs_of(j)[a].from, graph.inputs_of(j)[a].from);
    }
  }
}

/// Bytes of the heartbeat's fixed fields: worker_id through queue_depth.
constexpr size_t kHeartbeatFixedBytes = 4 + 8 + 8 + 8 + 8;

TEST(ClusterWireTest, HeartbeatRoundTripWithLoads) {
  HeartbeatMsg hb;
  hb.worker_id = 2;
  hb.seq = 41;
  hb.uptime_seconds = 3.25;
  hb.plan_version = 9;
  hb.queue_depth = 17;
  hb.loads = {{0, 500, 0.05}, {4, 400, 0.04}};

  const std::string payload = hb.Encode();
  // Liveness, plan version, queue depth and loads only: no counter block.
  EXPECT_EQ(payload.size(), kHeartbeatFixedBytes + 4 + 2 * (4 + 8 + 8));
  auto decoded = HeartbeatMsg::Decode(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->worker_id, 2u);
  EXPECT_EQ(decoded->seq, 41u);
  EXPECT_DOUBLE_EQ(decoded->uptime_seconds, 3.25);
  EXPECT_EQ(decoded->plan_version, 9u);
  EXPECT_EQ(decoded->queue_depth, 17u);
  ASSERT_EQ(decoded->loads.size(), 2u);
  EXPECT_EQ(decoded->loads[1].op, 4u);
  EXPECT_EQ(decoded->loads[1].processed, 400u);
  EXPECT_DOUBLE_EQ(decoded->loads[1].busy_seconds, 0.04);
}

TEST(ClusterWireTest, OldLayoutHeartbeatIsRejected) {
  // Frame version 1 carried a 104-byte cumulative counter block between
  // queue_depth and the loads. Such a payload must fail to decode, not
  // be misread as loads.
  HeartbeatMsg hb;
  hb.worker_id = 2;
  hb.loads = {{0, 500, 0.05}};
  const std::string current = hb.Encode();
  WireWriter block;
  for (uint64_t i = 0; i < 9; ++i) block.U64(1000 + i);  // Tuple counts.
  for (int i = 0; i < 3; ++i) block.F64(0.5);  // Busy, latency sum/max.
  block.U64(890);                              // Latency count.
  ASSERT_EQ(block.str().size(), 104u);
  const std::string old_layout = current.substr(0, kHeartbeatFixedBytes) +
                                 block.str() +
                                 current.substr(kHeartbeatFixedBytes);
  EXPECT_EQ(HeartbeatMsg::Decode(old_layout).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterWireTest, TuplePauseDiffRoundTrips) {
  TupleBatchMsg batch{12, 1, 64, 3, 2.75};
  auto b = TupleBatchMsg::Decode(batch.Encode());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->to_op, 12u);
  EXPECT_EQ(b->to_port, 1u);
  EXPECT_EQ(b->count, 64u);
  EXPECT_EQ(b->from_worker, 3u);
  EXPECT_DOUBLE_EQ(b->create_time, 2.75);

  PauseMsg pause;
  pause.plan_version = 4;
  pause.ops = {1, 5, 9};
  auto p = PauseMsg::Decode(pause.Encode());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->plan_version, 4u);
  EXPECT_EQ(p->ops, pause.ops);

  PlanDiffMsg diff;
  diff.version = 5;
  diff.moves = {{1, 2, 0}, {5, 2, 1}};
  auto d = PlanDiffMsg::Decode(diff.Encode());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->version, 5u);
  ASSERT_EQ(d->moves.size(), 2u);
  EXPECT_EQ(d->moves[1].op, 5u);
  EXPECT_EQ(d->moves[1].from_worker, 2u);
  EXPECT_EQ(d->moves[1].to_worker, 1u);
}

TEST(ClusterWireTest, TupleBatchCarriesSendTime) {
  TupleBatchMsg batch{12, 1, 64, 3, 2.75};
  batch.send_time_us = 123456.5;
  auto b = TupleBatchMsg::Decode(batch.Encode());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(b->send_time_us, 123456.5);
  // Default encodes as the unstamped sentinel.
  auto unstamped = TupleBatchMsg::Decode(TupleBatchMsg{}.Encode());
  ASSERT_TRUE(unstamped.ok());
  EXPECT_DOUBLE_EQ(unstamped->send_time_us, 0.0);
}

TEST(ClusterWireTest, PingPongRoundTrip) {
  PingMsg ping{42, 1e6};
  auto p = PingMsg::Decode(ping.Encode());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->seq, 42u);
  EXPECT_DOUBLE_EQ(p->t1_us, 1e6);

  PongMsg pong;
  pong.seq = 42;
  pong.worker_id = 2;
  pong.t1_us = 1e6;
  pong.t2_us = 5e5;
  pong.t3_us = 5e5 + 30.0;
  auto q = PongMsg::Decode(pong.Encode());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->seq, 42u);
  EXPECT_EQ(q->worker_id, 2u);
  EXPECT_DOUBLE_EQ(q->t1_us, 1e6);
  EXPECT_DOUBLE_EQ(q->t2_us, 5e5);
  EXPECT_DOUBLE_EQ(q->t3_us, 5e5 + 30.0);
}

TEST(ClusterWireTest, StatsReportRoundTrip) {
  StatsReportMsg report;
  report.worker_id = 1;
  report.counters = {{"cluster.batches_received", 17},
                     {"engine.tuples", 123456}};
  report.gauges = {{"cluster.clock_offset_us", -250.5}};
  StatsReportMsg::HistogramState h;
  h.name = "cluster.ship_latency_us";
  h.count = 3;
  h.sum = 900.0;
  h.min = 100.0;
  h.max = 500.0;
  h.buckets = {{128.0, 1}, {512.0, 2}};
  report.histograms.push_back(h);

  auto r = StatsReportMsg::Decode(report.Encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->worker_id, 1u);
  EXPECT_EQ(r->counters, report.counters);
  EXPECT_EQ(r->gauges, report.gauges);
  ASSERT_EQ(r->histograms.size(), 1u);
  EXPECT_EQ(r->histograms[0].name, "cluster.ship_latency_us");
  EXPECT_EQ(r->histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(r->histograms[0].sum, 900.0);
  EXPECT_DOUBLE_EQ(r->histograms[0].min, 100.0);
  EXPECT_DOUBLE_EQ(r->histograms[0].max, 500.0);
  EXPECT_EQ(r->histograms[0].buckets, h.buckets);

  // An empty delta is a valid payload: the kFinalStats reply is sent even
  // when nothing changed since the last report.
  StatsReportMsg empty;
  empty.worker_id = 2;
  auto e = StatsReportMsg::Decode(empty.Encode());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->worker_id, 2u);
  EXPECT_TRUE(e->counters.empty() && e->gauges.empty() &&
              e->histograms.empty());
}

TEST(ClusterWireTest, ClockSyncFreezeFrozenRoundTrips) {
  ClockSyncMsg sync;
  sync.entries = {{0, -120.25, 60.0}, {1, 310.0, 42.5}};
  auto s = ClockSyncMsg::Decode(sync.Encode());
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->entries.size(), 2u);
  EXPECT_EQ(s->entries[1].worker_id, 1u);
  EXPECT_DOUBLE_EQ(s->entries[1].offset_us, 310.0);
  EXPECT_DOUBLE_EQ(s->entries[0].rtt_us, 60.0);

  FreezeMsg freeze;
  freeze.incident_id = 7;
  freeze.kind = "cluster.worker_failure";
  freeze.detail = "w1 missed heartbeats";
  auto fr = FreezeMsg::Decode(freeze.Encode());
  ASSERT_TRUE(fr.ok());
  EXPECT_EQ(fr->incident_id, 7u);
  EXPECT_EQ(fr->kind, freeze.kind);
  EXPECT_EQ(fr->detail, freeze.detail);

  FrozenReportMsg frozen;
  frozen.incident_id = 7;
  frozen.worker_id = 2;
  frozen.incident_json = "{\"kind\": \"cluster.worker_failure\"}";
  auto fz = FrozenReportMsg::Decode(frozen.Encode());
  ASSERT_TRUE(fz.ok());
  EXPECT_EQ(fz->incident_id, 7u);
  EXPECT_EQ(fz->worker_id, 2u);
  EXPECT_EQ(fz->incident_json, frozen.incident_json);
}

TEST(ClusterWireTest, TruncatedPayloadIsRejected) {
  HelloMsg msg;
  msg.name = "truncate-me";
  std::string payload = msg.Encode();
  payload.resize(payload.size() / 2);
  EXPECT_EQ(HelloMsg::Decode(payload).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterWireTest, TrailingGarbageIsRejected) {
  WelcomeMsg msg;
  std::string payload = msg.Encode() + "extra";
  EXPECT_EQ(WelcomeMsg::Decode(payload).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterWireTest, PlanWithInconsistentAssignmentIsRejected) {
  PlanMsg plan;
  plan.graph = SmallGraph();       // 3 operators.
  plan.assignment = {0, 1};        // Wrong arity.
  plan.capacities = {1.0, 1.0};
  plan.source_owner = {0, 0};
  EXPECT_EQ(PlanMsg::Decode(plan.Encode()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ClusterWireTest, ReaderLatchesOutOfBoundsAndReports) {
  WireWriter w;
  w.U32(7);
  WireReader r(w.str());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.U64(), 0u);  // Out of bounds: latches failure, returns 0.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rod::cluster
