// Tests for node scheduling disciplines (FIFO vs round-robin) — unit
// behaviour of SimNode and the end-to-end latency isolation property.

#include <gtest/gtest.h>

#include "runtime/engine.h"
#include "runtime/node.h"

namespace rod::sim {
namespace {

Task MakeTask(uint32_t op, double origin = 0.0) {
  Task t;
  t.op = op;
  t.origin = origin;
  return t;
}

TEST(SimNodeTest, FifoServesInArrivalOrder) {
  SimNode node(1.0, Scheduling::kFifo);
  node.Enqueue(MakeTask(7, 1.0));
  node.Enqueue(MakeTask(7, 2.0));
  node.Enqueue(MakeTask(9, 3.0));
  EXPECT_EQ(node.queue_length(), 3u);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 1.0);
  node.FinishService(0.1);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 2.0);
  node.FinishService(0.1);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 3.0);
  node.FinishService(0.1);
  EXPECT_EQ(node.queue_length(), 0u);
  EXPECT_EQ(node.tasks_processed(), 3u);
  EXPECT_NEAR(node.busy_time(), 0.3, 1e-12);
}

TEST(SimNodeTest, RoundRobinAlternatesOperators) {
  SimNode node(1.0, Scheduling::kRoundRobin);
  // Operator 1 floods, operator 2 has one task.
  node.Enqueue(MakeTask(1, 1.0));
  node.Enqueue(MakeTask(1, 2.0));
  node.Enqueue(MakeTask(1, 3.0));
  node.Enqueue(MakeTask(2, 4.0));
  // Service order: op1(1.0) -> op2(4.0) -> op1(2.0) -> op1(3.0).
  EXPECT_EQ(node.StartService().op, 1u);
  node.FinishService(0.0);
  const Task second = node.StartService();
  EXPECT_EQ(second.op, 2u);
  EXPECT_DOUBLE_EQ(second.origin, 4.0);
  node.FinishService(0.0);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 2.0);
  node.FinishService(0.0);
  EXPECT_DOUBLE_EQ(node.StartService().origin, 3.0);
  node.FinishService(0.0);
  EXPECT_FALSE(node.CanStart());
}

TEST(SimNodeTest, RoundRobinHandlesArrivalDuringService) {
  SimNode node(1.0, Scheduling::kRoundRobin);
  node.Enqueue(MakeTask(1, 1.0));
  EXPECT_EQ(node.StartService().op, 1u);
  node.Enqueue(MakeTask(2, 2.0));
  node.Enqueue(MakeTask(1, 3.0));
  node.FinishService(0.5);
  // op 2 entered the rotation when op 1's bucket was empty; op 1 rejoined
  // behind it.
  EXPECT_EQ(node.StartService().op, 2u);
  node.FinishService(0.5);
  EXPECT_EQ(node.StartService().op, 1u);
}

TEST(SimNodeTest, QosWeightedOverflowPicksTheFirstCheapestTuple) {
  // Drop weights by operator: 0 and 2 weigh 1, 1 weighs 2. At capacity,
  // an arrival that weighs no more than the cheapest queued tuple is
  // rejected; a heavier one evicts the first cheapest tuple: FIFO, the
  // oldest; round-robin, the front of the lowest-id cheapest bucket.
  const double weights[] = {1.0, 2.0, 1.0};
  const QueueBound bound{.capacity = 4,
                         .policy = OverflowPolicy::kQosWeighted};
  Rng rng(1);
  for (const Scheduling scheduling :
       {Scheduling::kFifo, Scheduling::kRoundRobin}) {
    SimNode node(1.0, scheduling);
    node.ConfigureOverflow(bound, weights, 3);
    node.Enqueue(MakeTask(1, 1.0));
    node.Enqueue(MakeTask(2, 2.0));
    node.Enqueue(MakeTask(Task::kCommTask, 3.0));  // Never a victim.
    node.Enqueue(MakeTask(0, 4.0));
    node.Enqueue(MakeTask(2, 5.0));
    ASSERT_EQ(node.tuple_queue_length(), 4u);

    const SimNode::EnqueueOutcome tie = node.EnqueueBounded(MakeTask(0), rng);
    EXPECT_FALSE(tie.accepted);
    EXPECT_FALSE(tie.evicted);

    const SimNode::EnqueueOutcome heavy =
        node.EnqueueBounded(MakeTask(1, 6.0), rng);
    EXPECT_TRUE(heavy.accepted);
    ASSERT_TRUE(heavy.evicted);
    const bool fifo = scheduling == Scheduling::kFifo;
    EXPECT_EQ(heavy.victim.op, fifo ? 2u : 0u);
    EXPECT_DOUBLE_EQ(heavy.victim.origin, fifo ? 2.0 : 4.0);
    EXPECT_EQ(node.tuple_queue_length(), 4u);
  }
}

TEST(SimNodeTest, BusyBlocksStart) {
  SimNode node(2.0);
  node.Enqueue(MakeTask(0));
  node.Enqueue(MakeTask(0));
  EXPECT_TRUE(node.CanStart());
  (void)node.StartService();
  EXPECT_TRUE(node.busy());
  EXPECT_FALSE(node.CanStart());  // still serving
  node.FinishService(0.1);
  EXPECT_TRUE(node.CanStart());
}

TEST(SimNodeTest, ServiceTimeScalesWithCapacity) {
  SimNode fast(4.0);
  SimNode slow(0.5);
  EXPECT_DOUBLE_EQ(fast.ServiceTime(1.0), 0.25);
  EXPECT_DOUBLE_EQ(slow.ServiceTime(1.0), 2.0);
}

// End-to-end: a cheap low-rate query sharing a node with an expensive
// high-rate one keeps a low latency under round-robin but not under FIFO.
TEST(SchedulingTest, RoundRobinIsolatesCheapPath) {
  query::QueryGraph g;
  const auto heavy_in = g.AddInputStream("heavy");
  const auto light_in = g.AddInputStream("light");
  ASSERT_TRUE(g.AddOperator({.name = "heavy",
                             .kind = query::OperatorKind::kMap,
                             .cost = 8e-3},
                            {query::StreamRef::Input(heavy_in)})
                  .ok());
  ASSERT_TRUE(g.AddOperator({.name = "light",
                             .kind = query::OperatorKind::kMap,
                             .cost = 1e-4},
                            {query::StreamRef::Input(light_in)})
                  .ok());
  const place::SystemSpec system = place::SystemSpec::Homogeneous(1);
  const place::Placement plan(1, {0, 0});

  auto make_traces = [] {
    trace::RateTrace heavy;
    heavy.window_sec = 30.0;
    heavy.rates = {110.0};  // rho ~ 0.88: long queue at the heavy op
    trace::RateTrace light = heavy;
    light.rates = {20.0};
    return std::vector<trace::RateTrace>{heavy, light};
  };

  SimulationOptions fifo;
  fifo.duration = 30.0;
  fifo.scheduling = Scheduling::kFifo;
  SimulationOptions rr = fifo;
  rr.scheduling = Scheduling::kRoundRobin;

  auto fifo_run = SimulatePlacement(g, plan, system, make_traces(), fifo);
  auto rr_run = SimulatePlacement(g, plan, system, make_traces(), rr);
  ASSERT_TRUE(fifo_run.ok() && rr_run.ok());
  // Same offered load either way.
  EXPECT_NEAR(fifo_run->max_node_utilization, rr_run->max_node_utilization,
              0.05);
  // Compare the *light sink's* median latency (operator id 1): under FIFO
  // its tuples wait behind the heavy operator's queue; under round-robin
  // they wait at most one heavy service.
  auto sink_p50 = [](const SimulationResult& r, uint32_t op) {
    for (const SinkLatency& s : r.sink_latencies) {
      if (s.sink_op == op) return s.p50;
    }
    ADD_FAILURE() << "sink " << op << " missing";
    return 0.0;
  };
  EXPECT_LT(sink_p50(*rr_run, 1), 0.5 * sink_p50(*fifo_run, 1));
  // The heavy sink's latency is queue-bound either way.
  EXPECT_NEAR(sink_p50(*rr_run, 0), sink_p50(*fifo_run, 0),
              0.6 * sink_p50(*fifo_run, 0));
}

}  // namespace
}  // namespace rod::sim
