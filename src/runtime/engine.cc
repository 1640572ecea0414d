#include "runtime/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common/stats.h"
#include "runtime/event_queue.h"
#include "runtime/metrics.h"
#include "runtime/node.h"
#include "runtime/workload_driver.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"
#include "trace/store/replay.h"

namespace rod::sim {

namespace {

/// Sender id used where a parked delivery has no upstream node to stall
/// (external arrivals, migration replays, orphan re-homing).
constexpr uint32_t kNoUpstream = UINT32_MAX;

/// Latency samples kept per series by the fixed-memory streaming summary
/// (a deterministic reservoir; mean and max stay exact).
constexpr size_t kLatencyReservoir = 8192;

/// Tuples travelling between nodes, stored as columnar batches (constant
/// network latency makes the delivery order FIFO, so queues suffice).
/// Structure-of-arrays: one FIFO column per tuple field, popped in
/// lockstep, plus a per-event column giving how many tuples ride each
/// kNetworkDelivery event on the event queue's in-order lane; that event
/// carries the batch's delivery instant. The destination node is
/// resolved at *delivery* time: a supervisor may re-home the target
/// operator while the tuple is on the wire.
struct TupleBatchQueue {
  FifoBuffer<uint32_t> from;      ///< Sending node (backpressure stalls it).
  FifoBuffer<uint32_t> op;        ///< Destination operator.
  FifoBuffer<uint32_t> port;      ///< Destination input port.
  FifoBuffer<double> origin;      ///< Source timestamp (latency accounting).
  FifoBuffer<double> extra_cost;  ///< Receive-side comm overhead.
  FifoBuffer<uint32_t> counts;    ///< Tuples per kNetworkDelivery event.

  bool empty() const { return from.empty(); }

  void clear() {
    from.clear();
    op.clear();
    port.clear();
    origin.clear();
    extra_cost.clear();
    counts.clear();
  }

  void PushTuple(uint32_t sender, const Task& task) {
    from.push_back(sender);
    op.push_back(task.op);
    port.push_back(task.port);
    origin.push_back(task.origin);
    extra_cost.push_back(task.extra_cost);
  }

  /// Pops the front tuple into (task, sender) form.
  Task PopTuple(uint32_t& sender) {
    Task task;
    task.op = op.front();
    task.port = port.front();
    task.origin = origin.front();
    task.extra_cost = extra_cost.front();
    sender = from.front();
    from.pop_front();
    op.pop_front();
    port.pop_front();
    origin.pop_front();
    extra_cost.pop_front();
    return task;
  }
};

/// A delivery parked at a congested node until its queue drains.
struct HeldDelivery {
  uint32_t from = kNoUpstream;
  Task task;
};

/// Binomial(n, p) sample; exact Bernoulli loop for small n, normal
/// approximation beyond (join probe counts can reach thousands).
uint64_t SampleBinomial(uint64_t n, double p, Rng& rng) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    uint64_t k = 0;
    for (uint64_t i = 0; i < n; ++i) k += rng.Bernoulli(p) ? 1 : 0;
    return k;
  }
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  const double draw = std::round(rng.Normal(mean, sd));
  return static_cast<uint64_t>(std::clamp(draw, 0.0, static_cast<double>(n)));
}

/// Emission count of a non-join operator with `selectivity` s >= 0:
/// floor(s) guaranteed outputs plus one more with probability frac(s).
uint64_t SampleEmissions(double selectivity, Rng& rng) {
  const double whole = std::floor(selectivity);
  const double frac = selectivity - whole;
  return static_cast<uint64_t>(whole) + (rng.Bernoulli(frac) ? 1 : 0);
}

/// In-flight service bookkeeping per node.
struct InFlight {
  Task task;
  double start = 0.0;
  double service = 0.0;
  uint64_t probes = 0;  ///< Join pairings counted at service start.
};

/// Percentile summary of one incident phase's latency samples; `scratch`
/// holds the sorted copy (reused across phases, no per-phase vectors).
PhaseLatency SummarizePhase(std::span<const double> samples,
                            std::vector<double>& scratch) {
  PhaseLatency p;
  p.outputs = samples.size();
  if (samples.empty()) return p;
  scratch.assign(samples.begin(), samples.end());
  std::sort(scratch.begin(), scratch.end());
  double sum = 0.0;
  for (double x : scratch) sum += x;
  p.mean = sum / static_cast<double>(scratch.size());
  p.p50 = QuantileOfSorted(scratch, 0.50);
  p.p95 = QuantileOfSorted(scratch, 0.95);
  p.p99 = QuantileOfSorted(scratch, 0.99);
  return p;
}

/// Per-run mutable state, pooled so repeated Simulate() calls (feasibility
/// probes, sweeps) reuse warmed-up allocations instead of rebuilding every
/// vector from scratch. One workspace per thread; a re-entrant call on the
/// same thread (defensive — recovery agents do not simulate) falls back to
/// a heap-allocated scratch workspace.
struct EngineWorkspace {
  bool in_use = false;

  Deployment dep;  ///< Working copy of the routing tables.
  std::vector<Rng> input_rngs;
  std::vector<std::unique_ptr<ArrivalGenerator>> arrivals;
  std::vector<SimNode> nodes;
  std::vector<InFlight> inflight;
  std::vector<std::array<FifoBuffer<double>, 2>> join_state;
  std::vector<char> node_up;
  std::vector<uint64_t> service_token;
  std::vector<double> paused_until;
  std::vector<std::vector<Task>> migration_buffer;
  std::vector<Task> release_scratch;  ///< Replay staging, kMigrationRelease.

  // Overload machinery (bounded queues / backpressure / control loop).
  std::vector<double> drop_weights;    ///< Per-op, borrowed by the nodes.
  std::vector<char> congested;         ///< Per-node backpressure state.
  std::vector<double> congested_since;
  std::vector<std::vector<HeldDelivery>> bp_held;  ///< Parked deliveries.
  std::vector<HeldDelivery> bp_release_scratch;
  std::vector<char> bp_blocked;       ///< [from * nodes + to] stall edges.
  std::vector<uint32_t> stall_refs;   ///< Congested downstreams per node.
  std::vector<char> source_stalled;   ///< Per input stream.
  std::vector<double> source_stall_since;
  std::vector<double> source_held_origin;
  std::vector<char> arrival_live;     ///< Arrival event in flight per stream.
  std::vector<uint64_t> window_arrivals;  ///< Arrivals since detector tick.

  EventQueue events;
  TupleBatchQueue network;
  std::vector<SimulationResult::OperatorStats> op_stats;
  std::vector<double> phase_scratch;  ///< SummarizePhase sort buffer.
};

class WorkspaceLease {
 public:
  WorkspaceLease() {
    thread_local EngineWorkspace tls;
    if (tls.in_use) {
      owned_ = std::make_unique<EngineWorkspace>();
      ws_ = owned_.get();
    } else {
      ws_ = &tls;
    }
    ws_->in_use = true;
  }
  ~WorkspaceLease() { ws_->in_use = false; }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  EngineWorkspace& operator*() const { return *ws_; }
  EngineWorkspace* operator->() const { return ws_; }

 private:
  EngineWorkspace* ws_ = nullptr;
  std::unique_ptr<EngineWorkspace> owned_;
};

}  // namespace

Result<SimulationResult> Simulate(const Deployment& deployment,
                                  const std::vector<trace::RateTrace>& inputs,
                                  const SimulationOptions& options) {
  if (inputs.size() != deployment.num_inputs()) {
    return Status::InvalidArgument("one rate trace per input stream required");
  }
  if (options.duration <= 0.0 || options.utilization_window <= 0.0) {
    return Status::InvalidArgument("duration and window must be positive");
  }
  if (options.warmup < 0.0 || options.warmup >= options.duration) {
    return Status::InvalidArgument("warmup must lie in [0, duration)");
  }
  if (options.failures) {
    ROD_RETURN_IF_ERROR(
        options.failures->Validate(deployment.num_nodes(), inputs.size()));
  }
  if (options.replay != nullptr) {
    if (options.replay->num_streams() != inputs.size()) {
      return Status::InvalidArgument(
          "replay set has " + std::to_string(options.replay->num_streams()) +
          " feeds; deployment has " + std::to_string(inputs.size()) +
          " input streams");
    }
    if (options.failures) {
      for (const FaultEvent& fault : options.failures->events()) {
        if (fault.kind == FaultKind::kLoadSpike) {
          return Status::InvalidArgument(
              "load-spike faults rescale the synthetic generator and cannot "
              "apply to a recorded trace; record the spiked arrivals instead");
        }
      }
    }
  }
  if (options.backpressure.enabled && options.backpressure.high_water == 0) {
    return Status::InvalidArgument("backpressure high_water must be positive");
  }
  if (options.overload.enabled && (options.overload.check_interval <= 0.0 ||
                                   options.overload.queue_high_water == 0)) {
    return Status::InvalidArgument(
        "overload detector needs a positive check_interval and high water");
  }
  // Read once: each crash schedules its detection this long after `now`,
  // and an event scheduled before `now` would run the clock backwards.
  const double detection_delay =
      options.recovery != nullptr ? options.recovery->detection_delay() : 0.0;
  if (!(std::isfinite(detection_delay) && detection_delay >= 0.0)) {
    return Status::InvalidArgument(
        "recovery detection_delay must be finite and non-negative");
  }

  // Telemetry is observation-only: it never draws from the run's random
  // streams and never branches the simulation, so results are bit-exact
  // with `tel` attached or null.
  telemetry::Telemetry* const tel = options.telemetry;
  telemetry::FlightRecorder* const recorder = options.flight_recorder;
  telemetry::TraceSpan setup_span(tel, "engine", "setup");

  WorkspaceLease lease;
  EngineWorkspace& ws = *lease;

  // Working copy of the routing tables: supervised recovery re-homes
  // operators in place mid-run (ReassignOperators). Copy-assignment into
  // the pooled copy reuses its vector capacity.
  ws.dep = deployment;
  Deployment& dep = ws.dep;
  const size_t num_nodes = dep.num_nodes();
  const size_t num_ops = dep.ops.size();

  Rng master(options.seed);
  ws.input_rngs.clear();
  ws.input_rngs.reserve(inputs.size());
  ws.arrivals.clear();
  for (size_t k = 0; k < inputs.size(); ++k) {
    ws.input_rngs.push_back(master.Fork());
  }
  for (size_t k = 0; k < inputs.size(); ++k) {
    ws.arrivals.push_back(std::make_unique<ArrivalGenerator>(
        inputs[k], options.poisson_arrivals, &ws.input_rngs[k]));
  }
  auto& arrivals = ws.arrivals;
  Rng emission_rng = master.Fork();

  // Arrival source: recorded feeds when options.replay is set, otherwise
  // the synthetic generators above. The input RNGs are forked either way
  // (replay feeds never draw from them), so `emission_rng` and everything
  // after it see identical random streams in both modes. A replay instant
  // is clamped to `now`: after a backpressure stall releases a source,
  // recorded arrivals that fell due during the stall are delivered at the
  // release instant rather than in the past.
  trace::store::ReplaySet* const replay = options.replay;
  auto next_arrival = [&](uint32_t k, double now) -> double {
    if (replay != nullptr) {
      return std::max(replay->feed(k).NextArrival(), now);
    }
    return arrivals[k]->NextArrival(now);
  };

  while (ws.nodes.size() < num_nodes) {
    ws.nodes.emplace_back(1.0, options.scheduling);
  }
  ws.nodes.erase(ws.nodes.begin() + static_cast<ptrdiff_t>(num_nodes),
                 ws.nodes.end());
  for (size_t i = 0; i < num_nodes; ++i) {
    ws.nodes[i].Reset(dep.system.capacities[i], options.scheduling);
  }
  auto& nodes = ws.nodes;
  const bool bounded = options.queue_bound.capacity > 0;
  if (bounded) {
    ws.drop_weights.resize(num_ops);
    for (size_t j = 0; j < num_ops; ++j) {
      ws.drop_weights[j] = dep.ops[j].drop_weight;
    }
    for (size_t i = 0; i < num_nodes; ++i) {
      nodes[i].ConfigureOverflow(options.queue_bound, ws.drop_weights.data(),
                                 num_ops);
    }
  }
  ws.inflight.assign(num_nodes, InFlight{});
  auto& inflight = ws.inflight;

  // Join window buffers: per operator, per port, timestamps of buffered
  // tuples (empty for non-joins). Indexed by operator id, so the state
  // survives a supervised migration — the pause models its transfer.
  ws.join_state.resize(num_ops);
  for (auto& state : ws.join_state) {
    state[0].clear();
    state[1].clear();
  }
  auto& join_state = ws.join_state;

  // Chaos state: node liveness, per-node service tokens (a crash bumps the
  // token so the stale completion event is ignored), migration pauses.
  ws.node_up.assign(num_nodes, 1);
  ws.service_token.assign(num_nodes, 0);
  ws.paused_until.assign(num_ops, 0.0);
  ws.migration_buffer.resize(num_ops);
  for (auto& held : ws.migration_buffer) held.clear();
  auto& node_up = ws.node_up;
  auto& service_token = ws.service_token;
  auto& paused_until = ws.paused_until;
  auto& migration_buffer = ws.migration_buffer;
  bool shed_during_pause = false;
  IncidentReport incident;
  bool have_incident = false;

  // Backpressure and overload-control state. All of it is inert — never
  // branched into, no RNG draws — unless the corresponding knob is on, so
  // default runs stay bit-exact with previous releases.
  const bool bp_on = options.backpressure.enabled;
  const bool oc_on = options.overload.enabled;
  const size_t bp_low = options.backpressure.low_water > 0
                            ? options.backpressure.low_water
                            : options.backpressure.high_water / 2;
  const size_t oc_clear = options.overload.clear_low_water > 0
                              ? options.overload.clear_low_water
                              : options.overload.queue_high_water / 4;
  ws.congested.assign(num_nodes, 0);
  ws.congested_since.assign(num_nodes, 0.0);
  ws.bp_held.resize(num_nodes);
  for (auto& held : ws.bp_held) held.clear();
  ws.bp_blocked.assign(num_nodes * num_nodes, 0);
  ws.stall_refs.assign(num_nodes, 0);
  ws.source_stalled.assign(inputs.size(), 0);
  ws.source_stall_since.assign(inputs.size(), 0.0);
  ws.source_held_origin.assign(inputs.size(), 0.0);
  ws.arrival_live.assign(inputs.size(), 0);
  ws.window_arrivals.assign(inputs.size(), 0);
  auto& congested = ws.congested;
  auto& stall_refs = ws.stall_refs;
  auto& source_stalled = ws.source_stalled;
  SimulationResult::OverloadStats ov;
  double oc_breach_since = -1.0;   ///< Breach latch (hysteresis): >= 0 on.
  double oc_last_consult = -1e300;
  double active_shed = 0.0;        ///< Control-directed source drop rate.
  bool overload_signalled = false;
  double recent_latency_max = 0.0;
  // Overflow eviction and directive shedding draw from a control stream
  // derived by constant mixing — never an extra master.Fork() — so runs
  // without those features keep their historical random streams.
  Rng control_rng(options.seed ^ 0x0ddba11c0ffee5ULL);

  // Latency collection: fixed-memory streaming summary on the hot path;
  // exact store-all mode for incident analysis (the phase split needs the
  // full timed series).
  LatencyStatsOptions lat_opts;
  if (options.failures == nullptr) {
    lat_opts.reservoir = kLatencyReservoir;
    // Independent of the run's random streams: derived by constant
    // mixing, never by drawing from `master`.
    lat_opts.seed = options.seed ^ 0x5ca1ab1e0ddba11ULL;
  }
  MetricsCollector metrics(num_nodes, options.utilization_window,
                           options.duration, lat_opts);

  ws.events.Clear();
  // Unconditional: the pooled queue must not keep a stale sink across runs.
  ws.events.set_telemetry(tel);
  ws.events.Reserve(2 * num_nodes + inputs.size() + 64);
  EventQueue& events = ws.events;
  ws.network.clear();
  auto& network = ws.network;
  // Delivery batching (see SimulationOptions::batch_size): tuples pushed
  // back-to-back for the same arrival instant share one kNetworkDelivery
  // event. A batch stays open only while (a) it has room, (b) the next
  // tuple lands at exactly its instant, and (c) the queue's sequence
  // counter has not moved since the batch's event was pushed — (c) proves
  // no other event was scheduled in between, so the batched tuples would
  // have popped consecutively in the one-event-per-tuple engine anyway,
  // and (a)+(b)+(c) together make every batch size bit-exact. Once the
  // batch event pops, time has reached its instant and new deliveries
  // land strictly later (latency > 0), so a stale open batch can never
  // be matched again.
  const size_t batch_limit = std::max<size_t>(1, options.batch_size);
  double open_batch_time = 0.0;
  uint64_t open_batch_seq = 0;
  size_t open_batch_count = 0;
  ws.op_stats.assign(num_ops, SimulationResult::OperatorStats{});
  auto& op_stats = ws.op_stats;
  size_t shed_count = 0;
  size_t warmup_outputs = 0;

  // Seed the first arrival of each input.
  for (uint32_t k = 0; k < inputs.size(); ++k) {
    const double t = next_arrival(k, 0.0);
    if (std::isfinite(t) && t <= options.duration) {
      events.Push(t, EventType::kExternalArrival, k);
      ws.arrival_live[k] = 1;
    }
  }
  // Schedule the fault script.
  if (options.failures) {
    const auto& faults = options.failures->events();
    for (uint32_t i = 0; i < faults.size(); ++i) {
      if (faults[i].time <= options.duration) {
        events.Push(faults[i].time, EventType::kFault, i);
      }
    }
  }
  // First overload-detector sample.
  if (oc_on && options.overload.check_interval <= options.duration) {
    events.Push(options.overload.check_interval, EventType::kOverloadCheck, 0);
  }

  // Starts service on `node` if it is up, unstalled, and idle with work
  // queued. A node with a congested downstream (stall_refs > 0) holds its
  // queue instead of producing into the congestion.
  auto try_start = [&](uint32_t node_id, double now) {
    SimNode& node = nodes[node_id];
    if (!node_up[node_id] || stall_refs[node_id] > 0 || !node.CanStart()) {
      return;
    }
    InFlight fl;
    fl.task = node.StartService();
    fl.start = now;
    double cpu = fl.task.extra_cost;
    if (fl.task.op != Task::kCommTask) {
      const CompiledOp& op = dep.ops[fl.task.op];
      if (op.is_join) {
        auto& state = join_state[fl.task.op];
        auto& mine = state[fl.task.port & 1];
        auto& other = state[1 - (fl.task.port & 1)];
        // Evict expired tuples, probe the live window, join the window.
        const double cutoff = now - op.window;
        while (!other.empty() && other.front() < cutoff) other.pop_front();
        while (!mine.empty() && mine.front() < cutoff) mine.pop_front();
        fl.probes = other.size();
        mine.push_back(now);
        cpu += op.cost * static_cast<double>(fl.probes);
      } else {
        cpu += op.cost;
      }
    }
    fl.service = node.ServiceTime(cpu);
    inflight[node_id] = fl;
    events.PushCompletion(now + fl.service, node_id, ++service_token[node_id]);
  };

  // Flags `n` congested once its tuple queue reaches the high-water mark.
  auto note_congestion = [&](uint32_t n, double now) {
    if (congested[n] == 0 &&
        nodes[n].tuple_queue_length() >= options.backpressure.high_water) {
      congested[n] = 1;
      ws.congested_since[n] = now;
      ++ov.congestion_episodes;
      if (tel != nullptr) tel->Count("engine.backpressure.episodes");
    }
  };

  // Parks a delivery at congested node `dst`; the sending node (when
  // there is one) stalls until the congestion clears.
  auto park_delivery = [&](const Task& task, uint32_t dst, uint32_t from) {
    ws.bp_held[dst].push_back(HeldDelivery{from, task});
    ++ov.backpressure_deferred;
    if (from != kNoUpstream) {
      char& blocked = ws.bp_blocked[from * num_nodes + dst];
      if (blocked == 0) {
        blocked = 1;
        ++stall_refs[from];
      }
    }
  };

  // Hands a tuple-task to its operator's *current* host, honouring
  // migration pauses, node liveness, backpressure, and the queue bound.
  // False iff the task was dropped as *lost* (destination down, or shed
  // during a migration pause); overflow-policy drops are accounted as
  // shed, not lost, and still return true.
  auto place_task = [&](const Task& task, uint32_t from, double now) -> bool {
    if (paused_until[task.op] > now) {
      if (shed_during_pause) {
        ++incident.migration_shed;
        return false;
      }
      migration_buffer[task.op].push_back(task);
      ++incident.migration_buffered;
      return true;
    }
    const uint32_t dst = dep.ops[task.op].node;
    if (!node_up[dst]) return false;
    if (bp_on && congested[dst] != 0) {
      park_delivery(task, dst, from);
      return true;
    }
    if (bounded) {
      const auto outcome = nodes[dst].EnqueueBounded(task, control_rng);
      if (outcome.evicted) ++ov.shed_overflow;
      if (!outcome.accepted) {
        ++ov.shed_overflow;
        return true;
      }
    } else {
      nodes[dst].Enqueue(task);
    }
    if (bp_on) note_congestion(dst, now);
    try_start(dst, now);
    return true;
  };

  // Delivers a task to an operator, possibly across the simulated network.
  auto deliver = [&](const Route& route, double origin, double now,
                     uint32_t from) {
    Task task;
    task.op = route.to_op;
    task.port = route.to_port;
    task.origin = origin;
    task.extra_cost = route.crosses_nodes ? route.comm_cost : 0.0;
    if (route.crosses_nodes && options.network_latency > 0.0) {
      // `now` never decreases, so neither does `at`: deliveries ride the
      // queue's in-order lane.
      const double at = now + options.network_latency;
      network.PushTuple(from, task);
      if (open_batch_count != 0 && open_batch_count < batch_limit &&
          at == open_batch_time && events.next_seq() == open_batch_seq) {
        ++open_batch_count;
        ++network.counts.back();
      } else {
        events.PushInOrder(at, EventType::kNetworkDelivery, 0);
        network.counts.push_back(1);
        open_batch_time = at;
        open_batch_seq = events.next_seq();
        open_batch_count = 1;
      }
    } else if (!place_task(task, from, now)) {
      ++incident.lost_network;
    }
  };

  // True when stream `k` currently feeds a congested (live, unpaused)
  // consumer node — arrivals must hold at the source.
  auto source_blocked = [&](uint32_t k, double now) -> bool {
    for (const Route& route : dep.input_routes[k]) {
      if (paused_until[route.to_op] > now) continue;
      const uint32_t dst = dep.ops[route.to_op].node;
      if (node_up[dst] != 0 && congested[dst] != 0) return true;
    }
    return false;
  };

  auto schedule_next_arrival = [&](uint32_t k, double now) {
    const double next = next_arrival(k, now);
    if (std::isfinite(next) && next <= options.duration) {
      events.Push(next, EventType::kExternalArrival, k);
      ws.arrival_live[k] = 1;
    } else {
      ws.arrival_live[k] = 0;
    }
  };

  // Fans one external tuple of stream `k` out to its consumers with the
  // full accounting (accept > reject > shed precedence per arrival).
  auto deliver_arrival = [&](uint32_t k, double origin, double now) {
    bool accepted = false;
    bool shed = false;
    bool rejected = false;
    for (const Route& route : dep.input_routes[k]) {
      // External ingestion: receiver pays the arc cost, no network hop
      // is simulated (sources push directly into the cluster).
      Task task;
      task.op = route.to_op;
      task.port = route.to_port;
      task.origin = origin;
      task.extra_cost = route.comm_cost;
      if (paused_until[task.op] > now) {
        // Consumer is mid-migration: hold (or shed) at the edge.
        if (shed_during_pause) {
          ++incident.migration_shed;
          shed = true;
        } else {
          migration_buffer[task.op].push_back(task);
          ++incident.migration_buffered;
          accepted = true;
        }
        continue;
      }
      const uint32_t dst_node = dep.ops[route.to_op].node;
      if (!node_up[dst_node]) {
        rejected = true;  // crashed node: arrivals bounce
        continue;
      }
      if (bp_on && congested[dst_node] != 0) {
        // Backpressured edge: park rather than drop (the stall is the
        // throttle; the tuple keeps its origin and pays it as latency).
        park_delivery(task, dst_node, kNoUpstream);
        accepted = true;
        continue;
      }
      if (bounded) {
        const auto outcome = nodes[dst_node].EnqueueBounded(task, control_rng);
        if (outcome.evicted) ++ov.shed_overflow;
        if (!outcome.accepted) {
          shed = true;  // bounded ingress: tail-dropped at the edge
          continue;
        }
      } else {
        nodes[dst_node].Enqueue(task);
      }
      if (bp_on) note_congestion(dst_node, now);
      try_start(dst_node, now);
      accepted = true;
    }
    if (accepted) {
      metrics.RecordInput();
    } else if (rejected) {
      ++incident.rejected_inputs;
    } else if (shed) {
      ++shed_count;
    }
  };

  // Clears node `n`'s congestion: unstalls its upstreams, replays (or,
  // when the node crashed, counts as lost) the parked deliveries, and
  // releases any source that is no longer blocked.
  auto release_congestion = [&](uint32_t n, double now, bool replay) {
    congested[n] = 0;
    ov.node_congested_seconds += now - ws.congested_since[n];
    for (uint32_t a = 0; a < num_nodes; ++a) {
      char& blocked = ws.bp_blocked[a * num_nodes + n];
      if (blocked != 0) {
        blocked = 0;
        assert(stall_refs[a] > 0);
        --stall_refs[a];
      }
    }
    ws.bp_release_scratch.clear();
    std::swap(ws.bp_release_scratch, ws.bp_held[n]);
    for (const HeldDelivery& h : ws.bp_release_scratch) {
      if (!replay) {
        ++incident.lost_network;  // parked at a node that then crashed
      } else if (!place_task(h.task, h.from, now)) {
        ++incident.lost_network;
      }
    }
    for (uint32_t a = 0; a < num_nodes; ++a) {
      if (stall_refs[a] == 0) try_start(a, now);
    }
    for (uint32_t k = 0; k < source_stalled.size(); ++k) {
      if (source_stalled[k] == 0 || source_blocked(k, now)) continue;
      source_stalled[k] = 0;
      ov.source_stall_seconds += now - ws.source_stall_since[k];
      deliver_arrival(k, ws.source_held_origin[k], now);
      schedule_next_arrival(k, now);
    }
  };

  // Drains congestion state once the queue falls to the low-water mark.
  auto maybe_clear_congestion = [&](uint32_t n, double now) {
    if (!bp_on || congested[n] == 0) return;
    if (nodes[n].tuple_queue_length() > bp_low) return;
    release_congestion(n, now, /*replay=*/true);
  };

  // Applies a control-agent plan update — crash repair or overload
  // re-placement take the identical path: re-route in place, start the
  // migration pauses, and re-home tasks already queued for the moved
  // operators.
  auto apply_plan = [&](const PlanUpdate& update, double now) -> Status {
    telemetry::TraceSpan reassign_span(tel, "supervisor", "reassign");
    auto moved = ReassignOperators(dep, update.assignment);
    if (!moved.ok()) return moved.status();
    shed_during_pause = update.shed_during_pause;
    incident.operators_moved += moved->size();
    if (incident.plan_applied_time < 0) {
      incident.plan_applied_time = now;
    }
    if (tel != nullptr) {
      tel->Count("supervisor.plan_updates");
      tel->Count("supervisor.operators_moved", moved->size());
    }
    if (recorder != nullptr) {
      recorder->Note("plan applied at t=" + std::to_string(now) + ", moved " +
                     std::to_string(moved->size()) + " operators");
    }
    if (!moved->empty()) {
      std::vector<char> is_moved(dep.ops.size(), 0);
      for (uint32_t j : *moved) is_moved[j] = 1;
      if (update.migration_pause > 0.0) {
        for (uint32_t j : *moved) {
          paused_until[j] = now + update.migration_pause;
          if (!update.shed_during_pause) {
            events.Push(paused_until[j], EventType::kMigrationRelease, j);
          }
        }
      }
      // Tasks already queued on survivors for a moved operator follow
      // it to its new host (through the migration pause, if any).
      for (uint32_t i = 0; i < nodes.size(); ++i) {
        if (!node_up[i]) continue;
        auto orphaned = nodes[i].ExtractIf([&](const Task& t) {
          return t.op != Task::kCommTask && is_moved[t.op];
        });
        for (const Task& t : orphaned) {
          if (!place_task(t, kNoUpstream, now)) ++incident.lost_network;
        }
      }
      // The extraction may have drained a congested queue.
      if (bp_on) {
        for (uint32_t i = 0; i < num_nodes; ++i) {
          if (node_up[i]) maybe_clear_congestion(i, now);
        }
      }
    }
    return Status::OK();
  };

  setup_span.End();
  telemetry::TraceSpan run_span(tel, "engine", "run");

  uint64_t processed_events = 0;
  std::array<uint64_t, kNumEventTypes> events_by_type{};
  while (!events.empty()) {
    const Event ev = events.Pop();
    if (ev.time > options.duration) break;
    const double now = ev.time;
    // A delivery event carries a whole tuple batch; count the batch so
    // processed_events (and the max_events guard) stay per-tuple,
    // identical for every batch size.
    uint32_t batch_n = 1;
    if (ev.type == EventType::kNetworkDelivery) {
      batch_n = network.counts.front();
      network.counts.pop_front();
    }

    processed_events += batch_n;
    events_by_type[static_cast<size_t>(ev.type)] += batch_n;

    if (processed_events > options.max_events) {
      // Name the hot spot so runaway-load aborts are diagnosable.
      size_t hot_node = 0;
      for (size_t i = 1; i < nodes.size(); ++i) {
        if (nodes[i].queue_length() > nodes[hot_node].queue_length()) {
          hot_node = i;
        }
      }
      const auto [hot_op, hot_count] = nodes[hot_node].HottestOperator();
      std::string msg = "simulation exceeded max_events at t=" +
                        std::to_string(now) + "s; hottest node " +
                        std::to_string(hot_node) + " has " +
                        std::to_string(nodes[hot_node].queue_length()) +
                        " queued tasks";
      if (hot_count > 0 && hot_op != Task::kCommTask) {
        msg += ", most at operator " + std::to_string(hot_op) + " (" +
               std::to_string(hot_count) + ")";
      }
      msg += "; reduce rates or duration";
      return Status::FailedPrecondition(std::move(msg));
    }

    if (ev.type == EventType::kNetworkDelivery) {
      // Replays the batch in push order — exactly the order the
      // one-event-per-tuple engine pops these deliveries.
      for (uint32_t i = 0; i < batch_n; ++i) {
        assert(!network.empty());
        uint32_t from = kNoUpstream;
        const Task task = network.PopTuple(from);
        if (!place_task(task, from, now)) ++incident.lost_network;
      }
      continue;
    }

    if (ev.type == EventType::kExternalArrival) {
      const uint32_t k = ev.index;
      if (oc_on) ++ws.window_arrivals[k];
      if (active_shed > 0.0 && control_rng.Bernoulli(active_shed)) {
        // Control-directed shedding drops the whole tuple at the source.
        ++ov.shed_directive;
        schedule_next_arrival(k, now);
        continue;
      }
      if (bp_on && source_blocked(k, now)) {
        // A consumer is congested: the source pauses — the tuple is held
        // (keeping its origin for latency accounting) and no further
        // arrivals are drawn until the congestion clears.
        source_stalled[k] = 1;
        ws.source_stall_since[k] = now;
        ws.source_held_origin[k] = now;
        ws.arrival_live[k] = 0;
        ++ov.source_stalls;
        continue;
      }
      deliver_arrival(k, now, now);
      schedule_next_arrival(k, now);
      continue;
    }

    if (ev.type == EventType::kFault) {
      const FaultEvent& fault = options.failures->events()[ev.index];
      if (tel != nullptr) {
        const char* kind = fault.kind == FaultKind::kCrash ? "crash"
                           : fault.kind == FaultKind::kRecover ? "recover"
                           : fault.kind == FaultKind::kSlowdown
                               ? "slowdown"
                               : "load_spike";
        tel->RecordInstant("engine", kind, fault.node, /*has_arg=*/true);
        tel->Count("engine.faults");
      }
      if (recorder != nullptr) {
        const std::string what =
            (fault.kind == FaultKind::kCrash     ? "crash node "
             : fault.kind == FaultKind::kRecover ? "recover node "
             : fault.kind == FaultKind::kSlowdown
                 ? "slowdown node "
                 : "load spike on stream ") +
            std::to_string(fault.node) + " at t=" + std::to_string(now);
        if (fault.kind == FaultKind::kCrash && !recorder->pending()) {
          // First crash: freeze pre-incident state (metrics snapshot,
          // trace rings, aggregator window) as of this instant.
          recorder->BeginIncident("node_crash", what);
        } else {
          recorder->Note(what);
        }
      }
      if (fault.kind == FaultKind::kCrash) {
        node_up[fault.node] = 0;
        // Queued and in-flight tuple-tasks are lost (comm overhead tasks
        // are bookkeeping, not tuples).
        for (const Task& t : nodes[fault.node].DrainAll()) {
          if (t.op != Task::kCommTask) ++incident.lost_queued;
        }
        if (nodes[fault.node].busy()) {
          const InFlight& fl = inflight[fault.node];
          if (fl.task.op != Task::kCommTask) ++incident.lost_inflight;
          metrics.RecordService(fault.node, fl.start, now);
          nodes[fault.node].AbortService();
          ++service_token[fault.node];  // cancel the pending kNodeDone
        }
        if (!have_incident) {
          have_incident = true;
          incident.crash_time = now;
          incident.failed_node = fault.node;
        }
        if (congested[fault.node] != 0) {
          // The congested queue is gone with the node: parked deliveries
          // are lost in transit, its upstreams and sources resume.
          release_congestion(fault.node, now, /*replay=*/false);
        }
        if (options.recovery) {
          events.Push(now + detection_delay, EventType::kFailureDetected,
                      fault.node);
        }
      } else if (fault.kind == FaultKind::kRecover) {
        node_up[fault.node] = 1;
        nodes[fault.node].set_capacity(dep.system.capacities[fault.node]);
      } else if (fault.kind == FaultKind::kLoadSpike) {
        // `node` indexes the input stream. If the stream's arrival chain
        // had run dry (zero-rate tail), restart it so the spike takes
        // effect; a live chain keeps its already-drawn next arrival and
        // applies the multiplier from the following draw on.
        arrivals[fault.node]->set_rate_multiplier(fault.factor);
        if (ws.arrival_live[fault.node] == 0 &&
            source_stalled[fault.node] == 0) {
          schedule_next_arrival(fault.node, now);
        }
      } else {  // kSlowdown
        nodes[fault.node].set_capacity(dep.system.capacities[fault.node] *
                                       fault.factor);
      }
      continue;
    }

    if (ev.type == EventType::kFailureDetected) {
      if (have_incident && incident.detect_time < 0) {
        incident.detect_time = now;
      }
      telemetry::TraceSpan detect_span(tel, "supervisor", "detect",
                                       uint64_t{ev.index});
      auto update = options.recovery->OnFailureDetected(
          now, ev.index, std::vector<bool>(node_up.begin(), node_up.end()),
          dep);
      detect_span.End();
      if (update) {
        ROD_RETURN_IF_ERROR(apply_plan(*update, now));
      } else {
        // The agent declined (or its repair failed): a positive retry
        // delay re-runs the detection later, with backoff owned by the
        // agent (see Supervisor::RepairRetryDelay).
        const double retry = options.recovery->RepairRetryDelay();
        if (retry > 0.0 && now + retry <= options.duration) {
          events.Push(now + retry, EventType::kFailureDetected, ev.index);
          if (recorder != nullptr) {
            recorder->Note("supervisor: repair retry in " +
                           std::to_string(retry) + "s");
          }
          if (tel != nullptr) tel->Count("supervisor.repair_retries");
        }
      }
      continue;
    }

    if (ev.type == EventType::kMigrationRelease) {
      const uint32_t op = ev.index;
      if (paused_until[op] > now + 1e-12) continue;  // superseded pause
      // Swap the held tuples into reusable staging: place_task may buffer
      // into *other* paused operators, never back into `op` (its pause
      // has expired), so iterating the swapped-out vector is safe.
      ws.release_scratch.clear();
      std::swap(ws.release_scratch, migration_buffer[op]);
      for (const Task& t : ws.release_scratch) {
        if (!place_task(t, kNoUpstream, now)) ++incident.lost_network;
      }
      continue;
    }

    if (ev.type == EventType::kOverloadCheck) {
      // Sustained-overload detector: sample the deepest live queue, latch
      // a breach with hysteresis, and escalate to the control agent once
      // the breach has held for `sustain` seconds (one consult per
      // `cooldown`).
      uint32_t hot = 0;
      size_t depth = 0;
      for (uint32_t i = 0; i < num_nodes; ++i) {
        if (node_up[i] != 0 && nodes[i].tuple_queue_length() > depth) {
          depth = nodes[i].tuple_queue_length();
          hot = i;
        }
      }
      const bool trigger =
          depth >= options.overload.queue_high_water ||
          (options.overload.latency_slo > 0.0 &&
           recent_latency_max > options.overload.latency_slo);
      if (trigger && oc_breach_since < 0.0) oc_breach_since = now;
      if (oc_breach_since >= 0.0) {
        const bool sustained =
            now - oc_breach_since >= options.overload.sustain - 1e-12;
        if (sustained && ov.overload_detect_time < 0.0) {
          ov.overload_detect_time = now;
          if (tel != nullptr) {
            tel->RecordInstant("engine", "overload_detected", hot,
                               /*has_arg=*/true);
          }
        }
        if (sustained && options.recovery != nullptr &&
            now - oc_last_consult >= options.overload.cooldown - 1e-12) {
          OverloadSignal signal;
          signal.time = now;
          signal.hot_node = hot;
          signal.queue_depth = depth;
          signal.queue_high_water = options.overload.queue_high_water;
          signal.recent_max_latency = recent_latency_max;
          signal.sustained_seconds = now - oc_breach_since;
          signal.observed_rates.resize(inputs.size());
          for (size_t k = 0; k < inputs.size(); ++k) {
            signal.observed_rates[k] =
                static_cast<double>(ws.window_arrivals[k]) /
                options.overload.check_interval;
          }
          signal.node_up.assign(node_up.begin(), node_up.end());
          if (recorder != nullptr) {
            const std::string what =
                "overload: node " + std::to_string(hot) + " depth " +
                std::to_string(depth) + " at t=" + std::to_string(now);
            if (!recorder->pending()) {
              recorder->BeginIncident("overload", what);
            } else {
              recorder->Note(what);
            }
          }
          telemetry::TraceSpan consult_span(tel, "supervisor", "overload");
          auto decision = options.recovery->OnOverload(signal, dep);
          consult_span.End();
          ++ov.control_consults;
          oc_last_consult = now;
          if (tel != nullptr) tel->Count("engine.overload.consults");
          if (decision) {
            overload_signalled = true;
            active_shed = std::clamp(decision->shed_fraction, 0.0, 1.0);
            ov.shed_rate_applied = active_shed;
            if (recorder != nullptr) {
              recorder->Note("overload directive: shed " +
                             std::to_string(active_shed) +
                             (decision->plan ? ", re-place" : ""));
            }
            if (decision->plan) {
              ROD_RETURN_IF_ERROR(apply_plan(*decision->plan, now));
            }
          }
        }
        if (!trigger && depth <= oc_clear) {
          // Hysteresis satisfied: the overload is over.
          oc_breach_since = -1.0;
          if (overload_signalled) {
            overload_signalled = false;
            active_shed = 0.0;
            options.recovery->OnOverloadCleared(now);
            if (recorder != nullptr) {
              recorder->Note("overload cleared at t=" + std::to_string(now));
            }
            if (tel != nullptr) tel->Count("engine.overload.cleared");
          }
        }
      }
      recent_latency_max = 0.0;
      std::fill(ws.window_arrivals.begin(), ws.window_arrivals.end(),
                uint64_t{0});
      const double next = now + options.overload.check_interval;
      if (next <= options.duration) {
        events.Push(next, EventType::kOverloadCheck, 0);
      }
      continue;
    }

    // kNodeDone.
    const uint32_t node_id = ev.index;
    if (ev.tag != service_token[node_id]) continue;  // crash-cancelled
    const InFlight fl = inflight[node_id];
    nodes[node_id].FinishService(fl.service);
    metrics.RecordService(node_id, fl.start, now);

    if (fl.task.op != Task::kCommTask) {
      const CompiledOp& op = dep.ops[fl.task.op];
      const uint64_t emitted =
          op.is_join ? SampleBinomial(fl.probes, op.selectivity, emission_rng)
                     : SampleEmissions(op.selectivity, emission_rng);
      auto& stats = op_stats[fl.task.op];
      ++stats.tuples_processed;
      stats.pairs_probed += fl.probes;
      stats.tuples_emitted += emitted;
      // CPU attributable to the operator itself (comm overhead excluded).
      stats.cpu_seconds +=
          fl.service * nodes[node_id].capacity() - fl.task.extra_cost;
      for (uint64_t e = 0; e < emitted; ++e) {
        if (op.is_sink) {
          if (fl.task.origin >= options.warmup) {
            metrics.RecordOutput(fl.task.op, now - fl.task.origin, now);
            if (oc_on) {
              recent_latency_max =
                  std::max(recent_latency_max, now - fl.task.origin);
            }
          } else {
            ++warmup_outputs;
          }
          continue;
        }
        for (const Route& route : op.consumers) {
          if (route.crosses_nodes && route.comm_cost > 0.0) {
            // Send-side communication overhead on this node.
            Task send;
            send.op = Task::kCommTask;
            send.origin = fl.task.origin;
            send.extra_cost = route.comm_cost;
            nodes[node_id].Enqueue(send);
          }
          deliver(route, fl.task.origin, now, node_id);
        }
      }
    }
    try_start(node_id, now);
    maybe_clear_congestion(node_id, now);
  }

  run_span.End();
  telemetry::TraceSpan finalize_span(tel, "engine", "finalize");

  // A replay feed that hit an I/O or integrity error mid-run reports
  // end-of-stream to the event loop and latches the error; surface it
  // now rather than returning a silently truncated result.
  if (replay != nullptr) {
    ROD_RETURN_IF_ERROR(replay->status());
  }

  // Assemble results.
  SimulationResult result;
  result.processed_events = processed_events;
  result.events_by_type = events_by_type;
  result.input_tuples = metrics.inputs();
  // Degradation accounting: close out stall intervals still open at the
  // horizon, then fold the breakdown into the headline counters.
  ov.shed_edge = shed_count;
  for (uint32_t k = 0; k < source_stalled.size(); ++k) {
    if (source_stalled[k] != 0) {
      ov.source_stall_seconds += options.duration - ws.source_stall_since[k];
    }
  }
  for (uint32_t i = 0; i < num_nodes; ++i) {
    if (congested[i] != 0) {
      ov.node_congested_seconds += options.duration - ws.congested_since[i];
    }
    ov.queue_depth_high_water =
        std::max(ov.queue_depth_high_water, nodes[i].queue_high_water());
  }
  result.shed_tuples = shed_count + ov.shed_directive;
  result.output_tuples = metrics.outputs() + warmup_outputs;
  result.overload = ov;
  {
    const LatencySummary total = metrics.TotalLatency();
    result.mean_latency = total.mean;
    result.p50_latency = total.p50;
    result.p95_latency = total.p95;
    result.p99_latency = total.p99;
    result.max_latency = total.max;
  }
  for (const auto& [sink, summary] : metrics.SinkSummaries()) {
    SinkLatency s;
    s.sink_op = sink;
    s.outputs = summary.count;
    s.mean = summary.mean;
    s.p50 = summary.p50;
    s.p95 = summary.p95;
    result.sink_latencies.push_back(s);
  }
  result.node_utilization.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    result.node_utilization[i] = metrics.NodeUtilization(i, options.duration);
    result.max_node_utilization =
        std::max(result.max_node_utilization, result.node_utilization[i]);
    result.final_backlog += nodes[i].queue_length() + (nodes[i].busy() ? 1 : 0);
  }
  for (const auto& held : migration_buffer) result.final_backlog += held.size();
  for (const auto& held : ws.bp_held) result.final_backlog += held.size();
  result.op_stats = op_stats;
  result.overloaded_windows =
      metrics.OverloadedWindows(kOverloadedUtilization);
  result.total_windows = metrics.num_windows();
  // Saturation: a node pegged for a large share of the run, or a backlog
  // disproportionate to the input volume remaining at the horizon.
  const double backlog_limit =
      50.0 + 0.02 * static_cast<double>(result.input_tuples);
  result.saturated =
      result.overloaded_windows * 2 >= result.total_windows ||
      static_cast<double>(result.final_backlog) > backlog_limit;

  if (have_incident) {
    incident.lost_tuples = incident.lost_queued + incident.lost_inflight +
                           incident.lost_network + incident.rejected_inputs;
    incident.overload_shed = ov.total_shed();
    incident.backpressure_deferred = ov.backpressure_deferred;
    incident.source_stall_seconds = ov.source_stall_seconds;
    const double offered = static_cast<double>(
        result.input_tuples + incident.rejected_inputs + result.shed_tuples);
    incident.availability =
        offered > 0 ? static_cast<double>(result.input_tuples) / offered : 1.0;

    // Recovery point: the earliest utilization window at/after the plan
    // went live (or the crash, unsupervised) from which every remaining
    // window stays below the recovered threshold.
    const double anchor = incident.plan_applied_time >= 0.0
                              ? incident.plan_applied_time
                              : incident.crash_time;
    const size_t num_w = metrics.num_windows();
    const size_t start_w = std::min(
        num_w, static_cast<size_t>(anchor / options.utilization_window));
    size_t recovered_w = num_w;
    for (size_t w = num_w; w-- > start_w;) {
      if (metrics.WindowMaxBusyFraction(w) < kRecoveredUtilization) {
        recovered_w = w;
      } else {
        break;
      }
    }
    double recovery_abs = options.duration;
    if (recovered_w < num_w) {
      incident.recovered = true;
      recovery_abs =
          static_cast<double>(recovered_w) * options.utilization_window;
      incident.recovery_time =
          std::max(0.0, recovery_abs - incident.crash_time);
      for (size_t w = recovered_w; w < num_w; ++w) {
        incident.post_recovery_max_utilization =
            std::max(incident.post_recovery_max_utilization,
                     metrics.WindowMaxBusyFraction(w));
      }
    }

    // Phase latency split by output completion time. Runs with a failure
    // schedule always retain the full series, and completion times are
    // nondecreasing (events fire in time order), so the phases are
    // contiguous spans located by binary search — no per-phase copies.
    const std::span<const double> lat(metrics.latencies());
    const auto& times = metrics.output_times();
    assert(lat.size() == times.size());
    const size_t crash_idx = static_cast<size_t>(
        std::lower_bound(times.begin(), times.end(), incident.crash_time) -
        times.begin());
    const size_t recov_idx = static_cast<size_t>(
        std::lower_bound(times.begin() + static_cast<ptrdiff_t>(crash_idx),
                         times.end(), recovery_abs) -
        times.begin());
    incident.pre_failure =
        SummarizePhase(lat.subspan(0, crash_idx), ws.phase_scratch);
    incident.during_recovery = SummarizePhase(
        lat.subspan(crash_idx, recov_idx - crash_idx), ws.phase_scratch);
    incident.post_recovery =
        SummarizePhase(lat.subspan(recov_idx), ws.phase_scratch);
    result.incident = incident;
  }

  if (tel != nullptr) {
    tel->Count("engine.runs");
    tel->Count("engine.events_processed", result.processed_events);
    tel->Count("engine.input_tuples", result.input_tuples);
    tel->Count("engine.output_tuples", result.output_tuples);
    tel->Count("engine.shed_tuples", result.shed_tuples);
    // Overload families are registered (at zero) on every instrumented
    // run, so the live plane always exposes them.
    tel->Count("engine.tuples_shed", ov.total_shed());
    tel->gauge("node.queue_depth_high_water")
        .Max(static_cast<double>(ov.queue_depth_high_water));
    tel->Count("engine.backpressure.deferred", ov.backpressure_deferred);
    if (ov.source_stall_seconds > 0.0) {
      tel->Observe("engine.source_stall_seconds", ov.source_stall_seconds);
    }
    tel->Observe("engine.run.mean_latency_ms", result.mean_latency * 1e3);
    tel->Observe("engine.run.max_utilization", result.max_node_utilization);
    if (result.incident) {
      tel->Count("engine.incident.lost_tuples", result.incident->lost_tuples);
      tel->Count("engine.migration.buffered",
                 result.incident->migration_buffered);
      tel->Count("engine.migration.shed", result.incident->migration_shed);
    }
  }
  if (recorder != nullptr && recorder->pending()) {
    // Close out the incident opened at the crash instant: the full
    // IncidentReport is only known now that the run has finished.
    if (result.incident) {
      const IncidentReport& report = *result.incident;
      recorder->CompleteIncident([&report](telemetry::JsonWriter& w) {
        WriteIncidentReportJson(report, w);
      });
    } else {
      recorder->CompleteIncident();
    }
  }
  return result;
}

void WriteIncidentReportJson(const IncidentReport& report,
                             telemetry::JsonWriter& w) {
  const auto write_phase = [&w](const char* key, const PhaseLatency& p) {
    w.Key(key).BeginObjectInline();
    w.Key("outputs").Uint(p.outputs);
    w.Key("mean").Double(p.mean);
    w.Key("p50").Double(p.p50);
    w.Key("p95").Double(p.p95);
    w.Key("p99").Double(p.p99);
    w.EndObject();
  };
  // Inline so the flight recorder can splice the rendered object into
  // its per-incident artifact via JsonWriter::Raw.
  w.BeginObjectInline();
  w.Key("crash_time").Double(report.crash_time);
  w.Key("failed_node").Uint(report.failed_node);
  w.Key("detect_time").Double(report.detect_time);
  w.Key("plan_applied_time").Double(report.plan_applied_time);
  w.Key("operators_moved").Uint(report.operators_moved);
  w.Key("lost_queued").Uint(report.lost_queued);
  w.Key("lost_inflight").Uint(report.lost_inflight);
  w.Key("lost_network").Uint(report.lost_network);
  w.Key("rejected_inputs").Uint(report.rejected_inputs);
  w.Key("lost_tuples").Uint(report.lost_tuples);
  w.Key("migration_buffered").Uint(report.migration_buffered);
  w.Key("migration_shed").Uint(report.migration_shed);
  w.Key("overload_shed").Uint(report.overload_shed);
  w.Key("backpressure_deferred").Uint(report.backpressure_deferred);
  w.Key("source_stall_seconds").Double(report.source_stall_seconds);
  w.Key("recovered").Bool(report.recovered);
  w.Key("recovery_time").Double(report.recovery_time);
  w.Key("post_recovery_max_utilization")
      .Double(report.post_recovery_max_utilization);
  w.Key("availability").Double(report.availability);
  write_phase("pre_failure", report.pre_failure);
  write_phase("during_recovery", report.during_recovery);
  write_phase("post_recovery", report.post_recovery);
  w.EndObject();
}

Result<SimulationResult> SimulatePlacement(
    const query::QueryGraph& graph, const place::Placement& placement,
    const place::SystemSpec& system,
    const std::vector<trace::RateTrace>& inputs,
    const SimulationOptions& options) {
  auto deployment = CompileDeployment(graph, placement, system);
  if (!deployment.ok()) return deployment.status();
  return Simulate(*deployment, inputs, options);
}

Result<bool> ProbeFeasibleAt(const query::QueryGraph& graph,
                             const place::Placement& placement,
                             const place::SystemSpec& system,
                             std::span<const double> rates,
                             const SimulationOptions& options) {
  if (rates.size() != graph.num_input_streams()) {
    return Status::InvalidArgument("one rate per input stream required");
  }
  std::vector<trace::RateTrace> traces;
  traces.reserve(rates.size());
  for (double r : rates) {
    trace::RateTrace t;
    t.window_sec = options.duration;
    t.rates = {r};
    traces.push_back(std::move(t));
  }
  auto result = SimulatePlacement(graph, placement, system, traces, options);
  if (!result.ok()) return result.status();
  return !result->saturated;
}

}  // namespace rod::sim
