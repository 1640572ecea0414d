// Copyright (c) the ROD reproduction authors.
//
// The tuple-level stream-processing simulation engine — our stand-in for
// the Borealis prototype (DESIGN.md substitution #2). Nodes are
// capacity-scaled single-server FIFO queues; tuples flow through the
// compiled deployment paying per-tuple operator costs and per-arc
// communication costs; end-to-end latency and per-window utilization are
// measured. A placement is feasible at a rate point exactly when queues
// stay bounded — the same mechanism the paper probes with CPU utilization.

#ifndef ROD_RUNTIME_ENGINE_H_
#define ROD_RUNTIME_ENGINE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "placement/plan.h"
#include "query/query_graph.h"
#include "runtime/chaos.h"
#include "runtime/deployment.h"
#include "runtime/event.h"
#include "runtime/node.h"
#include "trace/trace.h"

namespace rod::telemetry {
class FlightRecorder;
class JsonWriter;
class Telemetry;
}  // namespace rod::telemetry

namespace rod::trace::store {
class ReplaySet;
}  // namespace rod::trace::store

namespace rod::sim {

/// Per-window busy fraction at/above which a utilization window counts
/// as overloaded (SimulationResult::overloaded_windows).
inline constexpr double kOverloadedUtilization = 0.99;

/// Incident report: per-window max busy fraction below which the cluster
/// counts as recovered after a crash (IncidentReport::recovered).
inline constexpr double kRecoveredUtilization = 0.95;

/// One simulation run's configuration.
struct SimulationOptions {
  /// Virtual seconds simulated.
  double duration = 60.0;

  /// One-way network latency added to tuples crossing nodes (seconds).
  double network_latency = 1e-3;

  /// Poisson arrivals (true) or evenly spaced within windows (false).
  bool poisson_arrivals = true;

  /// Node task-scheduling discipline (see node.h). Round-robin isolates
  /// cheap query paths from bursts queued behind expensive operators;
  /// throughput and utilization are unaffected.
  Scheduling scheduling = Scheduling::kFifo;

  /// Per-window utilization bucket width (seconds).
  double utilization_window = 1.0;

  /// Abort guard: fail the run if it would process more than this many
  /// simulation events (runaway load or miswired graphs).
  uint64_t max_events = 200'000'000;

  /// Measurement warm-up: sink outputs whose *origin* timestamp falls
  /// before this many seconds are excluded from latency statistics (the
  /// queues have not reached steady state yet). Utilization windows and
  /// tuple counts are unaffected.
  double warmup = 0.0;

  /// Bounded per-node ingress queues (the Borealis-style load-shedding
  /// response): at most `queue_bound.capacity` tuple tasks queued per
  /// node, overflow resolved by the configured OverflowPolicy (see
  /// runtime/node.h). kDropNewest tail-drops at the edge, so an
  /// overloaded node sheds arriving tuples instead of growing its queue;
  /// kQosWeighted uses the compiled per-operator drop weights. Capacity 0
  /// (the default) keeps the queues unbounded. Dropped tuples are counted
  /// in OverloadStats (and, for rejected external arrivals, in
  /// shed_tuples).
  QueueBound queue_bound;

  /// Backpressure propagation: a node whose tuple queue reaches
  /// `high_water` becomes congested; deliveries to it are parked, the
  /// sending nodes stall (no new service starts) and sources feeding it
  /// pause, all until its queue drains to `low_water`. Parked tuples keep
  /// their origin timestamps, so the stall surfaces as latency, not loss.
  /// Congestion cycles among nodes can dead-stall the affected component
  /// — by design (DESIGN.md §11): shedding, not backpressure, is the
  /// mechanism that restores an infeasible system.
  struct BackpressureOptions {
    bool enabled = false;
    size_t high_water = 64;
    size_t low_water = 0;  ///< 0 -> high_water / 2.
  };
  BackpressureOptions backpressure;

  /// Sustained-overload detector: sampled every `check_interval` virtual
  /// seconds, a breach is a node tuple-queue at/above `queue_high_water`
  /// or (when `latency_slo` > 0) a sink latency above the SLO since the
  /// last sample. A breach sustained for `sustain` seconds escalates to
  /// `recovery`->OnOverload (at most once per `cooldown`); the ordered
  /// shed fraction applies to external arrivals until the deepest queue
  /// drains to `clear_low_water`, which also notifies OnOverloadCleared.
  struct OverloadControlOptions {
    bool enabled = false;
    double check_interval = 0.25;
    size_t queue_high_water = 128;
    double latency_slo = 0.0;  ///< Seconds; 0 disables the latency trigger.
    double sustain = 0.5;
    double cooldown = 2.0;
    size_t clear_low_water = 0;  ///< 0 -> queue_high_water / 4.
  };
  OverloadControlOptions overload;

  /// Seed for arrivals and probabilistic emission.
  uint64_t seed = 0xdecaf5eedULL;

  /// Recorded-arrival replay: when set, external tuples are drawn from
  /// this set's feeds (one per input stream, in stream order; see
  /// trace/store/replay.h) instead of the synthetic ArrivalGenerator.
  /// The rate traces passed to Simulate still size the input streams but
  /// no longer produce arrivals, and the per-stream input RNGs are forked
  /// exactly as in generator mode, so every downstream random stream
  /// (emission, shedding) is unchanged — replaying MaterializeArrivals of
  /// a trace reproduces the generator-driven run bit for bit (absent
  /// source stalls, which re-time generator draws). kLoadSpike faults are
  /// rejected in replay mode: a recorded trace has no rate to rescale.
  /// Not owned; null (the default) keeps the synthetic driver.
  trace::store::ReplaySet* replay = nullptr;

  /// Fault injection script (crash / recover / slowdown events; see
  /// runtime/chaos.h). Not owned; null disables chaos.
  const FailureSchedule* failures = nullptr;

  /// Supervision: consulted one detection delay after each crash to
  /// re-home operators, and — when `overload.enabled` — on sustained
  /// overload to pick a shed rate or re-placement (see
  /// runtime/supervisor.h). Not owned; null means nobody repairs —
  /// orphaned operators stay dark until their node recovers, and the
  /// overload detector observes without acting.
  ControlAgent* recovery = nullptr;

  /// Network-delivery batching: up to `batch_size` tuples entering the
  /// simulated network at the same instant ride one kNetworkDelivery
  /// event (a tuple batch in the network FIFO) instead of one event each,
  /// amortizing queue pushes and pops over operator fan-out.
  /// Provably bit-exact for every value: a batch only forms from
  /// deliveries pushed back-to-back (consecutive sequence numbers) for
  /// the same arrival time, which the (time, seq) total order already
  /// pops consecutively — the batched handler replays the exact
  /// per-tuple order, and per-tuple accounting (bounded queues,
  /// backpressure, shedding, processed-event counts) is unchanged.
  /// 1 disables batching (one event per tuple): the reference setting
  /// engine_batch_test and bench_engine_perf compare the default against.
  size_t batch_size = 64;

  /// Telemetry sink (metrics + trace spans; see docs/TELEMETRY.md). Not
  /// owned; null (the default) disables all recording. Telemetry never
  /// touches the run's random streams or control flow, so results are
  /// bit-identical whether it is attached or not.
  telemetry::Telemetry* telemetry = nullptr;

  /// Incident flight recorder (see telemetry/flight_recorder.h): the
  /// first crash of the run opens an incident — freezing the metrics
  /// snapshot, trace rings, and aggregator window as they stood at the
  /// fault instant — subsequent faults and supervisor milestones append
  /// notes, and the run's IncidentReport is attached when the incident
  /// completes at the end of the run. Observation-only, like
  /// `telemetry`: results are bit-identical with or without it. Not
  /// owned; null disables.
  telemetry::FlightRecorder* flight_recorder = nullptr;
};

/// Latency percentiles over the sink outputs completing in one incident
/// phase (pre-failure / during recovery / post-recovery).
struct PhaseLatency {
  size_t outputs = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// What a mid-run node crash cost, and how the run recovered. Times are
/// virtual seconds; the report covers the run's *first* crash (subsequent
/// faults still execute and contribute to the loss counters).
struct IncidentReport {
  double crash_time = 0.0;
  uint32_t failed_node = 0;

  double detect_time = -1.0;        ///< Supervisor consulted (-1: none).
  double plan_applied_time = -1.0;  ///< Repaired routing live (-1: never).
  size_t operators_moved = 0;       ///< Re-homed by all plan updates.

  // Tuples lost to the incident, by mechanism, plus the total.
  size_t lost_queued = 0;     ///< Queued on a node when it crashed.
  size_t lost_inflight = 0;   ///< Being served on a node when it crashed.
  size_t lost_network = 0;    ///< In transit to a node that was down on
                              ///< delivery.
  size_t rejected_inputs = 0; ///< External tuples rejected because every
                              ///< consumer's node was down.
  size_t lost_tuples = 0;     ///< Sum of the four above.

  // Migration pause bookkeeping (state transfer of moved operators).
  size_t migration_buffered = 0;  ///< Tuples held and replayed.
  size_t migration_shed = 0;      ///< Tuples dropped (shed_during_pause).

  /// Recovery: the first utilization window at/after the repaired plan
  /// went live (or the crash, without a supervisor) from which every
  /// remaining window stays below kRecoveredUtilization.
  bool recovered = false;
  double recovery_time = -1.0;  ///< Crash -> start of that window (s).
  double post_recovery_max_utilization = 0.0;

  /// Accepted fraction of external tuples offered over the whole run:
  /// accepted / (accepted + rejected_inputs + shed).
  double availability = 1.0;

  // Overload breakdown over the whole run (mirrors OverloadStats, so an
  // incident artifact is self-contained).
  size_t overload_shed = 0;            ///< Edge + overflow + directive drops.
  size_t backpressure_deferred = 0;    ///< Deliveries parked by congestion.
  double source_stall_seconds = 0.0;   ///< Summed source pause time.

  PhaseLatency pre_failure;      ///< Outputs completing before the crash.
  PhaseLatency during_recovery;  ///< Crash until recovered (or horizon).
  PhaseLatency post_recovery;    ///< After the recovery point.
};

/// Latency summary of one sink operator's outputs.
struct SinkLatency {
  uint32_t sink_op = 0;
  size_t outputs = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

/// Aggregated results of one run.
struct SimulationResult {
  size_t input_tuples = 0;   ///< External tuples accepted by >= 1 consumer.
  size_t shed_tuples = 0;    ///< External tuples dropped at *every*
                             ///< consumer by load shedding.
  size_t output_tuples = 0;

  // End-to-end latency (seconds) over sink outputs.
  double mean_latency = 0.0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;

  /// Per-sink breakdown, ordered by sink operator id.
  std::vector<SinkLatency> sink_latencies;

  /// Per-operator execution statistics (indexed by operator id) — the raw
  /// material for statistics-driven cost/selectivity calibration
  /// (paper §7.1; see runtime/calibrate.h).
  struct OperatorStats {
    size_t tuples_processed = 0;  ///< Input tuples served (joins: probing
                                  ///< tuples, not pairs).
    size_t pairs_probed = 0;      ///< Join pairs examined (0 for non-joins).
    size_t tuples_emitted = 0;    ///< Output tuples produced.
    double cpu_seconds = 0.0;     ///< CPU time consumed (excl. comm).
  };
  std::vector<OperatorStats> op_stats;

  Vector node_utilization;          ///< busy fraction per node, whole run
  double max_node_utilization = 0.0;
  size_t overloaded_windows = 0;    ///< windows with a pegged node
  size_t total_windows = 0;
  size_t final_backlog = 0;         ///< tasks still queued at the horizon

  /// Heuristic saturation flag: a node was pegged for most of the run or a
  /// large backlog remained — the run's rate point is infeasible for this
  /// placement.
  bool saturated = false;

  /// Discrete events executed by the run (throughput denominator for
  /// bench_engine_perf).
  uint64_t processed_events = 0;

  /// processed_events by type, indexed by EventType. A delivery batch
  /// counts once per tuple and a crash-cancelled completion counts as
  /// kNodeDone, so the entries sum to processed_events.
  std::array<uint64_t, kNumEventTypes> events_by_type{};

  /// Degradation accounting: what the overload machinery (bounded
  /// queues, backpressure, control-loop shedding) did this run. All
  /// zeros when the corresponding knobs are off.
  struct OverloadStats {
    size_t shed_edge = 0;       ///< External tuples dropped at ingress
                                ///< (full bounded queue).
    size_t shed_overflow = 0;   ///< Queued tuples evicted by an overflow
                                ///< policy (internal dataflow included).
    size_t shed_directive = 0;  ///< External tuples dropped by the control
                                ///< agent's ordered shed fraction.
    size_t backpressure_deferred = 0;  ///< Deliveries parked at congested
                                       ///< nodes (later replayed).
    size_t congestion_episodes = 0;    ///< Times a node crossed high water.
    size_t source_stalls = 0;          ///< Times a source was paused.
    double source_stall_seconds = 0.0; ///< Summed source pause time.
    double node_congested_seconds = 0.0;  ///< Summed per-node congestion.
    size_t queue_depth_high_water = 0;  ///< Max tuple-queue depth seen on
                                        ///< any node.
    double overload_detect_time = -1.0; ///< First sustained breach (-1:
                                        ///< never).
    size_t control_consults = 0;   ///< OnOverload calls made.
    double shed_rate_applied = 0.0;  ///< Last directive in force.
    size_t total_shed() const {
      return shed_edge + shed_overflow + shed_directive;
    }
  };
  OverloadStats overload;

  /// Present iff a node crashed during the run (options.failures).
  std::optional<IncidentReport> incident;
};

/// Runs the deployment against one rate trace per input stream (sizes must
/// match). Traces shorter than `duration` fall silent after they end.
Result<SimulationResult> Simulate(const Deployment& deployment,
                                  const std::vector<trace::RateTrace>& inputs,
                                  const SimulationOptions& options = {});

/// Convenience: compile and run in one call.
Result<SimulationResult> SimulatePlacement(
    const query::QueryGraph& graph, const place::Placement& placement,
    const place::SystemSpec& system,
    const std::vector<trace::RateTrace>& inputs,
    const SimulationOptions& options = {});

/// Writes `report` as one inline JSON object — the flight recorder's
/// per-incident "report" member (schema in docs/OBSERVABILITY.md). The
/// engine calls this when completing an incident; exposed so tests and
/// tools can render reports standalone.
void WriteIncidentReportJson(const IncidentReport& report,
                             telemetry::JsonWriter& w);

/// The paper's Borealis-style feasibility probe: run at constant rates `R`
/// and report whether the system stayed un-saturated.
Result<bool> ProbeFeasibleAt(const query::QueryGraph& graph,
                             const place::Placement& placement,
                             const place::SystemSpec& system,
                             std::span<const double> rates,
                             const SimulationOptions& options = {});

}  // namespace rod::sim

#endif  // ROD_RUNTIME_ENGINE_H_
