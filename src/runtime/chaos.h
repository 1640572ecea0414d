// Copyright (c) the ROD reproduction authors.
//
// Fault injection for the tuple-level engine. A FailureSchedule describes
// node crash / recover / slowdown events — plus per-stream load spikes —
// at virtual timestamps; the engine replays them inside the Simulate
// event loop. A crashed node drops its queued and in-flight tasks
// (counted as lost tuples) and rejects new arrivals until it recovers.
//
// A ControlAgent is the engine's supervision hook: it is consulted one
// detection delay after each crash (OnFailureDetected, may re-home
// operators; see runtime/supervisor.h for the production implementation
// built on place::RepairPlacement) and on sustained overload
// (OnOverload, may order a shed rate or an incremental re-placement).

#ifndef ROD_RUNTIME_CHAOS_H_
#define ROD_RUNTIME_CHAOS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "runtime/deployment.h"

namespace rod::sim {

/// What happens at a scheduled fault instant.
enum class FaultKind {
  kCrash,      ///< Node goes down: queued + in-flight tasks are lost,
               ///< arrivals are rejected until recovery.
  kRecover,    ///< Node comes back up, empty, at full capacity.
  kSlowdown,   ///< Node capacity is multiplied by `factor` (straggler /
               ///< co-tenant interference; > 1 models a speedup).
  kLoadSpike,  ///< Input stream `node`'s arrival rate is multiplied by
               ///< `factor` from this instant on (flash crowd; < 1
               ///< models a lull, 1 restores the trace).
};

/// One scheduled fault. `node` is a node id, except for kLoadSpike where
/// it indexes the input stream whose rate is scaled.
struct FaultEvent {
  double time = 0.0;
  uint32_t node = 0;
  FaultKind kind = FaultKind::kCrash;
  double factor = 1.0;  ///< Multiplier (kSlowdown / kLoadSpike only).
};

/// A time-ordered script of faults for one simulation run. Build with the
/// fluent CrashAt/RecoverAt/SlowdownAt/LoadSpikeAt calls; the engine
/// validates the script against the cluster before the run starts.
class FailureSchedule {
 public:
  FailureSchedule& CrashAt(double time, uint32_t node);
  FailureSchedule& RecoverAt(double time, uint32_t node);
  FailureSchedule& SlowdownAt(double time, uint32_t node, double factor);
  /// Scales input stream `stream`'s arrival rate by `factor` from `time`
  /// on (the multiplier persists until the next spike on that stream).
  FailureSchedule& LoadSpikeAt(double time, uint32_t stream, double factor);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// OK iff every event is well formed: node events target a node <
  /// `num_nodes` at a time >= 0, multipliers are positive, no node
  /// crashes twice without recovering in between, recoveries only follow
  /// crashes, slowdowns never target a node that is down at that instant
  /// (same-instant events apply in insertion order, matching the engine's
  /// replay), and load spikes target a stream < `num_streams`.
  Status Validate(size_t num_nodes, size_t num_streams) const;

  /// Legacy single-arg form: node checks only; any kLoadSpike event is
  /// rejected because the stream universe is unknown.
  Status Validate(size_t num_nodes) const;

 private:
  std::vector<FaultEvent> events_;
};

/// A re-homing decision returned by a ControlAgent.
struct PlanUpdate {
  /// New operator -> node assignment (size = number of operators). The
  /// engine re-routes in place via ReassignOperators.
  std::vector<size_t> assignment;

  /// Migration pause: every *moved* operator is unavailable for this many
  /// seconds after the plan is applied (state transfer). Tuples arriving
  /// for a paused operator are buffered and replayed at pause end, or shed
  /// when `shed_during_pause` is set.
  double migration_pause = 0.0;
  bool shed_during_pause = false;
};

/// What the engine observed when it escalated a sustained overload to the
/// control agent (see SimulationOptions::overload for the detector).
struct OverloadSignal {
  double time = 0.0;           ///< Consultation instant (virtual seconds).
  uint32_t hot_node = 0;       ///< Node with the deepest tuple queue.
  size_t queue_depth = 0;      ///< Its queued tuple tasks right now.
  size_t queue_high_water = 0; ///< Detector threshold that was breached.
  double recent_max_latency = 0.0;  ///< Max sink latency since the last
                                    ///< detector tick (0 when none).
  double sustained_seconds = 0.0;   ///< How long the breach has held.
  /// Per-input-stream arrival rates observed over the last detector
  /// window (tuples/second) — the demand the decision must absorb.
  std::vector<double> observed_rates;
  /// Node liveness at the consultation instant.
  std::vector<bool> node_up;
};

/// What a ControlAgent orders in response to an overload signal. Both
/// actions may be combined; the default-constructed decision is a no-op.
struct OverloadDecision {
  /// Fraction of external arrivals to drop at the sources until the
  /// overload clears (0 = none, 1 = all). Replaces any prior rate.
  double shed_fraction = 0.0;

  /// Optional incremental re-placement, applied exactly like a repair
  /// plan (including its migration pause).
  std::optional<PlanUpdate> plan;
};

/// Supervision hook: the engine consults the agent one detection_delay()
/// after each crash, after each failed repair (RepairRetryDelay), and on
/// sustained overload. Implementations see the current node up/down map
/// and routing tables and may return a repaired plan (or nullopt to leave
/// the placement unchanged).
class ControlAgent {
 public:
  virtual ~ControlAgent() = default;

  /// Seconds between a crash and the supervisor noticing it. Simulate
  /// reads it once at set-up and rejects a value that is negative or not
  /// finite.
  virtual double detection_delay() const = 0;

  virtual std::optional<PlanUpdate> OnFailureDetected(
      double now, uint32_t failed_node, const std::vector<bool>& node_up,
      const Deployment& deployment) = 0;

  /// Consulted right after OnFailureDetected returns nullopt: a positive
  /// delay re-schedules the detection that many seconds later (retry with
  /// backoff); 0 (the default) accepts the nullopt as final.
  virtual double RepairRetryDelay() { return 0.0; }

  /// Consulted when the overload detector's breach has been sustained
  /// (see SimulationOptions::overload). Return nullopt to observe only.
  virtual std::optional<OverloadDecision> OnOverload(
      const OverloadSignal& signal, const Deployment& deployment) {
    (void)signal;
    (void)deployment;
    return std::nullopt;
  }

  /// Notified when a previously signalled overload drains below the
  /// detector's clear threshold (any ordered shed rate has been lifted).
  virtual void OnOverloadCleared(double now) { (void)now; }
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_CHAOS_H_
