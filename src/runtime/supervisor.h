// Copyright (c) the ROD reproduction authors.
//
// Supervised recovery for the tuple-level engine. The Supervisor is the
// ControlAgent the engine consults when it detects a crash: it derives
// the current placement from the live routing tables, re-homes the
// orphaned operators with place::RepairPlacement (incremental ROD over
// the surviving nodes, plus an optional bounded rebalance), and returns
// the new assignment together with a per-moved-operator migration pause
// that models state transfer. A naive dump-on-one-node policy is provided
// as the baseline the repair path must beat.
//
// Hardening (DESIGN.md §11): failed repairs are retried with doubling
// backoff instead of being abandoned; nodes that crash repeatedly are
// quarantined — treated as down by every subsequent repair even while
// nominally up — so a flapping node stops reabsorbing operators it will
// drop again; and on sustained overload the supervisor chooses between
// shedding load at the sources and an incremental re-placement via an
// explicit cost model (expected tuples lost to migration pauses vs.
// expected tuples lost to shedding over the overload horizon).

#ifndef ROD_RUNTIME_SUPERVISOR_H_
#define ROD_RUNTIME_SUPERVISOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "placement/repair.h"
#include "query/load_model.h"
#include "runtime/chaos.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace rod::sim {

class Supervisor : public ControlAgent {
 public:
  /// How the supervisor re-homes orphans.
  enum class Policy {
    kRepair,     ///< place::RepairPlacement over the survivors.
    kNaiveDump,  ///< Every orphan onto the lowest-numbered up node.
    kNone,       ///< Observe only; leave the placement untouched.
  };

  struct Options {
    /// Seconds between a crash and the supervisor noticing it (failure
    /// detector timeout). Finite and >= 0, or Simulate rejects the run.
    double detection_delay = 0.5;

    /// Each moved operator is unavailable for this long after the plan is
    /// applied (state transfer); arrivals buffer (default) or shed.
    double migration_pause = 0.0;
    bool shed_during_pause = false;

    Policy policy = Policy::kRepair;

    /// RepairOptions::max_rebalance_moves for the kRepair policy.
    size_t rebalance_budget = 0;

    /// ROD knobs for the incremental repair (kMinCrossArcs is not
    /// supported incrementally and is rejected by RepairPlacement).
    place::RodOptions rod;

    /// When a repair attempt fails, re-try it up to this many times with
    /// doubling backoff starting at `repair_retry_backoff` seconds and
    /// capped at `repair_retry_backoff_max` (0 retries = fail fast).
    size_t max_repair_retries = 3;
    double repair_retry_backoff = 0.5;
    double repair_retry_backoff_max = 8.0;

    /// Quarantine a node after it has crashed this many times: every
    /// later repair treats it as down even while it is nominally up, so
    /// a flapping node cannot keep reabsorbing operators. 0 disables.
    size_t quarantine_after = 0;

    /// Overload response knobs (OnOverload). When the cost model picks
    /// shedding, this fraction of external arrivals is dropped at the
    /// sources until the overload clears.
    double overload_shed_fraction = 0.5;

    /// Expected remaining overload duration (seconds) the cost model
    /// charges against the shed option.
    double overload_horizon = 5.0;

    /// RepairOptions::max_rebalance_moves for the overload re-placement
    /// candidate. 0 disables re-placement: overload always sheds.
    size_t overload_rebalance_budget = 0;

    /// Telemetry sink ("supervisor.repair" spans, supervisor.* counters).
    /// Not owned; null disables.
    telemetry::Telemetry* telemetry = nullptr;

    /// Incident flight recorder: detection and repair milestones are
    /// appended as timestamped notes to the calling thread's pending
    /// incident (opened by the engine at the crash instant). Not owned;
    /// null disables.
    telemetry::FlightRecorder* flight_recorder = nullptr;
  };

  /// `model` must describe the deployed query graph and outlive the
  /// supervisor.
  Supervisor(const query::LoadModel& model, Options options)
      : model_(&model), options_(std::move(options)) {}

  double detection_delay() const override {
    return options_.detection_delay;
  }

  std::optional<PlanUpdate> OnFailureDetected(
      double now, uint32_t failed_node, const std::vector<bool>& node_up,
      const Deployment& deployment) override;

  /// Doubling backoff after a failed repair: retry k (1-based) waits
  /// `repair_retry_backoff * 2^(k-1)` seconds, capped at
  /// `repair_retry_backoff_max`; 0 once `max_repair_retries` attempts
  /// have been burned or the last attempt succeeded.
  double RepairRetryDelay() override;

  /// Cost-model overload response: candidate incremental re-placement
  /// (RepairPlacement with the overload rebalance budget over the up,
  /// non-quarantined nodes) vs. shedding `overload_shed_fraction` at the
  /// sources for `overload_horizon` seconds; the cheaper option in
  /// expected lost tuples wins.
  std::optional<OverloadDecision> OnOverload(
      const OverloadSignal& signal, const Deployment& deployment) override;

  void OnOverloadCleared(double now) override;

  /// Introspection for tests and benchmarks.
  size_t repairs_performed() const { return repairs_; }
  size_t operators_moved() const { return operators_moved_; }
  double last_plane_distance() const { return last_plane_distance_; }
  const Status& last_status() const { return last_status_; }
  size_t repair_retries() const { return repair_retries_; }
  size_t overload_consults() const { return overload_consults_; }
  size_t overload_rebalances() const { return overload_rebalances_; }
  size_t overload_sheds() const { return overload_sheds_; }
  double last_shed_fraction() const { return last_shed_fraction_; }
  bool quarantined(uint32_t node) const {
    return node < quarantined_.size() && quarantined_[node] != 0;
  }
  size_t num_quarantined() const;

  /// Returns the supervisor to its just-constructed state: introspection
  /// counters, retry backoff, crash history, and quarantine set are all
  /// cleared. Sweep and bench harnesses call this between runs so one
  /// supervisor can serve a whole grid without cross-run leakage.
  void Reset();

 private:
  /// Counts up->down transitions per node (for quarantine) from the
  /// liveness maps the engine hands us; idempotent for repeated calls
  /// with the same map (a retried detection is not a second crash).
  void ObserveLiveness(const std::vector<bool>& node_up);

  const query::LoadModel* model_;
  Options options_;
  size_t repairs_ = 0;
  size_t operators_moved_ = 0;
  double last_plane_distance_ = 0.0;
  Status last_status_ = Status::OK();

  // Retry state: armed by a failed repair, consumed by RepairRetryDelay,
  // cleared by the next success.
  bool retry_pending_ = false;
  size_t retries_attempted_ = 0;
  size_t repair_retries_ = 0;

  // Crash history and quarantine.
  std::vector<bool> last_known_up_;
  std::vector<size_t> crash_counts_;
  std::vector<char> quarantined_;

  // Overload response state.
  size_t overload_consults_ = 0;
  size_t overload_rebalances_ = 0;
  size_t overload_sheds_ = 0;
  double last_shed_fraction_ = 0.0;
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_SUPERVISOR_H_
