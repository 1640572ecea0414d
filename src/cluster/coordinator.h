// Copyright (c) the ROD reproduction authors.
//
// The cluster coordinator process: accepts worker registrations, runs ROD
// placement over the registered workers' advertised capacities, ships the
// serialized plan, starts the workload, monitors liveness (a lost control
// connection, or missed heartbeats on one still open), and — when a
// worker dies — drives the *existing* sim::Supervisor
// (behind its ControlAgent interface, exactly as the in-process engine
// does) to compute an incremental repair, then executes it as a plan-diff
// protocol against the survivors: pause the moved operators, collect
// drain acks, ship the diff, collect install acks, resume. Every ack is
// awaited in the one poll loop that judges liveness, so a worker lost
// mid-step aborts the step instead of stalling it. The first failure of
// a run is captured as a sim::IncidentReport (detection delay, repair
// latency, loss breakdown) inside the coordinator's flight recorder,
// mirroring the simulated chaos pipeline with real processes.

#ifndef ROD_CLUSTER_COORDINATOR_H_
#define ROD_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/clock_sync.h"
#include "cluster/transport.h"
#include "cluster/wire.h"
#include "common/net.h"
#include "common/status.h"
#include "placement/rod.h"
#include "query/load_model.h"
#include "query/query_graph.h"
#include "runtime/deployment.h"
#include "runtime/engine.h"
#include "runtime/supervisor.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/http_server.h"
#include "telemetry/telemetry.h"

namespace rod::cluster {

struct CoordinatorOptions {
  /// Control port on 127.0.0.1 (0: ephemeral — see Coordinator::port()).
  uint16_t control_port = 0;

  /// Workers to wait for before planning (required, > 0).
  size_t expected_workers = 0;

  /// Give up if fewer than expected_workers register within this long.
  /// Also bounds each later wait before kStart (no deadline runs yet).
  double register_timeout = 30.0;

  /// Liveness: workers heartbeat every `heartbeat_interval`; a worker
  /// whose last heartbeat is older than `heartbeat_timeout` is declared
  /// failed even while its control connection stays open. A lost control
  /// connection fails the worker without waiting for the deadline. Both
  /// bound every wait after kStart; `heartbeat_timeout` also bounds each
  /// blocking control-socket read or write.
  double heartbeat_interval = 0.25;
  double heartbeat_timeout = 1.0;

  /// Workload: seconds of source generation, emission granularity, base
  /// RNG seed, and per-input-stream rates (resized to the graph's input
  /// count, missing entries filled with `default_rate`).
  double duration = 2.0;
  double tick_seconds = 0.05;
  uint64_t seed = 1;
  std::vector<double> rates;
  double default_rate = 200.0;

  /// Extra wall time after generation ends before finish/shutdown, so
  /// in-flight batches drain.
  double finish_grace = 0.5;

  /// Initial placement knobs (ROD over the registered capacities).
  place::RodOptions rod;

  /// Repair knobs forwarded to the sim::Supervisor (telemetry and
  /// flight_recorder are wired to the coordinator's own plane;
  /// detection_delay is the simulator's and unused here).
  sim::Supervisor::Options supervisor;

  /// Observability plane for the coordinator process itself.
  bool serve_http = false;
  uint16_t http_port = 0;

  /// Clock alignment: after the plan ships, the coordinator runs a few
  /// rounds of kPing to every worker at once before kStart (so offsets
  /// exist from the first batch), then re-probes every
  /// `clock_sync_interval` seconds during the run.
  double clock_sync_interval = 1.0;

  /// When set, the coordinator dumps its Chrome trace here at the end
  /// of Run() (pid 1, offset 0 — the reference clock rod_trace_merge
  /// rebases everything else onto).
  std::string trace_path;
};

/// One worker's accounting, cumulative since kStart, as read from its
/// federated metric registry (see CountersFromSnapshot).
struct WorkerCounters {
  uint64_t generated = 0;        ///< Source tuples this worker emitted.
  uint64_t processed = 0;        ///< Tuples run through hosted operators.
  uint64_t emitted = 0;          ///< Tuples produced by hosted operators.
  uint64_t delivered = 0;        ///< Sink outputs (reached applications).
  uint64_t shipped = 0;          ///< Tuples sent to peer workers.
  uint64_t received = 0;         ///< Tuples received from peer workers.
  uint64_t ship_failures = 0;    ///< Batches that failed to reach a peer.
  uint64_t lost_tuples = 0;      ///< Failed ships + paused-buffer overflow.
  uint64_t paused_buffered = 0;  ///< Tuples buffered against paused ops.
  double busy_seconds = 0.0;     ///< Modeled CPU-seconds consumed.
  double latency_sum = 0.0;      ///< Sum of sink latencies (seconds).
  double latency_max = 0.0;
  uint64_t latency_count = 0;
};

/// Reads a worker's WorkerCounters out of its registry snapshot: the
/// cluster.tuples_* and cluster.ship_failures counters, the
/// cluster.busy_seconds gauge, and the cluster.sink_latency_seconds
/// histogram. Missing families read as zero.
WorkerCounters CountersFromSnapshot(const telemetry::MetricsSnapshot& snap);

/// End-of-run summary: aggregate counters, the shipped plan's history,
/// and the first incident (when a worker died mid-run).
struct ClusterReport {
  size_t num_workers = 0;
  uint64_t plan_version = 0;
  /// Operator -> worker assignment live at the end of the run.
  std::vector<size_t> assignment;

  /// First kPlan send to last kPlanAck received (seconds).
  double plan_ship_seconds = 0.0;

  /// kStart broadcast to final-stats collection (seconds).
  double run_seconds = 0.0;

  WorkerCounters totals;  ///< Sum over all workers (last federated
                          ///< state for workers that died).
  struct WorkerSummary {
    uint32_t worker_id = 0;
    std::string name;
    bool alive = true;
    bool final_stats = false;  ///< Counters include the kFinalStats
                               ///< delta, not just the last report.
    WorkerCounters counters;
    /// Final clock estimate (worker + offset = coordinator clock).
    bool clock_synced = false;
    double clock_offset_us = 0.0;
    double clock_rtt_us = 0.0;
  };
  std::vector<WorkerSummary> workers;

  /// End-to-end inter-worker ship latency, merged over every worker's
  /// offset-corrected `cluster.ship_latency_us` histogram (federated
  /// via kStatsReport). Microseconds on the coordinator clock.
  struct ShipLatency {
    uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };
  ShipLatency ship_latency;

  /// Per-phase durations of the incident's pause -> drain -> reassign ->
  /// resume repair (seconds; valid only after an incident's plan diff).
  struct IncidentPhases {
    bool valid = false;
    double detect_seconds = 0.0;       ///< Last proof of life -> detection.
    double pause_drain_seconds = 0.0;  ///< Pause sends -> last drain ack.
    double reassign_seconds = 0.0;     ///< Diff sends -> last install ack.
    double resume_seconds = 0.0;       ///< Resume broadcast duration.
  };
  IncidentPhases phases;

  /// Workers whose frozen flight-recorder snapshots (kFrozenReport)
  /// arrived before the end of the run. A survivor snapshots at kFreeze
  /// but reports after the repair: at its first heartbeat after kResume,
  /// or before kFinalStats if kFinish comes first. Each snapshot's
  /// `end_us` is its render time, and a survivor lost mid-repair
  /// delivers no report.
  std::vector<uint32_t> frozen_workers;

  bool had_incident = false;
  sim::IncidentReport incident;  ///< First worker failure, engine schema.
};

/// One coordinator lifetime: Listen() (optional, for tests that need the
/// port before spawning workers), then Run() through registration,
/// placement, the monitored run, and shutdown.
class Coordinator {
 public:
  Coordinator(query::QueryGraph graph, CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the control listener; port() is valid afterwards. Run() calls
  /// this implicitly when not already listening.
  Status Listen();
  uint16_t port() const { return listener_.port(); }

  /// Full lifecycle; returns after shutdown. The report survives Run().
  Status Run();

  /// Thread-safe: asks the run loop to wind down at the next poll tick.
  void RequestStop();

  const ClusterReport& report() const { return report_; }

  /// Writes the end-of-run report ({"schema": "rod.cluster_report.v1"}).
  void WriteReportJson(std::ostream& out) const;

  /// The coordinator's incident artifacts (CI uploads this).
  const telemetry::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }
  telemetry::Telemetry& telemetry() { return telemetry_; }
  uint16_t http_port() const { return http_port_; }

 private:
  /// A reply owed by a worker. kPauseAck/kPlanAck also match on plan
  /// version, so a late ack of an aborted diff confirms nothing.
  struct PendingAck {
    MsgType type = MsgType::kPlanAck;
    uint64_t version = 0;
    bool operator==(const PendingAck&) const = default;
  };

  struct WorkerState {
    FrameConn conn;
    uint16_t data_port = 0;
    uint16_t http_port = 0;
    double capacity = 1.0;
    std::string name;
    bool alive = true;
    /// False once a send or recv on the control connection failed (see
    /// LoseConnection); the next deadline pass fails a live worker.
    bool conn_ok = true;
    double last_heartbeat = 0.0;
    bool have_final = false;
    std::optional<PendingAck> pending;  ///< Cleared by its reply.
  };

  /// Everything the federated observability plane knows about one
  /// worker. Written by the control thread, read by the HTTP thread;
  /// guarded by obs_mu_ (the control path touches it briefly per
  /// heartbeat/stats frame, never while blocked on a socket).
  struct WorkerObs {
    std::string name;
    uint16_t http_port = 0;
    bool alive = true;
    uint64_t plan_version = 0;
    double last_seen_us = -1.0;  ///< Coordinator telemetry clock.
    size_t queue_depth = 0;
    std::vector<HeartbeatMsg::OpLoad> loads;
    /// Latest clock estimate (worker + offset = coordinator clock).
    bool clock_synced = false;
    double clock_offset_us = 0.0;
    double clock_rtt_us = 0.0;
    /// Merged kStatsReport / kFinalStats deltas: the worker's metric
    /// registry as the coordinator last saw it (values are cumulative,
    /// so overwrite-merge per family reconstructs the full remote
    /// snapshot). The report's and /cluster.json's counters read it.
    telemetry::MetricsSnapshot merged;
  };

  double Now() const;  ///< Seconds since kStart (0 before).

  Status AcceptRegistrations();
  Status BuildAndShipPlan();
  Status StartRun();
  /// Runs the loop until the run ends, starting each repair in the
  /// iteration of the verdict that called for it.
  Status MonitorLoop();
  Status Finish();
  void StartHttpPlane();

  /// One pass of the coordinator's only loop: polls the stop pipe and the
  /// live control connections for up to `wait` seconds, dispatches what
  /// arrived, then (after kStart) runs the deadline pass.
  Status Step(double wait);
  /// Dispatches one control frame from `worker`; a payload naming another
  /// worker, or an unknown type, counts as cluster.unexpected_frames.
  void HandleFrame(uint32_t worker, const Frame& frame);
  void HandleStatsReport(uint32_t worker, const StatsReportMsg& report);

  /// Sends one frame to `worker`; a failure goes through LoseConnection.
  Status SendTo(uint32_t worker, MsgType type, std::string_view payload);
  /// Sends one frame to every live worker and returns those sent to;
  /// with `reply`, each of them then owes it.
  std::vector<uint32_t> Broadcast(MsgType type, std::string_view payload,
                                  std::optional<PendingAck> reply = {});
  /// Steps the loop until each of `from` has sent its pending reply or
  /// lost its connection (as every verdict does). kUnavailable when one
  /// of them was lost, or before kStart when `register_timeout` passes.
  Status AwaitAcks(const std::vector<uint32_t>& from);
  /// Records that `worker`'s control connection is gone: every failed
  /// send or recv on it ends here. Closes the socket; the verdict is
  /// left to the deadline pass.
  void LoseConnection(uint32_t worker);

  /// The verdict: marks `failed` down, opens the run's incident on the
  /// first one, and makes a repair due now.
  void FailWorker(uint32_t failed, double now);
  /// Re-homes every down worker's operators through the supervisor and a
  /// plan diff; retried after the supervisor's backoff or next verdict.
  void Repair(double now);
  Status ExecutePlanDiff(const sim::PlanUpdate& update);

  /// Initial alignment: ping rounds, then one kClockSync broadcast.
  Status SyncClocks();
  /// Pings every live worker (each then owes a kPong); returns those.
  std::vector<uint32_t> SendPings();
  void BroadcastClockSync();
  /// Copies worker `i`'s estimator state into obs_ and the coordinator
  /// gauges (cluster.clock_offset_us.w<i> / cluster.rtt_us.w<i>).
  void PublishClockEstimate(uint32_t i);

  /// Federated plane renderers (HTTP thread; lock obs_mu_ inside).
  std::string RenderFederatedMetrics() const;
  void WriteClusterSummaryJson(std::ostream& out) const;
  void DumpTrace() const;

  query::QueryGraph graph_;
  CoordinatorOptions options_;

  FrameListener listener_;
  net::SelfPipe stop_pipe_;
  std::vector<WorkerState> workers_;

  // Planning state.
  std::unique_ptr<query::LoadModel> model_;
  std::unique_ptr<sim::Supervisor> supervisor_;
  place::SystemSpec system_;
  sim::Deployment deployment_;
  std::vector<size_t> assignment_;
  std::vector<uint32_t> source_owner_;
  uint64_t plan_version_ = 0;

  // Run state.
  bool started_ = false;
  double run_epoch_ = 0.0;
  bool stop_requested_ = false;  ///< RequestStop() seen by Step.
  double repair_at_ = -1.0;     ///< Run clock a repair is due, -1: none.
  uint32_t repair_node_ = 0;    ///< The failure it answers.

  // Clock alignment state (control thread only).
  std::vector<ClockSyncEstimator> clock_sync_;
  uint64_t ping_seq_ = 0;
  double next_ping_ = 0.0;      ///< Run clock; 0 = ping immediately.
  bool clock_dirty_ = false;    ///< Estimates moved since last broadcast.

  // Distributed flight recorder state (control thread only).
  uint64_t incident_id_ = 0;    ///< Last broadcast freeze, 0 = none.
  std::map<uint32_t, std::string> frozen_reports_;  ///< worker -> JSON.

  ClusterReport report_;

  // Federated observability store (control thread writes, HTTP thread
  // reads; see WorkerObs).
  mutable std::mutex obs_mu_;
  std::vector<WorkerObs> obs_;
  std::atomic<uint64_t> plan_version_pub_{0};  ///< For the HTTP thread.
  std::atomic<bool> ready_{false};  ///< Plan shipped (gates /readyz).

  // Observability plane.
  telemetry::Telemetry telemetry_;
  telemetry::FlightRecorder flight_recorder_{&telemetry_};
  telemetry::HttpServer http_;
  uint16_t http_port_ = 0;
  FrameMetrics frame_metrics_{&telemetry_};
};

}  // namespace rod::cluster

#endif  // ROD_CLUSTER_COORDINATOR_H_
