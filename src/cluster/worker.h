// Copyright (c) the ROD reproduction authors.
//
// The cluster worker process: hosts the operator partition assigned to it
// by the coordinator, executes tuple batches through the compiled routing
// tables (the same CompileDeployment / ReassignOperators machinery the
// in-process engine runs on), ships cross-node batches to peer workers
// over the framed transport, generates its share of the source streams,
// sends periodic heartbeats with per-operator load reports, and serves
// the per-process observability plane (/metrics, /healthz, flight
// recorder) so every process in a real deployment is scrapeable.
//
// Concurrency model: one poll()-based event loop owns every socket and
// all execution state — control connection, data listener, peer
// connections, timers (heartbeat, source tick) — so no
// locks guard the routing tables; the HTTP plane runs on its own thread
// and only touches the (thread-safe) telemetry registry. A pause request
// is therefore trivially a drain barrier: when the loop picks kPause off
// the control socket, no batch is in flight inside this process, so the
// PauseAck it sends back *is* the drain confirmation.

#ifndef ROD_CLUSTER_WORKER_H_
#define ROD_CLUSTER_WORKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/transport.h"
#include "cluster/wire.h"
#include "common/net.h"
#include "common/random.h"
#include "common/status.h"
#include "runtime/deployment.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/http_server.h"
#include "telemetry/telemetry.h"

namespace rod::cluster {

struct WorkerOptions {
  /// Coordinator control port on 127.0.0.1 (required).
  uint16_t coordinator_port = 0;

  /// Data-plane listen port for peer tuple batches (0: ephemeral).
  uint16_t data_port = 0;

  /// Observability plane port (0: ephemeral); serve_http gates it.
  uint16_t http_port = 0;
  bool serve_http = true;

  /// Advertised CPU capacity (CPU-seconds per second, paper §2.1).
  double capacity = 1.0;

  /// Diagnostic label; defaults to "worker-<pid>".
  std::string name;

  /// Give up dialing the coordinator after this long (startup only).
  double connect_timeout = 10.0;

  /// Peer ship failures park the peer for this long before redialing, so
  /// a dead worker costs one failed dial per cooldown, not per batch.
  double peer_retry_cooldown = 0.25;

  /// When set, the worker dumps its Chrome trace here after the event
  /// loop exits, stamped with its name, worker id, and last
  /// coordinator-distributed clock offset so tools/rod_trace_merge can
  /// rebase it onto the coordinator clock.
  std::string trace_path;
};

/// One worker process's lifetime: construct, Run() until the coordinator
/// orders shutdown (or the control connection dies), destruct.
class Worker {
 public:
  explicit Worker(WorkerOptions options);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Connects, registers, then serves the event loop. Returns OK after a
  /// clean kShutdown; kUnavailable when the coordinator went away.
  Status Run();

  /// Thread-safe: asks the event loop to exit (used by in-process tests;
  /// real deployments stop via kShutdown or a signal).
  void RequestStop();

  /// Introspection (valid after Run() returned, or racily during).
  uint32_t worker_id() const { return worker_id_; }
  uint16_t http_port() const { return http_port_; }
  /// The metric registry: the only record of this worker's accounting
  /// (cluster.tuples_*, cluster.busy_seconds, ...).
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

 private:
  struct BufferedBatch {
    uint32_t op = 0;
    uint32_t port = 0;
    uint32_t count = 0;
    double create_time = 0.0;
  };

  /// A freeze whose report is owed, with the report's fields as of the
  /// freeze.
  struct OwedReport {
    uint64_t incident_id = 0;
    uint64_t plan_version = 0;
    double uptime = 0.0;
    size_t queue_depth = 0;
    bool resumed = false;  ///< kResume seen: send at the next tick.
  };

  /// A peer worker's data-plane connection state.
  struct Peer {
    FrameConn conn;
    uint16_t data_port = 0;
    double down_until = -1.0;  ///< Run-clock time before which we skip
                               ///< redial attempts (after a failure).
  };

  Status Connect();
  Status EventLoop();
  double Now() const;  ///< Seconds since kStart (0 before).

  Status HandleControlFrame(const Frame& frame);
  Status InstallPlan(const PlanMsg& plan);
  void ApplyPlanDiff(const PlanDiffMsg& diff);
  void HandleDataFrame(const Frame& frame);

  /// Routes `count` tuples into operator `op` at `port`: buffers when the
  /// operator is paused, executes locally when this worker hosts it,
  /// ships to the hosting peer otherwise.
  void Dispatch(uint32_t op, uint32_t port, uint32_t count,
                double create_time);
  void ProcessLocal(uint32_t op, uint32_t count, double create_time);
  void ShipTo(uint32_t peer_id, uint32_t op, uint32_t port, uint32_t count,
              double create_time);
  /// The one loss-accounting point: `count` tuples dropped by a failed
  /// ship (`ship_failure`) or by paused-buffer overflow.
  void CountLoss(uint32_t count, bool ship_failure);
  void FlushPausedBuffers();

  void GenerateSources(double now, double dt);
  void SendHeartbeat(double now);
  /// The metric-registry delta since the previous call, for the
  /// coordinator's federated plane (kStatsReport / kFinalStats).
  StatsReportMsg TakeStatsDelta();
  /// Freezes the flight recorder at the coordinator-ordered instant and
  /// keeps the report's fields as of that instant. The report is owed
  /// until SendFrozenReport, so the repair that follows the freeze does
  /// not wait on its rendering.
  void HandleFreeze(const FreezeMsg& freeze);
  /// Renders the owed incident and sends it (kFrozenReport): at the first
  /// heartbeat tick after kResume, or ahead of kFinalStats when kFinish
  /// comes first.
  Status SendFrozenReport();
  void InstallClockSync(const ClockSyncMsg& sync);
  void DumpTrace() const;
  void StartHttpPlane();

  WorkerOptions options_;

  // Protocol state.
  FrameConn control_;
  FrameListener data_listener_;
  std::vector<FrameConn> inbound_;  ///< Accepted peer data connections.
  std::map<uint32_t, Peer> peers_;  ///< Outbound, keyed by worker id.
  net::SelfPipe stop_pipe_;
  uint32_t worker_id_ = 0;
  uint32_t num_workers_ = 0;
  double heartbeat_interval_ = 0.5;
  uint64_t heartbeat_seq_ = 0;

  // Deployment state (event-loop thread only).
  bool have_plan_ = false;
  uint64_t plan_version_ = 0;
  query::QueryGraph graph_;
  sim::Deployment deployment_;
  std::vector<size_t> assignment_;     ///< Current op -> worker id.
  std::vector<uint32_t> source_owner_; ///< stream -> generating worker.
  std::vector<char> paused_;           ///< Per-operator migration fence.
  std::vector<BufferedBatch> paused_buffers_;
  std::vector<double> emit_carry_;     ///< Fractional emission per op.

  // Workload state.
  bool started_ = false;
  bool generating_ = false;
  StartMsg start_;
  std::vector<double> gen_carry_;      ///< Fractional arrivals per stream.
  double run_epoch_ = 0.0;             ///< steady-clock seconds at kStart.
  double last_gen_time_ = 0.0;         ///< Run-clock time of the last tick.
  double next_heartbeat_ = 0.0;
  double next_tick_ = 0.0;
  Rng rng_{1};

  // Per-operator loads for the heartbeat, and the running CPU total
  // behind the cluster.busy_seconds gauge.
  std::vector<uint64_t> op_processed_;
  std::vector<double> op_busy_;
  double busy_seconds_ = 0.0;

  // Cluster clock view (event-loop thread only): the latest
  // coordinator-distributed offsets per worker id, in microseconds on
  // each worker's telemetry clock (worker + offset = coordinator).
  std::vector<double> clock_offset_us_;
  std::vector<char> have_offset_;

  // Last-reported registry state, for kStatsReport deltas (values are
  // cumulative; only changed families are resent).
  std::map<std::string, uint64_t> reported_counter_values_;
  std::map<std::string, double> reported_gauges_;
  std::map<std::string, uint64_t> reported_hist_counts_;

  // Observability plane.
  std::atomic<bool> ready_{false};  ///< Plan installed (gates /readyz).
  telemetry::Telemetry telemetry_;
  telemetry::FlightRecorder flight_recorder_{&telemetry_};
  /// Event-loop thread only. A second freeze before the report replaces
  /// the first (the flight recorder counts the first abandoned).
  std::optional<OwedReport> owed_report_;
  telemetry::HttpServer http_;
  uint16_t http_port_ = 0;
  FrameMetrics frame_metrics_{&telemetry_};
  telemetry::Histogram ship_latency_;
  telemetry::Histogram sink_latency_;
};

}  // namespace rod::cluster

#endif  // ROD_CLUSTER_WORKER_H_
