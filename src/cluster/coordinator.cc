#include "cluster/coordinator.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "telemetry/exposition.h"
#include "telemetry/json_writer.h"

namespace rod::cluster {

namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ping rounds between plan ship and kStart (min-RTT needs a few).
constexpr int kClockSyncRounds = 4;

void AddCounters(WorkerCounters& into, const WorkerCounters& from) {
  into.generated += from.generated;
  into.processed += from.processed;
  into.emitted += from.emitted;
  into.delivered += from.delivered;
  into.shipped += from.shipped;
  into.received += from.received;
  into.ship_failures += from.ship_failures;
  into.lost_tuples += from.lost_tuples;
  into.paused_buffered += from.paused_buffered;
  into.busy_seconds += from.busy_seconds;
  into.latency_sum += from.latency_sum;
  into.latency_max = std::max(into.latency_max, from.latency_max);
  into.latency_count += from.latency_count;
}

void WriteCountersJson(const WorkerCounters& c, telemetry::JsonWriter& w) {
  w.BeginObjectInline();
  w.Key("generated").Uint(c.generated);
  w.Key("processed").Uint(c.processed);
  w.Key("emitted").Uint(c.emitted);
  w.Key("delivered").Uint(c.delivered);
  w.Key("shipped").Uint(c.shipped);
  w.Key("received").Uint(c.received);
  w.Key("ship_failures").Uint(c.ship_failures);
  w.Key("lost_tuples").Uint(c.lost_tuples);
  w.Key("paused_buffered").Uint(c.paused_buffered);
  w.Key("busy_seconds").Double(c.busy_seconds);
  w.Key("latency_mean")
      .Double(c.latency_count > 0
                  ? c.latency_sum / static_cast<double>(c.latency_count)
                  : 0.0);
  w.Key("latency_max").Double(c.latency_max);
  w.EndObject();
}

void WritePhasesJson(const ClusterReport::IncidentPhases& p,
                     telemetry::JsonWriter& w) {
  w.BeginObjectInline();
  w.Key("valid").Bool(p.valid);
  w.Key("detect_seconds").Double(p.detect_seconds);
  w.Key("pause_drain_seconds").Double(p.pause_drain_seconds);
  w.Key("reassign_seconds").Double(p.reassign_seconds);
  w.Key("resume_seconds").Double(p.resume_seconds);
  w.EndObject();
}

void WriteShipLatencyJson(const ClusterReport::ShipLatency& s,
                          telemetry::JsonWriter& w) {
  w.BeginObjectInline();
  w.Key("count").Uint(s.count);
  w.Key("mean_us").Double(s.mean_us);
  w.Key("p50_us").Double(s.p50_us);
  w.Key("p99_us").Double(s.p99_us);
  w.Key("max_us").Double(s.max_us);
  w.EndObject();
}

}  // namespace

WorkerCounters CountersFromSnapshot(const telemetry::MetricsSnapshot& snap) {
  const auto count = [&snap](const char* name) -> uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  WorkerCounters c;
  c.generated = count("cluster.tuples_generated");
  c.processed = count("cluster.tuples_processed");
  c.emitted = count("cluster.tuples_emitted");
  c.delivered = count("cluster.tuples_delivered");
  c.shipped = count("cluster.tuples_shipped");
  c.received = count("cluster.tuples_received");
  c.ship_failures = count("cluster.ship_failures");
  c.lost_tuples = count("cluster.tuples_lost");
  c.paused_buffered = count("cluster.tuples_paused_buffered");
  const auto busy = snap.gauges.find("cluster.busy_seconds");
  if (busy != snap.gauges.end()) c.busy_seconds = busy->second;
  const auto sink = snap.histograms.find("cluster.sink_latency_seconds");
  if (sink != snap.histograms.end()) {
    c.latency_sum = sink->second.sum;
    c.latency_max = sink->second.max;
    c.latency_count = sink->second.count;
  }
  return c;
}

Coordinator::Coordinator(query::QueryGraph graph, CoordinatorOptions options)
    : graph_(std::move(graph)), options_(std::move(options)) {
  // Register the coordinator's cluster.* families at zero so /metrics
  // exposes the full set from the first scrape.
  for (const char* name :
       {"cluster.workers_registered", "cluster.heartbeats_received",
        "cluster.failures_detected", "cluster.plan_ships",
        "cluster.plan_diffs", "cluster.operator_moves",
        "cluster.final_stats_collected", "cluster.clock_syncs_sent",
        "cluster.stats_reports_received", "cluster.freezes_broadcast",
        "cluster.frozen_reports_received", "cluster.unexpected_frames"}) {
    telemetry_.Count(name, 0);
  }
  telemetry_.SetGauge("cluster.workers_alive", 0.0);
  telemetry_.SetGauge("cluster.plan_version", 0.0);
}

Coordinator::~Coordinator() { http_.Stop(); }

void Coordinator::RequestStop() { stop_pipe_.Notify(); }

double Coordinator::Now() const {
  return started_ ? MonotonicSeconds() - run_epoch_ : 0.0;
}

Status Coordinator::Listen() {
  if (listener_.listening()) return Status::OK();
  if (options_.expected_workers == 0) {
    return Status::InvalidArgument("expected_workers must be > 0");
  }
  std::string error;
  if (!stop_pipe_.open() && !stop_pipe_.Open(&error)) {
    return Status::Internal("self-pipe: " + error);
  }
  ROD_RETURN_IF_ERROR(listener_.Listen(options_.control_port));
  listener_.set_metrics(&frame_metrics_);
  if (options_.serve_http) StartHttpPlane();
  return Status::OK();
}

Status Coordinator::Run() {
  ROD_RETURN_IF_ERROR(Listen());
  ROD_RETURN_IF_ERROR(AcceptRegistrations());
  ROD_RETURN_IF_ERROR(BuildAndShipPlan());
  ROD_RETURN_IF_ERROR(SyncClocks());
  ROD_RETURN_IF_ERROR(StartRun());
  ROD_RETURN_IF_ERROR(MonitorLoop());
  const Status finished = Finish();
  if (!options_.trace_path.empty()) DumpTrace();
  return finished;
}

Status Coordinator::AcceptRegistrations() {
  const double deadline = MonotonicSeconds() + options_.register_timeout;
  while (workers_.size() < options_.expected_workers) {
    const double wait = deadline - MonotonicSeconds();
    if (wait <= 0.0) {
      return Status::Unavailable(
          "only " + std::to_string(workers_.size()) + " of " +
          std::to_string(options_.expected_workers) +
          " workers registered before the deadline");
    }
    pollfd fds[2] = {{stop_pipe_.read_fd(), POLLIN, 0},
                     {listener_.fd(), POLLIN, 0}};
    const int ready =
        ::poll(fds, 2, static_cast<int>(std::ceil(wait * 1000.0)));
    if (ready < 0 && errno != EINTR) return Status::Internal("poll failed");
    if (ready <= 0) continue;
    if (fds[0].revents != 0) {
      return Status::Unavailable("stopped during registration");
    }
    if (fds[1].revents == 0) continue;

    auto conn = listener_.Accept(options_.heartbeat_timeout);
    if (!conn.ok()) continue;
    Frame frame;
    if (!conn->Recv(&frame).ok() || frame.type != MsgType::kHello) continue;
    auto hello = HelloMsg::Decode(frame.payload);
    if (!hello.ok()) continue;

    WorkerState state;
    state.conn = std::move(conn.value());
    state.data_port = hello->data_port;
    state.http_port = hello->http_port;
    state.capacity = hello->capacity;
    state.name = hello->name;

    WelcomeMsg welcome;
    welcome.worker_id = static_cast<uint32_t>(workers_.size());
    welcome.num_workers = static_cast<uint32_t>(options_.expected_workers);
    welcome.heartbeat_interval = options_.heartbeat_interval;
    welcome.heartbeat_timeout = options_.heartbeat_timeout;
    if (!state.conn.Send(MsgType::kWelcome, welcome.Encode()).ok()) continue;

    workers_.push_back(std::move(state));
    telemetry_.Count("cluster.workers_registered", 1);
    telemetry_.SetGauge("cluster.workers_alive",
                        static_cast<double>(workers_.size()));
  }
  report_.num_workers = workers_.size();

  clock_sync_.assign(workers_.size(), ClockSyncEstimator());
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    obs_.resize(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      obs_[i].name = workers_[i].name;
      obs_[i].http_port = workers_[i].http_port;
    }
  }
  return Status::OK();
}

Status Coordinator::BuildAndShipPlan() {
  auto model = query::BuildLinearizedLoadModel(graph_);
  if (!model.ok()) return model.status();
  model_ = std::make_unique<query::LoadModel>(std::move(model.value()));

  system_.capacities.clear();
  for (const WorkerState& worker : workers_) {
    system_.capacities.push_back(worker.capacity);
  }

  auto placement = place::RodPlace(*model_, system_, options_.rod, &graph_);
  if (!placement.ok()) return placement.status();
  assignment_ = placement->assignment();

  auto deployment = sim::CompileDeployment(graph_, *placement, system_);
  if (!deployment.ok()) return deployment.status();
  deployment_ = std::move(deployment.value());

  // Each input stream is generated by the worker hosting its first
  // consumer, so source batches enter the dataflow without a hop.
  source_owner_.assign(graph_.num_input_streams(), 0);
  for (size_t s = 0; s < deployment_.input_routes.size(); ++s) {
    if (deployment_.input_routes[s].empty()) continue;
    const uint32_t op = deployment_.input_routes[s][0].to_op;
    source_owner_[s] = static_cast<uint32_t>(assignment_[op]);
  }

  // The supervisor that will repair worker failures: the same ControlAgent
  // the in-process engine consults, driven here by MonitorLoop's verdicts.
  sim::Supervisor::Options sup = options_.supervisor;
  sup.telemetry = &telemetry_;
  sup.flight_recorder = &flight_recorder_;
  supervisor_ = std::make_unique<sim::Supervisor>(*model_, std::move(sup));

  // Ship the plan and clock first-send -> last-ack.
  plan_version_ = 1;
  PlanMsg plan;
  plan.version = plan_version_;
  plan.graph = graph_;
  plan.assignment.assign(assignment_.begin(), assignment_.end());
  plan.capacities = system_.capacities;
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    plan.endpoints.push_back({i, workers_[i].data_port});
  }
  plan.source_owner = source_owner_;

  const double ship_begin = MonotonicSeconds();
  ROD_RETURN_IF_ERROR(
      AwaitAcks(Broadcast(MsgType::kPlan, plan.Encode(),
                          PendingAck{MsgType::kPlanAck, plan_version_})));
  report_.plan_ship_seconds = MonotonicSeconds() - ship_begin;
  report_.plan_version = plan_version_;
  telemetry_.Count("cluster.plan_ships", 1);
  telemetry_.SetGauge("cluster.plan_version",
                      static_cast<double>(plan_version_));
  plan_version_pub_.store(plan_version_, std::memory_order_release);
  ready_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Coordinator::SyncClocks() {
  ROD_TRACE_SPAN(&telemetry_, "cluster", "clock.sync");
  for (int round = 0; round < kClockSyncRounds; ++round) {
    ROD_RETURN_IF_ERROR(AwaitAcks(SendPings()));
  }
  BroadcastClockSync();
  return Status::OK();
}

std::vector<uint32_t> Coordinator::SendPings() {
  std::vector<uint32_t> pinged;
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].alive || !workers_[i].conn_ok) continue;
    PingMsg ping;
    ping.seq = ++ping_seq_;
    ping.t1_us = telemetry_.NowMicros();  // Per worker: t1 is its send.
    workers_[i].pending = PendingAck{MsgType::kPong};
    (void)SendTo(i, MsgType::kPing, ping.Encode());
    pinged.push_back(i);
  }
  return pinged;
}

void Coordinator::PublishClockEstimate(uint32_t i) {
  if (i >= clock_sync_.size() || !clock_sync_[i].has_estimate()) return;
  const double offset = clock_sync_[i].offset_us();
  const double rtt = clock_sync_[i].rtt_us();
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    if (i < obs_.size()) {
      WorkerObs& o = obs_[i];
      if (!o.clock_synced || o.clock_offset_us != offset ||
          o.clock_rtt_us != rtt) {
        clock_dirty_ = true;
      }
      o.clock_synced = true;
      o.clock_offset_us = offset;
      o.clock_rtt_us = rtt;
    }
  }
  const std::string suffix = ".w" + std::to_string(i);
  telemetry_.SetGauge("cluster.clock_offset_us" + suffix, offset);
  telemetry_.SetGauge("cluster.rtt_us" + suffix, rtt);
}

void Coordinator::BroadcastClockSync() {
  ClockSyncMsg msg;
  for (uint32_t i = 0; i < clock_sync_.size(); ++i) {
    if (!clock_sync_[i].has_estimate()) continue;
    msg.entries.push_back(
        {i, clock_sync_[i].offset_us(), clock_sync_[i].rtt_us()});
  }
  if (msg.entries.empty()) return;
  Broadcast(MsgType::kClockSync, msg.Encode());
  clock_dirty_ = false;
  telemetry_.Count("cluster.clock_syncs_sent", 1);
}

Status Coordinator::StartRun() {
  StartMsg start;
  start.duration = options_.duration;
  start.tick_seconds = options_.tick_seconds;
  start.seed = options_.seed;
  start.rates = options_.rates;
  start.rates.resize(graph_.num_input_streams(), options_.default_rate);
  const std::string payload = start.Encode();
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    ROD_RETURN_IF_ERROR(SendTo(i, MsgType::kStart, payload));
  }
  started_ = true;
  run_epoch_ = MonotonicSeconds();
  next_ping_ = std::max(0.05, options_.clock_sync_interval);
  return Status::OK();
}

Status Coordinator::MonitorLoop() {
  const double finish_at = options_.duration + options_.finish_grace;
  for (;;) {
    const double now = Now();
    // A verdict makes its repair due at once: kill-to-plan-live is a few
    // ms, against an idle wake of half a heartbeat interval.
    if (repair_at_ >= 0.0 && now >= repair_at_) {
      Repair(now);
      continue;
    }
    if (stop_requested_ || now >= finish_at) return Status::OK();
    if (now >= next_ping_) {
      next_ping_ = now + std::max(0.05, options_.clock_sync_interval);
      if (clock_dirty_) BroadcastClockSync();
      SendPings();  // Pongs are read by Step; no one waits for them.
    }
    ROD_RETURN_IF_ERROR(
        Step(std::min(finish_at - now, options_.heartbeat_interval * 0.5)));
  }
}

Status Coordinator::Step(double wait) {
  // fds[1 + i] is worker i; poll() skips a closed connection's fd of -1.
  std::vector<pollfd> fds = {{stop_pipe_.read_fd(), POLLIN, 0}};
  for (const WorkerState& w : workers_) {
    fds.push_back({w.conn.fd(), POLLIN, 0});
    if (started_ && w.alive && !w.conn_ok) wait = 0.0;  // Judge it now.
  }
  const int ready = ::poll(fds.data(), fds.size(),
                           static_cast<int>(std::ceil(wait * 1000.0)));
  if (ready < 0 && errno != EINTR) return Status::Internal("poll failed");
  if (ready > 0 && fds[0].revents != 0) {  // RequestStop(): wind down.
    stop_pipe_.Drain();
    stop_requested_ = true;
  }
  for (uint32_t i = 0; ready > 0 && i < workers_.size(); ++i) {
    if (fds[1 + i].revents == 0) continue;
    Frame frame;
    if (workers_[i].conn.Recv(&frame).ok()) {
      HandleFrame(i, frame);
    } else {
      LoseConnection(i);
    }
  }
  if (!started_) return Status::OK();

  // The only place verdicts are issued. A lost control connection is
  // final: no heartbeat can arrive on it again, so the worker fails now.
  // The deadline catches a worker that goes silent with its socket
  // still open (stopped, hung).
  const double now = Now();
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    const WorkerState& w = workers_[i];
    if (w.alive && (!w.conn_ok || now - w.last_heartbeat >
                                      options_.heartbeat_timeout)) {
      FailWorker(i, now);
    }
  }
  return Status::OK();
}

void Coordinator::HandleStatsReport(uint32_t worker,
                                    const StatsReportMsg& report) {
  std::lock_guard<std::mutex> lock(obs_mu_);
  WorkerObs& o = obs_[worker];
  // Values are cumulative, so overwrite-merge reconstructs the worker's
  // registry; a lost delta self-heals on the next report of the family.
  for (const auto& [name, value] : report.counters) {
    o.merged.counters[name] = value;
  }
  for (const auto& [name, value] : report.gauges) {
    o.merged.gauges[name] = value;
  }
  for (const StatsReportMsg::HistogramState& h : report.histograms) {
    telemetry::HistogramSnapshot snap;
    snap.count = h.count;
    snap.sum = h.sum;
    snap.min = h.min;
    snap.max = h.max;
    snap.buckets = h.buckets;
    o.merged.histograms[h.name] = std::move(snap);
  }
}

void Coordinator::HandleFrame(uint32_t worker, const Frame& frame) {
  // Every payload names its sender. One naming another worker must not
  // refresh that worker's liveness or overwrite its registry.
  const auto from_sender = [&](uint32_t named) {
    if (named == worker) return true;
    telemetry_.Count("cluster.unexpected_frames", 1);
    return false;
  };
  // Clears the pending reply this frame answers; a stale one is ignored.
  const auto settle = [&](uint64_t version) {
    std::optional<PendingAck>& pending = workers_[worker].pending;
    if (pending == PendingAck{frame.type, version}) pending.reset();
  };
  switch (frame.type) {
    case MsgType::kHeartbeat: {
      auto hb = HeartbeatMsg::Decode(frame.payload);
      if (!hb.ok() || !from_sender(hb->worker_id)) break;
      workers_[worker].last_heartbeat = Now();
      telemetry_.Count("cluster.heartbeats_received", 1);
      // Surface the per-operator load report as live coordinator gauges
      // (each operator is hosted by exactly one worker, so plain op-keyed
      // names cannot collide across workers).
      for (const HeartbeatMsg::OpLoad& load : hb->loads) {
        const std::string op = std::to_string(load.op);
        telemetry_.SetGauge("cluster.op_processed." + op,
                            static_cast<double>(load.processed));
        telemetry_.SetGauge("cluster.op_busy_seconds." + op,
                            load.busy_seconds);
      }
      std::lock_guard<std::mutex> lock(obs_mu_);
      WorkerObs& o = obs_[worker];
      o.plan_version = hb->plan_version;
      o.last_seen_us = telemetry_.NowMicros();
      o.queue_depth = hb->queue_depth;
      o.loads = hb->loads;
      break;
    }
    case MsgType::kPong: {
      const double t4 = telemetry_.NowMicros();
      auto pong = PongMsg::Decode(frame.payload);
      if (!pong.ok() || !from_sender(pong->worker_id)) break;
      clock_sync_[worker].AddSample(
          {pong->t1_us, pong->t2_us, pong->t3_us, t4});
      PublishClockEstimate(worker);
      settle(0);
      break;
    }
    case MsgType::kStatsReport:
    case MsgType::kFinalStats: {
      auto report = StatsReportMsg::Decode(frame.payload);
      if (!report.ok() || !from_sender(report->worker_id)) break;
      HandleStatsReport(worker, *report);
      if (frame.type == MsgType::kStatsReport) {
        telemetry_.Count("cluster.stats_reports_received", 1);
        break;
      }
      workers_[worker].have_final = true;
      telemetry_.Count("cluster.final_stats_collected", 1);
      settle(0);
      break;
    }
    case MsgType::kFrozenReport: {
      auto report = FrozenReportMsg::Decode(frame.payload);
      if (!report.ok() || !from_sender(report->worker_id)) break;
      telemetry_.Count("cluster.frozen_reports_received", 1);
      if (report->incident_json.empty() ||
          !frozen_reports_.emplace(worker, report->incident_json).second) {
        break;
      }
      report_.frozen_workers.push_back(worker);
      flight_recorder_.Note("frozen snapshot received from worker " +
                            std::to_string(worker));
      break;
    }
    case MsgType::kPauseAck:
    case MsgType::kPlanAck: {
      auto ack = PlanAckMsg::Decode(frame.payload);
      if (ack.ok() && from_sender(ack->worker_id)) settle(ack->version);
      break;
    }
    default:
      telemetry_.Count("cluster.unexpected_frames", 1);
      break;
  }
}

void Coordinator::FailWorker(uint32_t failed, double now) {
  WorkerState& worker = workers_[failed];
  // The verdict names its evidence.
  const std::string detail =
      worker.name + ": " +
      (worker.conn_ok ? "missed heartbeats for " +
                            std::to_string(options_.heartbeat_timeout) + "s"
                      : "control connection lost");
  worker.alive = false;
  LoseConnection(failed);
  telemetry_.Count("cluster.failures_detected", 1);
  size_t alive = 0;
  for (const WorkerState& w : workers_) alive += w.alive ? 1 : 0;
  telemetry_.SetGauge("cluster.workers_alive", static_cast<double>(alive));
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    obs_[failed].alive = false;
  }
  if (!report_.had_incident) {
    // The run's first incident: freeze pre-incident state and start the
    // engine-schema report. The true crash instant is unobservable from
    // outside the dead process; the last proof of life bounds it.
    report_.had_incident = true;
    report_.incident.crash_time = worker.last_heartbeat;
    report_.incident.failed_node = failed;
    report_.incident.detect_time = now;
    report_.phases.detect_seconds = now - worker.last_heartbeat;
    flight_recorder_.BeginIncident("cluster.worker_failure", detail);
    // Order every survivor to freeze its own rings at (about) this same
    // aligned instant; their kFrozenReport replies land in the incident
    // report's worker_snapshots.
    FreezeMsg freeze;
    freeze.incident_id = ++incident_id_;
    freeze.kind = "cluster.worker_failure";
    freeze.detail = detail;
    Broadcast(MsgType::kFreeze, freeze.Encode());
    telemetry_.Count("cluster.freezes_broadcast", 1);
  }
  flight_recorder_.Note("failure detected: worker " + std::to_string(failed) +
                        " (" + detail + ")");
  // Due even mid-repair: that diff has just lost a participant and
  // aborts, and the next repair re-plans without it.
  repair_at_ = now;
  repair_node_ = failed;
}

void Coordinator::Repair(double now) {
  repair_at_ = -1.0;
  // A worker whose connection is already lost is never a repair target.
  std::vector<bool> node_up;
  node_up.reserve(workers_.size());
  for (const WorkerState& w : workers_) {
    node_up.push_back(w.alive && w.conn_ok);
  }

  auto update =
      supervisor_->OnFailureDetected(now, repair_node_, node_up, deployment_);
  if (!update.has_value()) {
    const double delay = supervisor_->RepairRetryDelay();
    if (delay > 0.0) {
      repair_at_ = now + delay;
      flight_recorder_.Note("repair failed; retrying in " +
                            std::to_string(delay) + "s");
    } else {
      flight_recorder_.Note("repair abandoned: " +
                            supervisor_->last_status().ToString());
    }
    return;
  }
  const Status applied = ExecutePlanDiff(*update);
  if (!applied.ok()) {
    flight_recorder_.Note("plan diff failed: " + applied.ToString());
    return;
  }
  // The incident is over with the first diff that leaves no operator on a
  // down or disconnected worker, whichever failure triggered that diff.
  const bool homed = std::all_of(
      assignment_.begin(), assignment_.end(), [this](size_t w) {
        return workers_[w].alive && workers_[w].conn_ok;
      });
  if (homed && !report_.incident.recovered) {
    report_.incident.plan_applied_time = Now();
    report_.incident.recovered = true;
    report_.incident.recovery_time =
        report_.incident.plan_applied_time - report_.incident.crash_time;
  }
}

Status Coordinator::ExecutePlanDiff(const sim::PlanUpdate& update) {
  std::vector<OperatorMove> moves;
  for (size_t j = 0; j < update.assignment.size(); ++j) {
    if (j < assignment_.size() && update.assignment[j] != assignment_[j]) {
      moves.push_back({static_cast<uint32_t>(j),
                       static_cast<uint32_t>(assignment_[j]),
                       static_cast<uint32_t>(update.assignment[j])});
    }
  }
  if (moves.empty()) return Status::OK();
  ++plan_version_;
  ROD_TRACE_SPAN(&telemetry_, "cluster", "repair");

  // Pause -> drain -> reassign -> resume against every live worker.
  const double pause_begin = MonotonicSeconds();
  PauseMsg pause;
  pause.plan_version = plan_version_;
  for (const OperatorMove& move : moves) pause.ops.push_back(move.op);
  ROD_RETURN_IF_ERROR(
      AwaitAcks(Broadcast(MsgType::kPause, pause.Encode(),
                          PendingAck{MsgType::kPauseAck, plan_version_})));
  const double drained = MonotonicSeconds();
  flight_recorder_.Note("paused " + std::to_string(moves.size()) +
                        " operators; drain confirmed");

  PlanDiffMsg diff;
  diff.version = plan_version_;
  diff.moves = moves;
  ROD_RETURN_IF_ERROR(
      AwaitAcks(Broadcast(MsgType::kPlanDiff, diff.Encode(),
                          PendingAck{MsgType::kPlanAck, plan_version_})));
  const double reassigned = MonotonicSeconds();
  Broadcast(MsgType::kResume, "");
  const double resumed = MonotonicSeconds();

  report_.phases.valid = true;
  report_.phases.pause_drain_seconds = drained - pause_begin;
  report_.phases.reassign_seconds = reassigned - drained;
  report_.phases.resume_seconds = resumed - reassigned;
  telemetry_.SetGauge("cluster.repair_pause_drain_seconds",
                      report_.phases.pause_drain_seconds);
  telemetry_.SetGauge("cluster.repair_reassign_seconds",
                      report_.phases.reassign_seconds);
  telemetry_.SetGauge("cluster.repair_resume_seconds",
                      report_.phases.resume_seconds);

  assignment_ = update.assignment;
  ROD_RETURN_IF_ERROR(
      sim::ReassignOperators(deployment_, assignment_).status());
  report_.plan_version = plan_version_;
  report_.incident.operators_moved += moves.size();
  telemetry_.Count("cluster.plan_diffs", 1);
  telemetry_.Count("cluster.operator_moves", moves.size());
  telemetry_.SetGauge("cluster.plan_version",
                      static_cast<double>(plan_version_));
  plan_version_pub_.store(plan_version_, std::memory_order_release);
  flight_recorder_.Note("plan v" + std::to_string(plan_version_) +
                        " live: " + std::to_string(moves.size()) +
                        " operators re-homed");
  return Status::OK();
}

void Coordinator::LoseConnection(uint32_t worker) {
  workers_[worker].conn_ok = false;
  workers_[worker].conn.Close();
}

Status Coordinator::SendTo(uint32_t worker, MsgType type,
                           std::string_view payload) {
  const Status sent = workers_[worker].conn.Send(type, payload);
  if (!sent.ok()) LoseConnection(worker);
  return sent;
}

std::vector<uint32_t> Coordinator::Broadcast(
    MsgType type, std::string_view payload, std::optional<PendingAck> reply) {
  std::vector<uint32_t> sent;
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].alive || !workers_[i].conn_ok) continue;
    if (reply) workers_[i].pending = reply;
    (void)SendTo(i, type, payload);  // A failure shows in AwaitAcks.
    sent.push_back(i);
  }
  return sent;
}

Status Coordinator::AwaitAcks(const std::vector<uint32_t>& from) {
  // Before kStart no deadline pass runs, so the registration timeout
  // bounds the wait; after it, a silent worker is failed at its deadline.
  const double deadline =
      started_ ? HUGE_VAL : MonotonicSeconds() + options_.register_timeout;
  const auto owed = [this](uint32_t i) {
    return workers_[i].conn_ok && workers_[i].pending.has_value();
  };
  Status status = Status::OK();
  while (status.ok() && std::any_of(from.begin(), from.end(), owed)) {
    const double left = deadline - MonotonicSeconds();
    status = left > 0.0
                 ? Step(std::min(left, options_.heartbeat_interval * 0.5))
                 : Status::Unavailable("no reply before the register timeout");
  }
  for (const uint32_t i : from) {
    if (status.ok() && !workers_[i].conn_ok) {
      status = Status::Unavailable(workers_[i].name + " was lost mid-step");
    }
    workers_[i].pending.reset();
  }
  return status;
}

Status Coordinator::Finish() {
  // Collect final stats from the survivors, then release them. One that
  // never answers is failed at its heartbeat deadline.
  (void)AwaitAcks(
      Broadcast(MsgType::kFinish, "", PendingAck{MsgType::kFinalStats}));
  Broadcast(MsgType::kShutdown, "");
  for (WorkerState& worker : workers_) worker.conn.Close();
  report_.run_seconds = Now();
  report_.assignment = assignment_;

  // Every figure comes from the federated registries: a survivor's ends
  // with its kFinalStats delta, a dead worker's with its last report.
  // Merging every worker's offset-corrected receive-side ship latency
  // histogram gives the cluster distribution on the coordinator clock.
  report_.totals = WorkerCounters{};
  report_.workers.clear();
  telemetry::HistogramSnapshot ship;
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    for (uint32_t i = 0; i < workers_.size(); ++i) {
      const telemetry::MetricsSnapshot& merged = obs_[i].merged;
      ClusterReport::WorkerSummary summary;
      summary.worker_id = i;
      summary.name = workers_[i].name;
      summary.alive = workers_[i].alive;
      summary.final_stats = workers_[i].have_final;
      summary.counters = CountersFromSnapshot(merged);
      AddCounters(report_.totals, summary.counters);
      if (clock_sync_[i].has_estimate()) {
        summary.clock_synced = true;
        summary.clock_offset_us = clock_sync_[i].offset_us();
        summary.clock_rtt_us = clock_sync_[i].rtt_us();
      }
      report_.workers.push_back(std::move(summary));
      const auto it = merged.histograms.find("cluster.ship_latency_us");
      if (it != merged.histograms.end()) {
        telemetry::MergeHistogramInto(ship, it->second);
      }
    }
  }
  report_.ship_latency.count = ship.count;
  report_.ship_latency.mean_us = ship.mean();
  report_.ship_latency.p50_us = ship.Quantile(0.5);
  report_.ship_latency.p99_us = ship.Quantile(0.99);
  report_.ship_latency.max_us = ship.count > 0 ? ship.max : 0.0;
  std::sort(report_.frozen_workers.begin(), report_.frozen_workers.end());

  if (report_.had_incident) {
    // Loss breakdown, cluster flavor: ship failures toward a dead peer
    // are network loss (what the dead process held internally is not
    // observable from outside it, so lost_queued/lost_inflight stay 0).
    // Availability approximates the engine's accepted-fraction as
    // generated work net of losses over generated work.
    sim::IncidentReport& incident = report_.incident;
    incident.lost_network = report_.totals.lost_tuples;
    incident.lost_tuples = incident.lost_queued + incident.lost_inflight +
                           incident.lost_network +
                           incident.rejected_inputs;
    const double offered = static_cast<double>(report_.totals.generated);
    incident.availability =
        offered > 0.0
            ? std::clamp(1.0 - static_cast<double>(incident.lost_tuples) /
                                   offered,
                         0.0, 1.0)
            : 1.0;
    // The cluster-wide incident report: the engine-schema incident plus
    // the repair's per-phase durations and the survivors' frozen
    // flight-recorder snapshots (collected via kFreeze/kFrozenReport),
    // so one artifact holds every process's view of the failure.
    flight_recorder_.CompleteIncident([this](telemetry::JsonWriter& w) {
      w.BeginObjectInline();
      w.Key("incident");
      sim::WriteIncidentReportJson(report_.incident, w);
      w.Key("phases");
      WritePhasesJson(report_.phases, w);
      w.Key("worker_snapshots").BeginArray();
      for (const auto& [id, json] : frozen_reports_) {
        w.BeginObjectInline();
        w.Key("worker_id").Uint(id);
        w.Key("incident");
        w.Raw(json);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    });
  }
  return Status::OK();
}

void Coordinator::WriteReportJson(std::ostream& out) const {
  telemetry::JsonWriter w(out);
  w.BeginObject();
  w.Key("schema").String("rod.cluster_report.v1");
  w.Key("num_workers").Uint(report_.num_workers);
  w.Key("plan_version").Uint(report_.plan_version);
  w.Key("assignment").BeginArray();
  for (const size_t worker : report_.assignment) w.Uint(worker);
  w.EndArray();
  w.Key("plan_ship_seconds").Double(report_.plan_ship_seconds);
  w.Key("run_seconds").Double(report_.run_seconds);
  w.Key("totals");
  WriteCountersJson(report_.totals, w);
  w.Key("workers").BeginArray();
  for (const ClusterReport::WorkerSummary& worker : report_.workers) {
    w.BeginObjectInline();
    w.Key("worker_id").Uint(worker.worker_id);
    w.Key("name").String(worker.name);
    w.Key("alive").Bool(worker.alive);
    w.Key("final_stats").Bool(worker.final_stats);
    w.Key("counters");
    WriteCountersJson(worker.counters, w);
    w.Key("clock").BeginObjectInline();
    w.Key("synced").Bool(worker.clock_synced);
    w.Key("offset_us").Double(worker.clock_offset_us);
    w.Key("rtt_us").Double(worker.clock_rtt_us);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("ship_latency");
  WriteShipLatencyJson(report_.ship_latency, w);
  w.Key("frozen_workers").BeginArray();
  for (uint32_t id : report_.frozen_workers) w.Uint(id);
  w.EndArray();
  if (report_.had_incident) {
    w.Key("incident");
    sim::WriteIncidentReportJson(report_.incident, w);
    w.Key("phases");
    WritePhasesJson(report_.phases, w);
  } else {
    w.Key("incident").Null();
    w.Key("phases").Null();
  }
  w.EndObject();
}

std::string Coordinator::RenderFederatedMetrics() const {
  // The coordinator's own registry unlabeled, then every worker's
  // last-reported registry labeled {worker, name}, with the coordinator-
  // side liveness/clock/skew view injected as gauges so the federated
  // plane is self-contained even for a worker that never reported stats.
  std::vector<telemetry::FederatedInstance> instances;
  instances.push_back({{}, telemetry_.Snapshot()});
  const uint64_t plan_pub = plan_version_pub_.load(std::memory_order_acquire);
  const double now_us = telemetry_.NowMicros();
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    for (size_t i = 0; i < obs_.size(); ++i) {
      const WorkerObs& o = obs_[i];
      telemetry::FederatedInstance inst;
      inst.labels["worker"] = std::to_string(i);
      inst.labels["name"] = o.name;
      inst.snapshot = o.merged;
      inst.snapshot.gauges["cluster.up"] = o.alive ? 1.0 : 0.0;
      inst.snapshot.gauges["cluster.plan_version_skew"] =
          static_cast<double>(plan_pub) - static_cast<double>(o.plan_version);
      if (o.last_seen_us >= 0.0) {
        inst.snapshot.gauges["cluster.heartbeat_age_seconds"] =
            (now_us - o.last_seen_us) / 1e6;
      }
      if (o.clock_synced) {
        inst.snapshot.gauges["cluster.clock_offset_us"] = o.clock_offset_us;
        inst.snapshot.gauges["cluster.rtt_us"] = o.clock_rtt_us;
      }
      instances.push_back(std::move(inst));
    }
  }
  std::ostringstream body;
  telemetry::WriteFederatedPrometheusText(instances, body);
  return body.str();
}

void Coordinator::WriteClusterSummaryJson(std::ostream& out) const {
  telemetry::JsonWriter w(out);
  const uint64_t plan_pub = plan_version_pub_.load(std::memory_order_acquire);
  const double now_us = telemetry_.NowMicros();
  w.BeginObject();
  w.Key("schema").String("rod.cluster_summary.v1");
  w.Key("ready").Bool(ready_.load(std::memory_order_acquire));
  w.Key("plan_version").Uint(plan_pub);
  w.Key("workers").BeginArray();
  {
    std::lock_guard<std::mutex> lock(obs_mu_);
    for (size_t i = 0; i < obs_.size(); ++i) {
      const WorkerObs& o = obs_[i];
      w.BeginObject();
      w.Key("worker_id").Uint(i);
      w.Key("name").String(o.name);
      w.Key("alive").Bool(o.alive);
      w.Key("http_port").Uint(o.http_port);
      w.Key("plan_version").Uint(o.plan_version);
      w.Key("plan_version_skew")
          .Int(static_cast<int64_t>(plan_pub) -
               static_cast<int64_t>(o.plan_version));
      w.Key("heartbeat_age_seconds");
      if (o.last_seen_us >= 0.0) {
        w.Double((now_us - o.last_seen_us) / 1e6);
      } else {
        w.Null();
      }
      w.Key("queue_depth").Uint(o.queue_depth);
      w.Key("clock").BeginObjectInline();
      w.Key("synced").Bool(o.clock_synced);
      w.Key("offset_us").Double(o.clock_offset_us);
      w.Key("rtt_us").Double(o.clock_rtt_us);
      w.EndObject();
      w.Key("counters");
      WriteCountersJson(CountersFromSnapshot(o.merged), w);
      w.Key("loads").BeginArray();
      for (const HeartbeatMsg::OpLoad& load : o.loads) {
        w.BeginObjectInline();
        w.Key("op").Uint(load.op);
        w.Key("processed").Uint(load.processed);
        w.Key("busy_seconds").Double(load.busy_seconds);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

void Coordinator::DumpTrace() const {
  std::ofstream out(options_.trace_path);
  if (!out) return;
  telemetry::ChromeTraceProcess process;
  process.pid = 1;  // Workers dump as pid worker_id + 2.
  process.name = "coordinator";
  process.metadata["clock_offset_us"] = 0.0;  // The reference clock.
  telemetry_.WriteChromeTrace(out, process);
}

void Coordinator::StartHttpPlane() {
  telemetry::Telemetry* tel = &telemetry_;
  telemetry::FlightRecorder* rec = &flight_recorder_;
  // `this` outlives http_: the destructor stops the server before any
  // member these handlers touch is destroyed.
  http_.Handle("/metrics", [this](std::string_view) {
    return telemetry::HttpServer::Response{
        200, telemetry::kPrometheusContentType, RenderFederatedMetrics()};
  });
  http_.Handle("/cluster.json", [this](std::string_view) {
    std::ostringstream body;
    WriteClusterSummaryJson(body);
    return telemetry::HttpServer::Response{200, "application/json",
                                           body.str()};
  });
  http_.Handle("/readyz", [this](std::string_view) {
    const bool ready = ready_.load(std::memory_order_acquire);
    return telemetry::HttpServer::Response{
        ready ? 200 : 503, "text/plain; charset=utf-8",
        ready ? "ok\n" : "starting\n"};
  });
  http_.Handle("/metrics.json", [tel](std::string_view) {
    std::ostringstream body;
    tel->WriteMetricsJson(body);
    return telemetry::HttpServer::Response{200, "application/json",
                                           body.str()};
  });
  http_.Handle("/flightrecorder", [rec](std::string_view) {
    std::ostringstream body;
    rec->WriteJson(body);
    return telemetry::HttpServer::Response{200, "application/json",
                                           body.str()};
  });
  http_.Handle("/healthz", [](std::string_view) {
    return telemetry::HttpServer::Response{200, "text/plain; charset=utf-8",
                                           "ok\n"};
  });
  std::string error;
  if (http_.Start(options_.http_port, &error)) {
    http_port_ = http_.port();
  }
}

}  // namespace rod::cluster
