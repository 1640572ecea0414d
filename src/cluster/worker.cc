#include "cluster/worker.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
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

/// Socket timeout on the control connection: a coordinator that wedges
/// mid-frame surfaces as kUnavailable instead of hanging the worker.
constexpr double kControlTimeout = 30.0;

/// Data-plane send/dial timeout: a peer that stops draining is treated
/// as down (loss is counted) rather than stalling the event loop.
constexpr double kDataTimeout = 2.0;

/// Bound on batches buffered against paused operators; beyond it the
/// oldest buffered batch is dropped and counted lost (a migration fence
/// must not grow memory without bound if a resume never comes).
constexpr size_t kMaxPausedBatches = 65536;

}  // namespace

Worker::Worker(WorkerOptions options) : options_(std::move(options)) {
  if (options_.name.empty()) {
    options_.name = "worker-" + std::to_string(::getpid());
  }
}

Worker::~Worker() { http_.Stop(); }

void Worker::RequestStop() { stop_pipe_.Notify(); }

double Worker::Now() const {
  return started_ ? MonotonicSeconds() - run_epoch_ : 0.0;
}

Status Worker::Run() {
  std::string error;
  if (!stop_pipe_.Open(&error)) {
    return Status::Internal("self-pipe: " + error);
  }
  ROD_RETURN_IF_ERROR(Connect());
  const Status result = EventLoop();
  http_.Stop();
  if (!options_.trace_path.empty()) DumpTrace();
  return result;
}

void Worker::DumpTrace() const {
  std::ofstream out(options_.trace_path);
  if (!out.is_open()) return;
  telemetry::ChromeTraceProcess proc;
  proc.pid = static_cast<uint64_t>(worker_id_) + 2;  // Coordinator is 1.
  proc.name = options_.name;
  proc.metadata["worker_id"] = static_cast<double>(worker_id_);
  const bool synced =
      worker_id_ < have_offset_.size() && have_offset_[worker_id_] != 0;
  proc.metadata["clock_offset_us"] =
      synced ? clock_offset_us_[worker_id_] : 0.0;
  telemetry_.WriteChromeTrace(out, proc);
}

Status Worker::Connect() {
  ROD_RETURN_IF_ERROR(data_listener_.Listen(options_.data_port));
  data_listener_.set_metrics(&frame_metrics_);
  if (options_.serve_http) StartHttpPlane();

  // The coordinator may come up after its workers; retry the dial until
  // the connect timeout elapses.
  const double deadline = MonotonicSeconds() + options_.connect_timeout;
  for (;;) {
    auto conn = FrameConn::DialLoopback(options_.coordinator_port,
                                        kControlTimeout);
    if (conn.ok()) {
      control_ = std::move(conn.value());
      control_.set_metrics(&frame_metrics_);
      break;
    }
    if (MonotonicSeconds() >= deadline) return conn.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  HelloMsg hello;
  hello.data_port = data_listener_.port();
  hello.http_port = http_port_;
  hello.capacity = options_.capacity;
  hello.name = options_.name;
  ROD_RETURN_IF_ERROR(control_.Send(MsgType::kHello, hello.Encode()));

  Frame frame;
  ROD_RETURN_IF_ERROR(control_.Recv(&frame));
  if (frame.type != MsgType::kWelcome) {
    return Status::InvalidArgument(
        std::string("expected welcome, got ") + MsgTypeName(frame.type));
  }
  auto welcome = WelcomeMsg::Decode(frame.payload);
  if (!welcome.ok()) return welcome.status();
  worker_id_ = welcome->worker_id;
  num_workers_ = welcome->num_workers;
  heartbeat_interval_ = welcome->heartbeat_interval;
  return Status::OK();
}

Status Worker::EventLoop() {
  for (;;) {
    std::vector<pollfd> fds;
    fds.push_back({stop_pipe_.read_fd(), POLLIN, 0});
    fds.push_back({control_.fd(), POLLIN, 0});
    fds.push_back({data_listener_.fd(), POLLIN, 0});
    const size_t inbound_base = fds.size();
    for (const FrameConn& conn : inbound_) {
      fds.push_back({conn.fd(), POLLIN, 0});
    }

    int timeout_ms = -1;
    if (started_) {
      double next = next_heartbeat_;
      if (generating_) next = std::min(next, next_tick_);
      const double wait = next - Now();
      timeout_ms = wait <= 0.0
                       ? 0
                       : static_cast<int>(std::ceil(wait * 1000.0));
    }

    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("poll failed");
    }

    if (fds[0].revents != 0) return Status::OK();  // RequestStop().

    if (fds[1].revents != 0) {
      Frame frame;
      const Status recv = control_.Recv(&frame);
      if (!recv.ok()) return recv;  // Coordinator gone or corrupt stream.
      if (frame.type == MsgType::kShutdown) return Status::OK();
      ROD_RETURN_IF_ERROR(HandleControlFrame(frame));
    }

    if (fds[2].revents != 0) {
      auto conn = data_listener_.Accept(kDataTimeout);
      if (conn.ok()) inbound_.push_back(std::move(conn.value()));
    }

    // Drain readable peers; dead ones are compacted out afterwards.
    std::vector<size_t> dead;
    for (size_t i = inbound_base; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const size_t idx = i - inbound_base;
      Frame frame;
      const Status recv = inbound_[idx].Recv(&frame);
      if (!recv.ok()) {
        dead.push_back(idx);
        continue;
      }
      HandleDataFrame(frame);
    }
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
      inbound_.erase(inbound_.begin() + static_cast<ptrdiff_t>(*it));
    }

    // Timers.
    if (started_) {
      const double now = Now();
      if (generating_ && now >= next_tick_) {
        const double dt = now - last_gen_time_;
        GenerateSources(now, dt);
        last_gen_time_ = now;
        next_tick_ = now + start_.tick_seconds;
        if (now >= start_.duration) generating_ = false;
      }
      if (now >= next_heartbeat_) {
        SendHeartbeat(now);
        next_heartbeat_ = now + heartbeat_interval_;
        // Like the heartbeat's, a failed send surfaces on the control read.
        if (owed_report_ && owed_report_->resumed) (void)SendFrozenReport();
      }
    }
  }
}

Status Worker::HandleControlFrame(const Frame& frame) {
  switch (frame.type) {
    case MsgType::kPlan: {
      auto plan = PlanMsg::Decode(frame.payload);
      if (!plan.ok()) return plan.status();
      return InstallPlan(*plan);
    }
    case MsgType::kStart: {
      auto start = StartMsg::Decode(frame.payload);
      if (!start.ok()) return start.status();
      start_ = *start;
      started_ = true;
      generating_ = start_.duration > 0.0;
      run_epoch_ = MonotonicSeconds();
      last_gen_time_ = 0.0;
      next_tick_ = start_.tick_seconds;
      next_heartbeat_ = 0.0;  // First heartbeat right away.
      gen_carry_.assign(start_.rates.size(), 0.0);
      rng_.Reseed(start_.seed + worker_id_);
      return Status::OK();
    }
    case MsgType::kPause: {
      auto pause = PauseMsg::Decode(frame.payload);
      if (!pause.ok()) return pause.status();
      for (uint32_t op : pause->ops) {
        if (op < paused_.size()) paused_[op] = 1;
      }
      telemetry_.Count("cluster.pauses", 1);
      telemetry_.RecordInstant("cluster", "pause");
      // Single-threaded loop: nothing is in flight here, so paused ops
      // are already drained — the ack is the drain confirmation.
      PlanAckMsg ack{pause->plan_version, worker_id_};
      return control_.Send(MsgType::kPauseAck, ack.Encode());
    }
    case MsgType::kPlanDiff: {
      auto diff = PlanDiffMsg::Decode(frame.payload);
      if (!diff.ok()) return diff.status();
      ApplyPlanDiff(*diff);
      PlanAckMsg ack{diff->version, worker_id_};
      return control_.Send(MsgType::kPlanAck, ack.Encode());
    }
    case MsgType::kResume: {
      std::fill(paused_.begin(), paused_.end(), 0);
      FlushPausedBuffers();
      telemetry_.Count("cluster.resumes", 1);
      telemetry_.RecordInstant("cluster", "resume");
      if (owed_report_) owed_report_->resumed = true;
      return Status::OK();
    }
    case MsgType::kFinish: {
      generating_ = false;
      if (owed_report_) ROD_RETURN_IF_ERROR(SendFrozenReport());
      return control_.Send(MsgType::kFinalStats, TakeStatsDelta().Encode());
    }
    case MsgType::kPing: {
      const double t2 = telemetry_.NowMicros();
      auto ping = PingMsg::Decode(frame.payload);
      if (!ping.ok()) return ping.status();
      PongMsg pong;
      pong.seq = ping->seq;
      pong.worker_id = worker_id_;
      pong.t1_us = ping->t1_us;
      pong.t2_us = t2;
      pong.t3_us = telemetry_.NowMicros();
      return control_.Send(MsgType::kPong, pong.Encode());
    }
    case MsgType::kClockSync: {
      auto sync = ClockSyncMsg::Decode(frame.payload);
      if (!sync.ok()) return sync.status();
      InstallClockSync(*sync);
      return Status::OK();
    }
    case MsgType::kFreeze: {
      auto freeze = FreezeMsg::Decode(frame.payload);
      if (!freeze.ok()) return freeze.status();
      HandleFreeze(*freeze);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(
          std::string("unexpected control frame: ") +
          MsgTypeName(frame.type));
  }
}

Status Worker::InstallPlan(const PlanMsg& plan) {
  ROD_TRACE_SPAN(&telemetry_, "cluster", "plan.install");
  place::SystemSpec system{Vector(plan.capacities)};
  std::vector<size_t> assignment(plan.assignment.begin(),
                                 plan.assignment.end());
  place::Placement placement(plan.capacities.size(), assignment);
  auto deployment = sim::CompileDeployment(plan.graph, placement, system);
  if (!deployment.ok()) return deployment.status();

  graph_ = plan.graph;
  deployment_ = std::move(deployment.value());
  assignment_ = std::move(assignment);
  source_owner_ = plan.source_owner;
  plan_version_ = plan.version;
  have_plan_ = true;

  const size_t num_ops = graph_.num_operators();
  paused_.assign(num_ops, 0);
  paused_buffers_.clear();
  emit_carry_.assign(num_ops, 0.0);
  op_processed_.assign(num_ops, 0);
  op_busy_.assign(num_ops, 0.0);

  for (const WorkerEndpoint& e : plan.endpoints) {
    if (e.worker_id == worker_id_) continue;
    Peer& peer = peers_[e.worker_id];
    if (peer.data_port != e.data_port) {
      peer.conn.Close();
      peer.data_port = e.data_port;
      peer.down_until = -1.0;
    }
  }

  size_t hosted = 0;
  for (size_t node : assignment_) hosted += node == worker_id_ ? 1 : 0;

  // Register the cluster.* families at zero so every worker's /metrics
  // exposes them from the first scrape.
  for (const char* name :
       {"cluster.tuples_generated", "cluster.tuples_processed",
        "cluster.tuples_emitted", "cluster.tuples_delivered",
        "cluster.tuples_shipped", "cluster.tuples_received",
        "cluster.tuples_lost", "cluster.tuples_paused_buffered",
        "cluster.ship_failures",
        "cluster.batches_received", "cluster.heartbeats_sent",
        "cluster.plan_installs", "cluster.operator_moves",
        "cluster.pauses", "cluster.resumes"}) {
    telemetry_.Count(name, 0);
  }
  telemetry_.Count("cluster.plan_installs", 1);
  telemetry_.SetGauge("cluster.plan_version",
                      static_cast<double>(plan_version_));
  telemetry_.SetGauge("cluster.hosted_operators",
                      static_cast<double>(hosted));
  telemetry_.SetGauge("cluster.worker_id", static_cast<double>(worker_id_));
  telemetry_.SetGauge("cluster.busy_seconds", busy_seconds_);
  // Offset-corrected inter-worker ship latency (microseconds), recorded
  // on the receive path once clock sync has distributed offsets.
  ship_latency_ = telemetry_.histogram("cluster.ship_latency_us");
  // Run-clock source-to-sink latency, one record per delivered batch
  // weighted by its tuple count.
  sink_latency_ = telemetry_.histogram("cluster.sink_latency_seconds");
  ready_.store(true);

  PlanAckMsg ack{plan.version, worker_id_};
  return control_.Send(MsgType::kPlanAck, ack.Encode());
}

void Worker::ApplyPlanDiff(const PlanDiffMsg& diff) {
  ROD_TRACE_SPAN(&telemetry_, "cluster", "plan.diff");
  size_t moved = 0;
  for (const OperatorMove& move : diff.moves) {
    if (move.op >= assignment_.size()) continue;
    assignment_[move.op] = move.to_worker;
    ++moved;
  }
  ROD_CHECK_OK(sim::ReassignOperators(deployment_, assignment_).status());
  plan_version_ = diff.version;
  size_t hosted = 0;
  for (size_t node : assignment_) hosted += node == worker_id_ ? 1 : 0;
  telemetry_.Count("cluster.operator_moves", moved);
  telemetry_.SetGauge("cluster.plan_version",
                      static_cast<double>(plan_version_));
  telemetry_.SetGauge("cluster.hosted_operators",
                      static_cast<double>(hosted));
}

void Worker::HandleDataFrame(const Frame& frame) {
  if (frame.type != MsgType::kTuples || !have_plan_) return;
  const double recv_us = telemetry_.NowMicros();
  auto batch = TupleBatchMsg::Decode(frame.payload);
  if (!batch.ok()) return;  // Corrupt batch: drop (CRC already vetted).
  telemetry_.Count("cluster.tuples_received", batch->count);
  telemetry_.Count("cluster.batches_received", 1);
  // End-to-end ship latency on the coordinator clock: both sides' local
  // stamps rebased by their distributed offsets. Only measurable once
  // clock sync has covered both this worker and the sender. Every tuple
  // of the batch shipped with that latency, so it counts once per tuple.
  const uint32_t from = batch->from_worker;
  if (batch->send_time_us > 0.0 && worker_id_ < have_offset_.size() &&
      have_offset_[worker_id_] != 0 && from < have_offset_.size() &&
      have_offset_[from] != 0) {
    const double recv_coord = recv_us + clock_offset_us_[worker_id_];
    const double send_coord = batch->send_time_us + clock_offset_us_[from];
    ship_latency_.Record(std::max(0.0, recv_coord - send_coord),
                         batch->count);
  }
  Dispatch(batch->to_op, batch->to_port, batch->count, batch->create_time);
}

void Worker::Dispatch(uint32_t op, uint32_t port, uint32_t count,
                      double create_time) {
  if (count == 0 || op >= assignment_.size()) return;
  if (paused_[op] != 0) {
    if (paused_buffers_.size() >= kMaxPausedBatches) {
      CountLoss(paused_buffers_.front().count, /*ship_failure=*/false);
      paused_buffers_.erase(paused_buffers_.begin());
    }
    paused_buffers_.push_back({op, port, count, create_time});
    telemetry_.Count("cluster.tuples_paused_buffered", count);
    return;
  }
  if (assignment_[op] == worker_id_) {
    ProcessLocal(op, count, create_time);
  } else {
    ShipTo(static_cast<uint32_t>(assignment_[op]), op, port, count,
           create_time);
  }
}

void Worker::ProcessLocal(uint32_t op, uint32_t count, double create_time) {
  struct Work {
    uint32_t op;
    uint32_t count;
    double create_time;
  };
  std::vector<Work> stack{{op, count, create_time}};
  while (!stack.empty()) {
    const Work work = stack.back();
    stack.pop_back();
    const sim::CompiledOp& compiled = deployment_.ops[work.op];

    op_processed_[work.op] += work.count;
    const double busy = compiled.cost * work.count;
    op_busy_[work.op] += busy;
    busy_seconds_ += busy;
    telemetry_.Count("cluster.tuples_processed", work.count);
    telemetry_.SetGauge("cluster.busy_seconds", busy_seconds_);

    // Fractional emission carry keeps long-run output rates equal to
    // count * selectivity without per-tuple randomness.
    emit_carry_[work.op] +=
        static_cast<double>(work.count) * compiled.selectivity;
    const uint32_t out =
        static_cast<uint32_t>(std::floor(emit_carry_[work.op]));
    emit_carry_[work.op] -= out;
    if (out == 0) continue;
    telemetry_.Count("cluster.tuples_emitted", out);

    if (compiled.consumers.empty()) {
      telemetry_.Count("cluster.tuples_delivered", out);
      sink_latency_.Record(std::max(0.0, Now() - work.create_time), out);
      continue;
    }
    for (const sim::Route& route : compiled.consumers) {
      const uint32_t to = route.to_op;
      if (to >= assignment_.size()) continue;
      if (paused_[to] != 0 || assignment_[to] != worker_id_) {
        Dispatch(to, route.to_port, out, work.create_time);
      } else {
        stack.push_back({to, out, work.create_time});
      }
    }
  }
}

void Worker::ShipTo(uint32_t peer_id, uint32_t op, uint32_t port,
                    uint32_t count, double create_time) {
  const auto it = peers_.find(peer_id);
  const double now = Now();
  // A peer that failed is parked for the cooldown, not redialed per batch.
  if (it != peers_.end() && it->second.down_until <= now) {
    Peer& peer = it->second;
    if (!peer.conn.valid()) {
      auto conn = FrameConn::DialLoopback(peer.data_port, kDataTimeout);
      if (conn.ok()) {
        peer.conn = std::move(conn.value());
        peer.conn.set_metrics(&frame_metrics_);
      }
    }
    const TupleBatchMsg batch{op, port, count, worker_id_, create_time,
                              telemetry_.NowMicros()};
    if (peer.conn.valid() &&
        peer.conn.Send(MsgType::kTuples, batch.Encode()).ok()) {
      telemetry_.Count("cluster.tuples_shipped", count);
      return;
    }
    peer.conn.Close();
    peer.down_until = now + options_.peer_retry_cooldown;
  }
  CountLoss(count, /*ship_failure=*/true);
}

void Worker::CountLoss(uint32_t count, bool ship_failure) {
  if (ship_failure) telemetry_.Count("cluster.ship_failures", 1);
  telemetry_.Count("cluster.tuples_lost", count);
}

void Worker::FlushPausedBuffers() {
  std::vector<BufferedBatch> buffered;
  buffered.swap(paused_buffers_);
  for (const BufferedBatch& batch : buffered) {
    Dispatch(batch.op, batch.port, batch.count, batch.create_time);
  }
}

void Worker::GenerateSources(double now, double dt) {
  if (!have_plan_ || dt <= 0.0) return;
  const double horizon = std::min(now, start_.duration);
  const double effective_dt = std::min(dt, std::max(0.0, horizon - (now - dt)));
  if (effective_dt <= 0.0) return;
  for (size_t s = 0; s < start_.rates.size(); ++s) {
    if (s >= source_owner_.size() || source_owner_[s] != worker_id_) continue;
    if (s >= deployment_.input_routes.size()) continue;
    gen_carry_[s] += start_.rates[s] * effective_dt;
    const uint32_t n = static_cast<uint32_t>(std::floor(gen_carry_[s]));
    gen_carry_[s] -= n;
    if (n == 0) continue;
    telemetry_.Count("cluster.tuples_generated", n);
    for (const sim::Route& route : deployment_.input_routes[s]) {
      Dispatch(route.to_op, route.to_port, n, now);
    }
  }
}

void Worker::SendHeartbeat(double now) {
  HeartbeatMsg hb;
  hb.worker_id = worker_id_;
  hb.seq = ++heartbeat_seq_;
  hb.uptime_seconds = now;
  hb.plan_version = plan_version_;
  hb.queue_depth = paused_buffers_.size();
  for (size_t j = 0; j < assignment_.size(); ++j) {
    if (assignment_[j] != worker_id_ || op_processed_[j] == 0) continue;
    hb.loads.push_back({static_cast<uint32_t>(j), op_processed_[j],
                        op_busy_[j]});
  }
  // A failed send means the coordinator is gone; the control read in the
  // event loop will surface the error and exit the worker.
  (void)control_.Send(MsgType::kHeartbeat, hb.Encode());
  telemetry_.Count("cluster.heartbeats_sent", 1);
  // The registry delta rides the same cadence (never empty: the
  // heartbeat counter just moved).
  (void)control_.Send(MsgType::kStatsReport, TakeStatsDelta().Encode());
  telemetry_.Count("cluster.stats_reports_sent", 1);
}

StatsReportMsg Worker::TakeStatsDelta() {
  const telemetry::MetricsSnapshot snap = telemetry_.Snapshot();
  StatsReportMsg report;
  report.worker_id = worker_id_;
  for (const auto& [name, value] : snap.counters) {
    auto it = reported_counter_values_.find(name);
    if (it != reported_counter_values_.end() && it->second == value) continue;
    reported_counter_values_[name] = value;
    report.counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : snap.gauges) {
    auto it = reported_gauges_.find(name);
    if (it != reported_gauges_.end() && it->second == value) continue;
    reported_gauges_[name] = value;
    report.gauges.emplace_back(name, value);
  }
  for (const auto& [name, h] : snap.histograms) {
    auto it = reported_hist_counts_.find(name);
    if (it != reported_hist_counts_.end() && it->second == h.count) continue;
    reported_hist_counts_[name] = h.count;
    StatsReportMsg::HistogramState state;
    state.name = name;
    state.count = h.count;
    state.sum = h.sum;
    state.min = h.min;
    state.max = h.max;
    state.buckets = h.buckets;
    report.histograms.push_back(std::move(state));
  }
  return report;
}

void Worker::InstallClockSync(const ClockSyncMsg& sync) {
  for (const ClockSyncMsg::Entry& e : sync.entries) {
    if (e.worker_id >= clock_offset_us_.size()) {
      clock_offset_us_.resize(e.worker_id + 1, 0.0);
      have_offset_.resize(e.worker_id + 1, 0);
    }
    clock_offset_us_[e.worker_id] = e.offset_us;
    have_offset_[e.worker_id] = 1;
    if (e.worker_id == worker_id_) {
      telemetry_.SetGauge("cluster.clock_offset_us", e.offset_us);
      telemetry_.SetGauge("cluster.rtt_us", e.rtt_us);
    }
  }
  telemetry_.Count("cluster.clock_syncs", 1);
}

void Worker::HandleFreeze(const FreezeMsg& freeze) {
  ROD_TRACE_SPAN(&telemetry_, "cluster", "freeze.snapshot");
  // Freeze the rings at (approximately) the coordinator-chosen instant;
  // the snapshot happens inside BeginIncident. The kPause right behind
  // this freeze is read next: rendering the report waits for the repair.
  flight_recorder_.BeginIncident(freeze.kind, freeze.detail);
  flight_recorder_.Note("freeze ordered by coordinator (incident " +
                        std::to_string(freeze.incident_id) + ")");
  telemetry_.Count("cluster.freezes", 1);
  owed_report_ = OwedReport{freeze.incident_id, plan_version_, Now(),
                            paused_buffers_.size()};
}

Status Worker::SendFrozenReport() {
  ROD_TRACE_SPAN(&telemetry_, "cluster", "freeze.report");
  const OwedReport owed = *owed_report_;
  owed_report_.reset();
  flight_recorder_.CompleteIncident([&](telemetry::JsonWriter& w) {
    w.BeginObjectInline();
    w.Key("worker_id").Uint(worker_id_);
    w.Key("name").String(options_.name);
    w.Key("plan_version").Uint(owed.plan_version);
    w.Key("uptime_seconds").Double(owed.uptime);
    w.Key("queue_depth").Uint(owed.queue_depth);
    w.EndObject();
  });

  const std::vector<std::string> incidents = flight_recorder_.IncidentJsons();
  if (incidents.empty()) return Status::OK();
  FrozenReportMsg reply;
  reply.incident_id = owed.incident_id;
  reply.worker_id = worker_id_;
  reply.incident_json = incidents.back();
  // The wire string cap bounds one field at 1 MiB; a trace-heavy
  // incident beyond it degrades to a stub rather than a send failure.
  if (reply.incident_json.size() >= (1u << 20)) {
    reply.incident_json =
        "{\"truncated\": true, \"bytes\": " +
        std::to_string(incidents.back().size()) + "}";
  }
  return control_.Send(MsgType::kFrozenReport, reply.Encode());
}

void Worker::StartHttpPlane() {
  telemetry::Telemetry* tel = &telemetry_;
  telemetry::FlightRecorder* rec = &flight_recorder_;
  http_.Handle("/metrics", [tel](std::string_view) {
    std::ostringstream body;
    telemetry::WritePrometheusText(tel->Snapshot(), body);
    return telemetry::HttpServer::Response{
        200, telemetry::kPrometheusContentType, body.str()};
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
  const std::atomic<bool>* ready = &ready_;
  http_.Handle("/readyz", [ready](std::string_view) {
    return ready->load()
               ? telemetry::HttpServer::Response{200,
                                                 "text/plain; charset=utf-8",
                                                 "ready\n"}
               : telemetry::HttpServer::Response{503,
                                                 "text/plain; charset=utf-8",
                                                 "no plan installed\n"};
  });
  std::string error;
  if (http_.Start(options_.http_port, &error)) {
    http_port_ = http_.port();
  }
}

}  // namespace rod::cluster
