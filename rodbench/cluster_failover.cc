// cluster_failover: open loop at fixed, seeded per-stream rates. The
// coordinator runs in this process with 3 rod_worker processes on
// loopback (HTTP planes off) and seeded 18-operator graphs of the shape
// bench_cluster uses (3 streams x 6 operators). Set-up probes start a
// cluster and stop it at kStart; then one lifecycle runs healthy and
// every later one SIGKILLs the same logical worker (coordinator-assigned
// id kVictim) at 30% of the run. It reports control-plane times only: a
// kTuples frame carries a count and workers model CPU instead of
// spending it, so delivered tuples/s is the offered rate.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "common/net.h"
#include "harness.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

extern char** environ;

namespace rodbench {
namespace {

using namespace rod;
using cluster::ClusterReport;

constexpr size_t kWorkers = 3;
constexpr size_t kStreams = 3;
constexpr size_t kOpsPerTree = 6;
// Graphs drawn per run. Lifecycles use the first few; plan_ratio averages
// all of them, because one 18-operator plan's ratio swings ~12% by seed.
constexpr size_t kGraphs = 128;
constexpr uint32_t kVictim = 1;  // Coordinator-assigned id of the victim.
constexpr double kHealthyDuration = 1.0;
constexpr double kChaosDuration = 1.6;
constexpr double kKillAt = 0.3;  // Fraction of the chaos run.
constexpr size_t kSetupProbes = 25;
constexpr double kHeartbeatInterval = 0.1;
constexpr double kHeartbeatTimeout = 0.5;
constexpr double kFinishGrace = 0.4;
constexpr double kMinRate = 150.0;  // Per-stream tuples/s, seeded in
constexpr double kMaxRate = 250.0;  // [kMinRate, kMaxRate).
constexpr double kPollSeconds = 0.0005;
constexpr double kStepTimeout = 10.0;
// Hard stop if the machine is far slower than expected.
constexpr double kMaxLoopSeconds = 120.0;

/// The worker processes of one lifecycle. The destructor SIGKILLs and
/// reaps any still running, so no child outlives a failed lifecycle.
class WorkerProcesses {
 public:
  explicit WorkerProcesses(std::string binary, std::string log)
      : binary_(std::move(binary)), log_(std::move(log)) {}
  ~WorkerProcesses() {
    for (const pid_t pid : pids_) {
      if (pid > 0) ::kill(pid, SIGKILL);
    }
    ReapAll();
  }
  WorkerProcesses(const WorkerProcesses&) = delete;
  WorkerProcesses& operator=(const WorkerProcesses&) = delete;

  /// posix_spawn (not fork: this process has live threads) of one
  /// rod_worker with its observability plane off.
  Status Spawn(uint16_t port, const std::string& name) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const std::string port_text = std::to_string(port);
    std::vector<char*> argv = {
        const_cast<char*>(binary_.c_str()), const_cast<char*>("--coordinator"),
        const_cast<char*>(port_text.c_str()), const_cast<char*>("--no-http"),
        const_cast<char*>("--name"), const_cast<char*>(name.c_str()), nullptr};
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, binary_.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      return Status::Internal("posix_spawn " + binary_ + ": " +
                              std::strerror(rc));
    }
    pids_.push_back(pid);
    return Status::OK();
  }

  void Kill(size_t index) {
    if (index < pids_.size() && pids_[index] > 0) {
      ::kill(pids_[index], SIGKILL);
    }
  }

  /// Waits for every child; returns the largest peak RSS among them.
  double ReapAll() {
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      rusage usage{};
      while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      max_rss_mib_ = std::max(max_rss_mib_,
                              static_cast<double>(usage.ru_maxrss) / 1024.0);
      pid = -1;
    }
    return max_rss_mib_;
  }

 private:
  std::string binary_;
  std::string log_;
  std::vector<pid_t> pids_;
  double max_rss_mib_ = 0.0;
};

uint64_t CounterValue(const telemetry::Telemetry& tel, const char* name) {
  const telemetry::MetricsSnapshot snap = tel.Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Polls a coordinator counter until it reaches `target`.
bool AwaitCounter(const telemetry::Telemetry& tel, const char* name,
                  uint64_t target) {
  const double deadline = NowSeconds() + kStepTimeout;
  while (CounterValue(tel, name) < target) {
    if (NowSeconds() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
  }
  return true;
}

/// One raw loopback HTTP GET of the coordinator's federated /metrics.
std::string ScrapeMetrics(uint16_t port) {
  int fd = net::ConnectLoopback(port);
  if (fd < 0) return "";
  net::SetSocketTimeouts(fd, 5.0);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::string response;
  if (net::WriteAll(fd, request.data(), request.size())) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
  }
  net::CloseFd(&fd);
  return response;
}

/// Frames and bytes sent, per frame type, summed over every process of
/// the federated exposition (tx only, so no frame is counted twice).
struct WireTotals {
  std::map<std::string, double> frames;
  std::map<std::string, double> bytes;
};

void ParseFederated(const std::string& text, WireTotals* wire) {
  static const std::string kFrames = "cluster_frame_tx_";
  static const std::string kBytes = "cluster_frame_tx_bytes_";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) {
      continue;
    }
    std::string name = line.substr(0, name_end);
    if (name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0) {
      name.resize(name.size() - 6);
    }
    const double value = std::strtod(line.c_str() + value_at + 1, nullptr);
    if (name.rfind(kBytes, 0) == 0) {
      wire->bytes[name.substr(kBytes.size())] += value;
    } else if (name.rfind(kFrames, 0) == 0) {
      wire->frames[name.substr(kFrames.size())] += value;
    }
  }
}

std::string WorkerLog(const RunConfig& config) {
  return config.work_dir + "/workers.log";
}

struct Lifecycle {
  Status status;
  std::optional<ClusterReport> report;
  uint64_t request = 0;
  uint64_t root_span = 0;
  double started_us = 0.0;  ///< kStart on the benchmark's trace clock.
  double setup_seconds = 0.0;
  double kill_run_time = -1.0;  ///< SIGKILL on the coordinator's run clock.
  double worker_rss_mib = 0.0;
  std::string federated;        ///< /metrics text (traced lifecycles).
  telemetry::MetricsSnapshot coordinator_metrics;
};

enum class Kind { kProbe, kHealthy, kChaos };

/// One lifecycle: listen, spawn the workers one at a time (so spawn
/// order is registration order and worker id k is always the k-th
/// spawn), run to completion — SIGKILLing worker kVictim mid-run for
/// kChaos — and reap every child. A kProbe stops at kStart.
Lifecycle RunLifecycle(const RunConfig& config, const query::QueryGraph& graph,
                       const std::vector<double>& rates, uint64_t seed,
                       Kind kind, bool traced, Tracer* tracer,
                       uint64_t request) {
  Lifecycle life;
  const bool chaos = kind == Kind::kChaos;
  Span root(tracer,
            kind == Kind::kProbe   ? "lifecycle.probe"
            : kind == Kind::kChaos ? "lifecycle.chaos"
                                   : "lifecycle.healthy",
            request);
  life.request = request;
  life.root_span = root.id();
  Span setup(tracer, "cluster.setup", request, root.id());
  cluster::CoordinatorOptions options;
  options.expected_workers = kWorkers;
  options.heartbeat_interval = kHeartbeatInterval;
  options.heartbeat_timeout = kHeartbeatTimeout;
  options.finish_grace = kFinishGrace;
  options.register_timeout = kStepTimeout;
  options.duration = chaos ? kChaosDuration : kHealthyDuration;
  options.seed = seed;
  options.rates = rates;
  // The federated plane is the only way to read the workers' registries.
  options.serve_http = traced;
  cluster::Coordinator coordinator(graph, options);
  life.status = coordinator.Listen();
  if (!life.status.ok()) return life;

  WorkerProcesses workers(config.worker_path, WorkerLog(config));
  Status run_status;
  std::thread runner([&] { run_status = coordinator.Run(); });
  const telemetry::Telemetry& tel = coordinator.telemetry();
  for (size_t k = 0; k < kWorkers && life.status.ok(); ++k) {
    life.status = workers.Spawn(coordinator.port(), "w" + std::to_string(k));
    if (life.status.ok() &&
        !AwaitCounter(tel, "cluster.workers_registered", k + 1)) {
      life.status = Status::Unavailable("worker " + std::to_string(k) +
                                        " did not register");
    }
  }
  // kStart has gone to every worker once the coordinator counted the
  // frames; its run clock starts right after.
  if (life.status.ok() &&
      !AwaitCounter(tel, "cluster.frame.tx.start", kWorkers)) {
    life.status = Status::Unavailable("run did not start");
  }
  const double started = NowSeconds();
  life.started_us = tracer->NowUs();
  life.setup_seconds = setup.End();
  if (!life.status.ok() || kind == Kind::kProbe) {
    coordinator.RequestStop();
    runner.join();
    if (life.status.ok()) life.status = run_status;
    return life;
  }
  Span run(tracer, "cluster.run", request, root.id());
  if (chaos) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        started + kKillAt * options.duration - NowSeconds()));
    workers.Kill(kVictim);
    life.kill_run_time = NowSeconds() - started;
  }
  runner.join();
  run.End();
  life.worker_rss_mib = workers.ReapAll();
  life.status = run_status;
  if (traced && life.status.ok()) {
    life.federated = ScrapeMetrics(coordinator.http_port());
  }
  life.coordinator_metrics = tel.Snapshot();
  if (life.status.ok()) life.report = coordinator.report();
  return life;
}

/// The repair's phases as spans on the benchmark's clock, from the report's
/// run-clock times. The report gives each protocol phase's length, not
/// its start, so pause→drain, reassign and resume are laid back to back
/// ending when the plan went live; the rest of the repair precedes them.
void RecordRepairSpans(Tracer* tracer, const Lifecycle& life,
                       const ClusterReport& r) {
  auto add = [&](const char* name, double begin, double end,
                 uint64_t parent) {
    const uint64_t id = tracer->NewSpanId();
    tracer->Record({name, id, parent, life.request,
                    life.started_us + begin * 1e6,
                    life.started_us + end * 1e6, 0});
    return id;
  };
  add("cluster.detect", r.incident.crash_time, r.incident.detect_time,
      life.root_span);
  const uint64_t repair =
      add("cluster.repair", r.incident.detect_time,
          r.incident.plan_applied_time, life.root_span);
  double end = r.incident.plan_applied_time;
  for (const auto& [name, seconds] :
       {std::pair{"cluster.resume", r.phases.resume_seconds},
        std::pair{"cluster.reassign", r.phases.reassign_seconds},
        std::pair{"cluster.pause_drain", r.phases.pause_drain_seconds}}) {
    add(name, end - seconds, end, repair);
    end -= seconds;
  }
}

}  // namespace

Outcome RunClusterFailover(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  Tracer untraced(false);
  // The workers append their exit lines here; keep one run's worth.
  std::remove(WorkerLog(config).c_str());

  // Seeded inputs: a sample of graphs (lifecycle i runs graph i) and the
  // per-stream rates.
  std::vector<query::QueryGraph> graphs;
  std::vector<double> ratios;
  const place::SystemSpec system = place::SystemSpec::Homogeneous(kWorkers);
  for (size_t g = 0; g < kGraphs; ++g) {
    query::GraphGenOptions gen;
    gen.num_input_streams = kStreams;
    gen.ops_per_tree = kOpsPerTree;
    Rng rng(ItemSeed(config.seed, g));
    graphs.push_back(query::GenerateRandomTrees(gen, rng));
    // The plan the coordinator computes for it (ROD over three equal
    // capacities) and that plan's feasible-set ratio.
    double ratio = 0.0;
    auto model = query::BuildLoadModel(graphs.back());
    if (model.ok()) {
      auto plan = place::RodPlace(*model, system);
      if (plan.ok()) {
        auto r = place::PlacementEvaluator(*model, system).RatioToIdeal(*plan);
        if (r.ok()) ratio = *r;
      }
    }
    if (ratio > 0.0 && ratio <= 1.0) {
      ratios.push_back(ratio);
    } else {
      out.Fail("graph " + std::to_string(g) + ": no valid plan");
    }
  }
  std::vector<double> rates;
  Rng rate_rng(ItemSeed(config.seed ^ 0x7a7e5ULL, 0));
  for (size_t k = 0; k < kStreams; ++k) {
    rates.push_back(rate_rng.Uniform(kMinRate, kMaxRate));
  }

  // Set-up, repeated: clusters started and stopped at kStart.
  std::vector<double> setup_s, recovery_ms, traced_ms, untraced_ms;
  for (size_t p = 0; p < kSetupProbes; ++p) {
    ++out.attempted;
    const Lifecycle probe =
        RunLifecycle(config, graphs[p % kGraphs], rates,
                     ItemSeed(config.seed ^ 0x9b0beULL, p), Kind::kProbe,
                     false, &tracer, tracer.NewRequest());
    if (!probe.status.ok()) {
      ++out.failed;
      out.Fail("set-up probe " + std::to_string(p) + ": " +
               probe.status.ToString());
      continue;
    }
    setup_s.push_back(probe.setup_seconds);
  }

  std::vector<double> plan_ship_ms, detect_s, repair_ms, pause_drain_ms,
      reassign_ms, resume_ms, other_ms;
  double worker_rss = 0.0;
  double traced_run_seconds = 0.0;
  double lost = 0.0, ship_failures = 0.0;
  uint64_t chaos_runs = 0;
  WireTotals wire;
  double trace_dropped = 0.0, dropped_registrations = 0.0;
  std::vector<double> ship_mean_us, ship_p99_us, sink_ms;

  const double start = NowSeconds();
  for (uint64_t i = 0; i == 0 || (NowSeconds() - start < config.seconds &&
                                  NowSeconds() - start < kMaxLoopSeconds);
       ++i) {
    const bool chaos = i > 0;
    // In a traced run, every other chaos lifecycle is untraced.
    const bool traced = config.trace && (i == 0 || i % 2 == 0);
    Tracer* t = traced ? &tracer : &untraced;
    ++out.attempted;
    Lifecycle life = RunLifecycle(config, graphs[i % kGraphs], rates,
                                  ItemSeed(config.seed, 1 + i),
                                  chaos ? Kind::kChaos : Kind::kHealthy,
                                  traced, t, t->NewRequest());
    if (!life.status.ok() || !life.report.has_value()) {
      ++out.failed;
      out.Fail("lifecycle " + std::to_string(i) + ": " +
               life.status.ToString());
      continue;
    }
    const ClusterReport& r = *life.report;
    setup_s.push_back(life.setup_seconds);
    worker_rss = std::max(worker_rss, life.worker_rss_mib);
    bool ok = r.num_workers == kWorkers && r.workers.size() == kWorkers;
    for (size_t k = 0; ok && k < kWorkers; ++k) {
      // Worker id k must be the k-th spawn, so the victim is always the
      // same logical worker.
      ok = r.workers[k].worker_id == k &&
           r.workers[k].name == "w" + std::to_string(k);
    }
    if (!chaos) {
      // Healthy: ships exactly what it receives and loses nothing.
      ok = ok && !r.had_incident && r.totals.shipped == r.totals.received &&
           r.totals.lost_tuples == 0 && r.totals.ship_failures == 0 &&
           r.totals.delivered > 0;
    } else {
      // Chaos: recovers through a plan diff that moves an operator.
      ok = ok && r.had_incident && r.incident.failed_node == kVictim &&
           r.incident.plan_applied_time > life.kill_run_time &&
           r.incident.operators_moved > 0 && r.phases.valid &&
           !r.workers[kVictim].alive;
    }
    if (!ok) {
      ++out.failed;
      out.Fail("lifecycle " + std::to_string(i) + " (" +
               (chaos ? "chaos" : "healthy") + "): failed its output check");
      continue;
    }
    if (chaos) {
      const double ms =
          (r.incident.plan_applied_time - life.kill_run_time) * 1e3;
      recovery_ms.push_back(ms);
      ++chaos_runs;
      (traced ? traced_ms : untraced_ms).push_back(ms);
    }
    if (!traced) continue;
    plan_ship_ms.push_back(r.plan_ship_seconds * 1e3);
    if (chaos) {
      RecordRepairSpans(&tracer, life, r);
      const double repair =
          r.incident.plan_applied_time - r.incident.detect_time;
      detect_s.push_back(r.phases.detect_seconds);
      repair_ms.push_back(repair * 1e3);
      pause_drain_ms.push_back(r.phases.pause_drain_seconds * 1e3);
      reassign_ms.push_back(r.phases.reassign_seconds * 1e3);
      resume_ms.push_back(r.phases.resume_seconds * 1e3);
      other_ms.push_back((repair - r.phases.pause_drain_seconds -
                          r.phases.reassign_seconds -
                          r.phases.resume_seconds) *
                         1e3);
      lost += static_cast<double>(r.totals.lost_tuples);
      ship_failures += static_cast<double>(r.totals.ship_failures);
    } else {
      ship_mean_us.push_back(r.ship_latency.mean_us);
      ship_p99_us.push_back(r.ship_latency.p99_us);
      if (r.totals.latency_count > 0) {
        sink_ms.push_back(r.totals.latency_sum /
                          static_cast<double>(r.totals.latency_count) * 1e3);
      }
    }
    if (life.federated.empty()) out.Fail("federated /metrics scrape failed");
    ParseFederated(life.federated, &wire);
    traced_run_seconds += r.run_seconds;
    trace_dropped +=
        static_cast<double>(life.coordinator_metrics.trace_events_dropped);
    dropped_registrations +=
        static_cast<double>(life.coordinator_metrics.dropped_registrations);
  }

  auto& m = out.metrics;
  m["setup_s"] = Median(setup_s);
  m["rss_mib"] = std::max(PeakRssMib(), worker_rss);
  m["plan_ratio"] = Mean(ratios);
  m["latency_ms.p50"] = Quantile(recovery_ms, 0.5);
  m["latency_ms.p90"] = Quantile(recovery_ms, 0.9);
  if (chaos_runs == 0) out.Fail("no chaos lifecycle completed");
  if (!config.trace) return out;

  const double chaos_traced =
      static_cast<double>(std::max<size_t>(1, repair_ms.size()));
  m["cluster.plan_ship_ms"] = Median(plan_ship_ms);
  m["cluster.detect_s"] = Median(detect_s);
  m["cluster.repair_ms"] = Median(repair_ms);
  m["cluster.pause_drain_ms"] = Median(pause_drain_ms);
  m["cluster.reassign_ms"] = Median(reassign_ms);
  m["cluster.resume_ms"] = Median(resume_ms);
  m["cluster.repair_other_ms"] = Median(other_ms);
  double frames = 0.0, bytes = 0.0;
  for (const auto& [type, n] : wire.frames) frames += n;
  for (const auto& [type, n] : wire.bytes) bytes += n;
  if (traced_run_seconds > 0.0) {
    m["cluster.frames_per_s"] = frames / traced_run_seconds;
    m["cluster.bytes_per_s"] = bytes / traced_run_seconds;
    for (const char* type : {"tuples", "heartbeat", "stats_report"}) {
      m[std::string("cluster.frames_per_s.") + type] =
          wire.frames[type] / traced_run_seconds;
      m[std::string("cluster.bytes_per_s.") + type] =
          wire.bytes[type] / traced_run_seconds;
    }
  }
  m["cluster.ship_latency_us.mean"] = Median(ship_mean_us);
  m["cluster.ship_latency_us.p99"] = Median(ship_p99_us);
  m["cluster.sink_latency_ms.mean"] = Median(sink_ms);
  m["cluster.tuples_lost"] = lost / chaos_traced;
  m["cluster.ship_failures"] = ship_failures / chaos_traced;
  m["telemetry.overhead_pct"] =
      OverheadPct(Median(traced_ms), Median(untraced_ms));
  m["telemetry.trace_dropped"] = trace_dropped;
  m["telemetry.dropped_registrations"] = dropped_registrations;
  if (!tracer.WriteChromeTrace(TracePath(config), nullptr)) {
    out.Fail("could not write " + TracePath(config));
  }
  return out;
}

}  // namespace rodbench
