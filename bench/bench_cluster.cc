// Copyright (c) the ROD reproduction authors.
//
// Perf baseline of cluster mode (src/cluster): real multi-process runs
// on loopback with the coordinator in this process and each worker a
// posix_spawn()ed rod_worker process (built as bench_cluster_worker),
// measuring the three numbers that define the distributed
// runtime's responsiveness —
//
//   1. plan-ship latency: first kPlan send to last kPlanAck across all
//      workers (serialization + framed TCP + worker-side deployment
//      compile), sampled over several registration/run cycles;
//   2. inter-worker tuple throughput: tuples that actually crossed
//      process boundaries per second of run time, under a rate high
//      enough that shipping dominates;
//   3. kill-to-recovery: SIGKILL one worker mid-run and split the
//      outage into detection (last heartbeat to the verdict on the lost
//      control connection) and repair (supervisor placement +
//      pause/drain/reassign/resume diff).
//
// Emits a machine-readable JSON baseline (fields documented in
// docs/BENCH_CLUSTER.md) so later changes can regress against it.
//
//   bench_cluster [--mode smoke|full] [--json=PATH]
//                 [--workers N] [--ship-reps N] [--rate R]
//                 [--min-ship-tps X] [--max-plan-ship-ms X]
//                 [--max-recovery-s X]
//
// --mode smoke shrinks durations for CI; --json defaults to
// BENCH_CLUSTER.json. Exit code is nonzero iff a run fails, the chaos
// run does not recover, or a gate floor/ceiling is violated (all
// default 0 = disabled).

#include <signal.h>
#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/coordinator.h"
#include "common/random.h"
#include "query/graph_gen.h"
#include "telemetry/json_writer.h"

extern char** environ;

namespace {

using namespace rod;
using cluster::ClusterReport;
using cluster::Coordinator;
using cluster::CoordinatorOptions;

struct Config {
  bool smoke = false;
  size_t workers = 3;
  int ship_reps = 3;          ///< Plan-ship latency samples (one run each).
  double rate = 2000.0;       ///< Per-stream tuples/s for the throughput run.
  double min_ship_tps = 0.0;  ///< Floor on inter-worker tuples/s.
  double max_plan_ship_ms = 0.0;   ///< Ceiling on worst plan-ship sample.
  double max_recovery_s = 0.0;     ///< Ceiling on kill-to-recovery.
};

query::QueryGraph BenchGraph() {
  query::GraphGenOptions options;
  options.num_input_streams = 3;
  options.ops_per_tree = 6;
  Rng rng(7);
  return query::GenerateRandomTrees(options, rng);
}

CoordinatorOptions BaseOptions(const Config& cfg) {
  CoordinatorOptions options;
  options.expected_workers = cfg.workers;
  options.heartbeat_interval = 0.1;
  options.heartbeat_timeout = 0.5;
  options.register_timeout = 20.0;
  options.finish_grace = 0.4;
  return options;
}

/// Starts worker `index` against `port` with posix_spawn, not fork: this
/// process has live threads (the coordinator's and the thread pool's).
Result<pid_t> SpawnWorker(uint16_t port, size_t index) {
  std::vector<std::string> args = {ROD_WORKER_PATH, "--coordinator",
                                   std::to_string(port), "--name",
                                   "bench-worker-" + std::to_string(index),
                                   "--no-http"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, ROD_WORKER_PATH, nullptr, nullptr,
                               argv.data(), environ);
  if (rc != 0) {
    return Status::Internal(std::string("posix_spawn ") + ROD_WORKER_PATH +
                            ": " + std::strerror(rc));
  }
  return pid;
}

/// One full cluster lifecycle: listen, spawn `workers` processes, run to
/// completion (optionally SIGKILLing worker 0 at `kill_at` seconds), reap
/// every worker, and hand back the coordinator's report.
Result<ClusterReport> RunCluster(const query::QueryGraph& graph,
                                 const CoordinatorOptions& options,
                                 size_t workers, double kill_at = 0.0) {
  Coordinator coordinator(graph, options);
  ROD_RETURN_IF_ERROR(coordinator.Listen());

  std::vector<pid_t> pids;
  for (size_t i = 0; i < workers; ++i) {
    auto pid = SpawnWorker(coordinator.port(), i);
    if (!pid.ok()) {
      for (const pid_t started : pids) {
        ::kill(started, SIGKILL);
        ::waitpid(started, nullptr, 0);
      }
      return pid.status();
    }
    pids.push_back(*pid);
  }

  std::thread killer;
  if (kill_at > 0.0) {
    killer = std::thread([&pids, kill_at] {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kill_at));
      ::kill(pids[0], SIGKILL);
    });
  }

  const Status run = coordinator.Run();
  if (killer.joinable()) killer.join();
  for (const pid_t pid : pids) {
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
  }
  ROD_RETURN_IF_ERROR(run);
  return coordinator.report();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  Config cfg;
  std::string json_path =
      flags.json_path.empty() ? "BENCH_CLUSTER.json" : flags.json_path;
  for (size_t a = 0; a < flags.rest.size(); ++a) {
    const std::string& arg = flags.rest[a];
    auto next = [&]() -> std::string {
      return ++a < flags.rest.size() ? flags.rest[a] : std::string();
    };
    if (arg == "--mode") {
      cfg.smoke = next() == "smoke";
      if (cfg.smoke) {
        cfg.ship_reps = 2;
        cfg.rate = 1000.0;
      }
    } else if (arg == "--workers") {
      cfg.workers = std::stoul(next());
    } else if (arg == "--ship-reps") {
      cfg.ship_reps = std::stoi(next());
    } else if (arg == "--rate") {
      cfg.rate = std::stod(next());
    } else if (arg == "--min-ship-tps") {
      cfg.min_ship_tps = std::stod(next());
    } else if (arg == "--max-plan-ship-ms") {
      cfg.max_plan_ship_ms = std::stod(next());
    } else if (arg == "--max-recovery-s") {
      cfg.max_recovery_s = std::stod(next());
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const query::QueryGraph graph = BenchGraph();
  bench::Banner("cluster mode (" + std::string(cfg.smoke ? "smoke" : "full") +
                ", " + std::to_string(cfg.workers) + " worker processes)");

  auto fail = [](const Status& status) {
    std::cerr << "bench_cluster: " << status.ToString() << "\n";
    return 1;
  };

  // --- 1. plan-ship latency: short runs, one sample each. -------------
  std::vector<double> ship_ms;
  for (int rep = 0; rep < cfg.ship_reps; ++rep) {
    CoordinatorOptions options = BaseOptions(cfg);
    options.duration = 0.4;
    options.default_rate = 200.0;
    auto report = RunCluster(graph, options, cfg.workers);
    if (!report.ok()) return fail(report.status());
    ship_ms.push_back(report->plan_ship_seconds * 1e3);
  }
  const double ship_min = *std::min_element(ship_ms.begin(), ship_ms.end());
  const double ship_max = *std::max_element(ship_ms.begin(), ship_ms.end());
  double ship_mean = 0.0;
  for (const double v : ship_ms) ship_mean += v;
  ship_mean /= static_cast<double>(ship_ms.size());

  // --- 2. inter-worker tuple throughput under a high source rate. -----
  CoordinatorOptions tput_options = BaseOptions(cfg);
  tput_options.duration = cfg.smoke ? 1.5 : 2.5;
  tput_options.default_rate = cfg.rate;
  auto tput = RunCluster(graph, tput_options, cfg.workers);
  if (!tput.ok()) return fail(tput.status());
  const double ship_tps =
      tput->run_seconds > 0.0
          ? static_cast<double>(tput->totals.shipped) / tput->run_seconds
          : 0.0;
  // Per-tuple-batch ship latency, offset-corrected onto the coordinator
  // clock by each receiver and federated back over kStatsReport.
  const ClusterReport::ShipLatency& lat = tput->ship_latency;

  // --- 3. kill-to-recovery: SIGKILL worker 0 mid-run. -----------------
  CoordinatorOptions chaos_options = BaseOptions(cfg);
  chaos_options.duration = 3.0;
  chaos_options.default_rate = 200.0;
  auto chaos = RunCluster(graph, chaos_options, cfg.workers,
                          /*kill_at=*/1.2);
  if (!chaos.ok()) return fail(chaos.status());
  if (!chaos->had_incident) {
    return fail(Status::Internal("chaos run produced no incident"));
  }
  const sim::IncidentReport& incident = chaos->incident;
  const double detection_s = incident.detect_time - incident.crash_time;
  const double repair_s = incident.plan_applied_time - incident.detect_time;
  const double recovery_s = incident.plan_applied_time - incident.crash_time;

  bench::Table table({"measurement", "value"});
  table.AddRow({"plan ship min/mean/max (ms)",
                bench::Fmt(ship_min, 2) + " / " + bench::Fmt(ship_mean, 2) +
                    " / " + bench::Fmt(ship_max, 2)});
  table.AddRow({"inter-worker ship (tuples/s)", bench::Fmt(ship_tps, 0)});
  table.AddRow({"  shipped == received",
                tput->totals.shipped == tput->totals.received ? "yes" : "NO"});
  table.AddRow({"ship latency p50/p99/max (us)",
                bench::Fmt(lat.p50_us, 1) + " / " + bench::Fmt(lat.p99_us, 1) +
                    " / " + bench::Fmt(lat.max_us, 1)});
  table.AddRow({"detection delay (s)", bench::Fmt(detection_s, 3)});
  table.AddRow({"repair: pause->resume (s)", bench::Fmt(repair_s, 3)});
  table.AddRow({"kill-to-recovery (s)", bench::Fmt(recovery_s, 3)});
  table.AddRow({"operators moved", std::to_string(incident.operators_moved)});
  table.AddRow({"availability", bench::Fmt(incident.availability, 4)});
  table.Print();

  // Gates.
  bool ok = true;
  if (!incident.recovered || incident.operators_moved == 0) {
    std::cerr << "GATE: chaos run did not recover via a plan diff\n";
    ok = false;
  }
  if (tput->totals.shipped != tput->totals.received ||
      tput->totals.lost_tuples != 0) {
    std::cerr << "GATE: healthy throughput run lost tuples ("
              << tput->totals.shipped << " shipped, "
              << tput->totals.received << " received, "
              << tput->totals.lost_tuples << " lost)\n";
    ok = false;
  }
  if (cfg.min_ship_tps > 0.0 && ship_tps < cfg.min_ship_tps) {
    std::cerr << "GATE: inter-worker ship " << ship_tps
              << " tuples/s < floor " << cfg.min_ship_tps << "\n";
    ok = false;
  }
  if (cfg.max_plan_ship_ms > 0.0 && ship_max > cfg.max_plan_ship_ms) {
    std::cerr << "GATE: plan ship " << ship_max << " ms > ceiling "
              << cfg.max_plan_ship_ms << " ms\n";
    ok = false;
  }
  if (cfg.max_recovery_s > 0.0 && recovery_s > cfg.max_recovery_s) {
    std::cerr << "GATE: kill-to-recovery " << recovery_s << " s > ceiling "
              << cfg.max_recovery_s << " s\n";
    ok = false;
  }

  {
    std::ofstream out(json_path);
    telemetry::JsonWriter w(out);
    w.BeginObject();
    w.Key("schema").String("rod.bench_cluster.v1");
    bench::WriteBuildMetadata(w);
    w.Key("config").BeginObjectInline();
    w.Key("mode").String(cfg.smoke ? "smoke" : "full");
    w.Key("workers").Uint(cfg.workers);
    w.Key("ship_reps").Uint(static_cast<uint64_t>(cfg.ship_reps));
    w.Key("rate").Double(cfg.rate);
    w.Key("heartbeat_interval").Double(chaos_options.heartbeat_interval);
    w.Key("heartbeat_timeout").Double(chaos_options.heartbeat_timeout);
    w.EndObject();
    w.Key("plan_ship").BeginObjectInline();
    w.Key("samples").Uint(ship_ms.size());
    w.Key("min_ms").Double(ship_min);
    w.Key("mean_ms").Double(ship_mean);
    w.Key("max_ms").Double(ship_max);
    w.EndObject();
    w.Key("throughput").BeginObjectInline();
    w.Key("run_seconds").Double(tput->run_seconds);
    w.Key("generated").Uint(tput->totals.generated);
    w.Key("shipped").Uint(tput->totals.shipped);
    w.Key("received").Uint(tput->totals.received);
    w.Key("delivered").Uint(tput->totals.delivered);
    w.Key("lost").Uint(tput->totals.lost_tuples);
    w.Key("shipped_per_sec").Double(ship_tps);
    w.EndObject();
    w.Key("ship_latency").BeginObjectInline();
    w.Key("count").Uint(lat.count);
    w.Key("mean_us").Double(lat.mean_us);
    w.Key("p50_us").Double(lat.p50_us);
    w.Key("p99_us").Double(lat.p99_us);
    w.Key("max_us").Double(lat.max_us);
    w.EndObject();
    w.Key("recovery").BeginObjectInline();
    w.Key("detection_seconds").Double(detection_s);
    w.Key("repair_seconds").Double(repair_s);
    w.Key("kill_to_recovery_seconds").Double(recovery_s);
    if (chaos->phases.valid) {
      w.Key("pause_drain_seconds").Double(chaos->phases.pause_drain_seconds);
      w.Key("reassign_seconds").Double(chaos->phases.reassign_seconds);
      w.Key("resume_seconds").Double(chaos->phases.resume_seconds);
    }
    w.Key("operators_moved").Uint(incident.operators_moved);
    w.Key("plan_version").Uint(chaos->plan_version);
    w.Key("lost_tuples").Uint(incident.lost_tuples);
    w.Key("availability").Double(incident.availability);
    w.Key("recovered").Bool(incident.recovered);
    w.EndObject();
    w.Key("gates").BeginObjectInline();
    w.Key("min_ship_tps").Double(cfg.min_ship_tps);
    w.Key("max_plan_ship_ms").Double(cfg.max_plan_ship_ms);
    w.Key("max_recovery_s").Double(cfg.max_recovery_s);
    w.Key("passed").Bool(ok);
    w.EndObject();
    w.EndObject();
    out << "\n";
  }
  std::cout << "  baseline written to " << json_path << "\n";
  return ok ? 0 : 1;
}
