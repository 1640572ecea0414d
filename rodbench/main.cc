// rodbench: the repository benchmark. Runs one workload for a
// fixed measured time and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) report the
// per-layer metrics and write a Chrome trace under --work-dir.
//
//   rodbench --workload NAME --seed N --seconds S --trace 0|1
//            --worker PATH/rod_worker --work-dir DIR
//
// run.py builds this binary and is the documented entry point; see
// README.md for the workloads and metrics.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using rodbench::Outcome;
using rodbench::RunConfig;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks every printed name and unit).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mib", "MiB"},
    {"plan_ratio", "ratio"},
    {"latency_ms.p50", "ms"},
    {"latency_ms.p90", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"query.graph_ms", "ms"},
    {"placement.rod_ms.p50", "ms"},
    {"geometry.ratio_ms.p50", "ms"},
    {"geometry.samples_per_s", "1/s"},
    {"geometry.sample_gen_ms", "ms"},
    {"runtime.sim_tuples_per_s", "1/s"},
    {"runtime.events", "count"},
    {"runtime.events_per_tuple", "ratio"},
    {"runtime.events_per_s", "1/s"},
    {"runtime.simulate_s.p50", "s"},
    {"runtime.engine.setup_ms", "ms"},
    {"runtime.engine.run_ms", "ms"},
    {"runtime.engine.finalize_ms", "ms"},
    {"runtime.calendar_resizes", "count"},
    {"runtime.event_queue_high_water", "count"},
    {"runtime.shed_tuples", "count"},
    {"runtime.backpressure_deferred", "count"},
    {"runtime.queue_high_water", "count"},
    {"runtime.overload_consults", "count"},
    {"runtime.supervisor_ms", "ms"},
    {"runtime.sweep.speedup_vs_1t", "ratio"},
    {"common.pool.tasks", "count"},
    {"common.pool.queue_high_water", "count"},
    {"trace.write_records_per_s", "1/s"},
    {"trace.scan_records_per_s", "1/s"},
    {"trace.segment_loads", "count"},
    {"trace.evictions", "count"},
    {"cluster.plan_ship_ms", "ms"},
    {"cluster.detect_s", "s"},
    {"cluster.repair_ms", "ms"},
    {"cluster.pause_drain_ms", "ms"},
    {"cluster.reassign_ms", "ms"},
    {"cluster.resume_ms", "ms"},
    {"cluster.repair_other_ms", "ms"},
    {"cluster.frames_per_s", "1/s"},
    {"cluster.frames_per_s.tuples", "1/s"},
    {"cluster.frames_per_s.heartbeat", "1/s"},
    {"cluster.frames_per_s.stats_report", "1/s"},
    {"cluster.bytes_per_s", "B/s"},
    {"cluster.bytes_per_s.tuples", "B/s"},
    {"cluster.bytes_per_s.heartbeat", "B/s"},
    {"cluster.bytes_per_s.stats_report", "B/s"},
    {"cluster.ship_latency_us.mean", "us"},
    {"cluster.ship_latency_us.p99", "us"},
    {"cluster.sink_latency_ms.mean", "ms"},
    {"cluster.tuples_lost", "count"},
    {"cluster.ship_failures", "count"},
    {"telemetry.overhead_pct", "%"},
    {"telemetry.trace_dropped", "count"},
    {"telemetry.dropped_registrations", "count"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: rodbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --worker PATH --work-dir DIR\n"
               "workloads: place_scale sim_steady sim_burst_failover "
               "cluster_failover\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      config->trace = value[0] == '1';
    } else if (flag == "--worker") {
      config->worker_path = value;
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !config->workload.empty() &&
         !config->work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!ParseArgs(argc, argv, &config)) return Usage();
  // A fixed threshold turns off glibc's adaptive one, so large blocks are
  // always mapped and unmapped. Peak RSS then tracks live memory; with
  // the adaptive threshold it moved by 5 MiB with heap layout alone
  // (for example, with the length of --work-dir).
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  Outcome outcome;
  try {
    if (config.workload == "place_scale") {
      outcome = rodbench::RunPlaceScale(config);
    } else if (config.workload == "sim_steady") {
      outcome = rodbench::RunSimSteady(config);
    } else if (config.workload == "sim_burst_failover") {
      outcome = rodbench::RunSimBurstFailover(config);
    } else if (config.workload == "cluster_failover") {
      outcome = rodbench::RunClusterFailover(config);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rodbench: %s\n", e.what());
    return 1;
  }

  std::string metrics;
  auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = outcome.metrics.find(spec.name);
    double value = 0.0;
    if (it == outcome.metrics.end()) {
      if (required) outcome.Fail(std::string("missing metric ") + spec.name);
    } else if (!std::isfinite(it->second)) {
      outcome.Fail(std::string("non-finite metric ") + spec.name);
    } else {
      value = it->second;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (config.trace) {
    // A layer the workload does not exercise reads 0.
    for (const MetricSpec& spec : kPerLayer) emit(spec, /*required=*/false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, /*required=*/true);
  }
  if (outcome.attempted == 0) outcome.Fail("no operation attempted");
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "rodbench: check failed: %s\n", problem.c_str());
  }
  std::fflush(stderr);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(outcome.attempted, 1)),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return 0;
}
