// rod-coordinator: the cluster control process. Waits for N workers to
// register on the control port, runs ROD placement over their advertised
// capacities, ships the serialized plan, starts the workload, monitors
// liveness (control connections and heartbeats), repairs worker failures
// via the plan-diff protocol, and writes an end-of-run cluster report
// (plus the incident flight-recorder artifact when a worker died mid-run).
//
//   $ ./build/tools/rod_coordinator --port 7341 --workers 3 --duration 3 --report report.json --flightrecorder fr.json
//
// The query graph defaults to the paper's random-trees workload
// (--gen-streams/--gen-ops/--gen-seed); pass --graph FILE to load the
// textual query-graph format instead.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "rod.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workers N [options]\n"
      "options:\n"
      "  --workers N           workers to wait for before planning (required)\n"
      "  --port PORT           control port on 127.0.0.1 (default: ephemeral,\n"
      "                        printed on stdout as 'control_port=...')\n"
      "  --duration S          seconds of source generation (default 2)\n"
      "  --rate R              tuples/sec per input stream (default 200)\n"
      "  --seed S              workload seed (default 1)\n"
      "  --heartbeat-interval S  worker heartbeat cadence (default 0.25)\n"
      "  --heartbeat-timeout S   deadline for a silent worker (default 1.0)\n"
      "  --register-timeout S  registration deadline (default 30)\n"
      "  --graph FILE          textual query graph (default: generated)\n"
      "  --gen-streams D       generated workload input streams (default 3)\n"
      "  --gen-ops M           generated operators per tree (default 6)\n"
      "  --gen-seed S          generator seed (default 7)\n"
      "  --http-port PORT      serve the coordinator observability plane\n"
      "  --report PATH         write the cluster report JSON here\n"
      "  --flightrecorder PATH write the incident artifact JSON here\n"
      "  --trace PATH          dump the coordinator's Chrome trace here\n"
      "                        (merge with rod_trace_merge)\n",
      argv0);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseU16(const char* text, uint16_t* out) {
  uint64_t value = 0;
  if (!ParseU64(text, &value) || value > 65535) return false;
  *out = static_cast<uint16_t>(value);
  return true;
}

bool ParseF64(const char* text, double* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  rod::cluster::CoordinatorOptions options;
  std::string graph_file;
  std::string report_path;
  std::string flightrecorder_path;
  uint64_t workers = 0;
  uint64_t gen_streams = 3;
  uint64_t gen_ops = 6;
  uint64_t gen_seed = 7;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--workers") == 0) {
      if (!ParseU64(value, &workers)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--port") == 0) {
      if (!ParseU16(value, &options.control_port)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--duration") == 0) {
      if (!ParseF64(value, &options.duration)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--rate") == 0) {
      if (!ParseF64(value, &options.default_rate)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!ParseU64(value, &options.seed)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--heartbeat-interval") == 0) {
      if (!ParseF64(value, &options.heartbeat_interval)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--heartbeat-timeout") == 0) {
      if (!ParseF64(value, &options.heartbeat_timeout)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--register-timeout") == 0) {
      if (!ParseF64(value, &options.register_timeout)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--graph") == 0) {
      if (value == nullptr) return Usage(argv[0]);
      graph_file = value;
      ++i;
    } else if (std::strcmp(arg, "--gen-streams") == 0) {
      if (!ParseU64(value, &gen_streams)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--gen-ops") == 0) {
      if (!ParseU64(value, &gen_ops)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--gen-seed") == 0) {
      if (!ParseU64(value, &gen_seed)) return Usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--http-port") == 0) {
      if (!ParseU16(value, &options.http_port)) return Usage(argv[0]);
      options.serve_http = true;
      ++i;
    } else if (std::strcmp(arg, "--report") == 0) {
      if (value == nullptr) return Usage(argv[0]);
      report_path = value;
      ++i;
    } else if (std::strcmp(arg, "--flightrecorder") == 0) {
      if (value == nullptr) return Usage(argv[0]);
      flightrecorder_path = value;
      ++i;
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (value == nullptr) return Usage(argv[0]);
      options.trace_path = value;
      ++i;
    } else {
      return Usage(argv[0]);
    }
  }
  if (workers == 0) return Usage(argv[0]);
  options.expected_workers = static_cast<size_t>(workers);

  rod::query::QueryGraph graph;
  if (!graph_file.empty()) {
    auto loaded = rod::query::LoadQueryGraphFile(graph_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "rod_coordinator: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded.value());
  } else {
    rod::query::GraphGenOptions gen;
    gen.num_input_streams = static_cast<size_t>(gen_streams);
    gen.ops_per_tree = static_cast<size_t>(gen_ops);
    rod::Rng rng(gen_seed);
    graph = rod::query::GenerateRandomTrees(gen, rng);
  }

  rod::cluster::Coordinator coordinator(std::move(graph),
                                        std::move(options));
  rod::Status status = coordinator.Listen();
  if (status.ok()) {
    std::printf("control_port=%u\n", coordinator.port());
    std::fflush(stdout);
    status = coordinator.Run();
  }

  // Write artifacts even on failure: a half-run's report and incident
  // notes are exactly what a post-mortem needs.
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (out) coordinator.WriteReportJson(out);
  }
  if (!flightrecorder_path.empty()) {
    std::ofstream out(flightrecorder_path);
    if (out) coordinator.flight_recorder().WriteJson(out);
  }

  if (!status.ok()) {
    std::fprintf(stderr, "rod_coordinator: %s\n", status.ToString().c_str());
    return 1;
  }
  const rod::cluster::ClusterReport& report = coordinator.report();
  std::printf(
      "cluster run done: workers=%zu plan_version=%llu "
      "plan_ship_ms=%.2f generated=%llu delivered=%llu lost=%llu "
      "incident=%s\n",
      report.num_workers,
      static_cast<unsigned long long>(report.plan_version),
      report.plan_ship_seconds * 1e3,
      static_cast<unsigned long long>(report.totals.generated),
      static_cast<unsigned long long>(report.totals.delivered),
      static_cast<unsigned long long>(report.totals.lost_tuples),
      report.had_incident ? "yes" : "no");
  return 0;
}
