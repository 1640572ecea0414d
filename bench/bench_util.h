// Copyright (c) the ROD reproduction authors.
//
// Shared console-table rendering and experiment plumbing for the
// per-figure benchmark binaries.

#ifndef ROD_BENCH_BENCH_UTIL_H_
#define ROD_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "geometry/simd_kernel.h"
#include "placement/baselines.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "telemetry/aggregator.h"
#include "telemetry/exposition.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/http_server.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"

namespace rod::bench {

/// The standard CLI flags every bench binary accepts (the google-benchmark
/// micro benches strip these before handing the rest to the benchmark
/// library's own parser):
///   --json=PATH           machine-readable JSON. For most benches this is
///                         the telemetry metrics snapshot; the two perf
///                         benches write their results baseline here
///                         instead (bench_engine_perf embeds the snapshot
///                         under a "telemetry" key).
///   --trace=PATH          Chrome trace_event JSON of the run, loadable in
///                         chrome://tracing / Perfetto.
///   --serve=PORT          serve the live observability plane on
///                         127.0.0.1:PORT while the bench runs (0 picks an
///                         ephemeral port, printed at startup): /metrics
///                         (Prometheus), /metrics.json, /aggregator,
///                         /flightrecorder, /healthz, /readyz. See
///                         docs/OBSERVABILITY.md.
///   --flightrecorder=PATH write the incident flight-recorder artifact
///                         (rod.flight_recorder.v1 JSON) at exit.
/// Everything else lands in `rest` for the binary's own parser.
struct BenchFlags {
  std::string json_path;
  std::string trace_path;
  std::string flightrecorder_path;
  bool serve = false;
  uint16_t serve_port = 0;
  std::vector<std::string> rest;
};

inline BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags f;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--json=", 0) == 0) {
      f.json_path = arg.substr(7);
    } else if (arg.rfind("--trace=", 0) == 0) {
      f.trace_path = arg.substr(8);
    } else if (arg.rfind("--flightrecorder=", 0) == 0) {
      f.flightrecorder_path = arg.substr(17);
    } else if (arg.rfind("--serve=", 0) == 0) {
      f.serve = true;
      f.serve_port = static_cast<uint16_t>(std::stoul(arg.substr(8)));
    } else {
      f.rest.push_back(arg);
    }
  }
  return f;
}

/// Comma-separated positive thread counts ("1,2,4,8").
inline std::vector<size_t> ParseThreadList(const std::string& spec) {
  std::vector<size_t> threads;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const unsigned long v = std::stoul(item);
    if (v > 0) threads.push_back(v);
  }
  return threads;
}

/// The compiler that built this binary, e.g. "gcc 12.2.0".
inline std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The optimization/codegen flags the build applied to the bench binary
/// and the library it links (injected by bench/CMakeLists.txt).
inline const char* BenchCxxFlags() {
#ifdef ROD_BENCH_CXX_FLAGS
  return ROD_BENCH_CXX_FLAGS;
#else
  return "";
#endif
}

/// Stamps build/runtime provenance into a bench JSON: without the
/// compiler, flags, and the SIMD ISA the runtime dispatcher actually
/// selected, two baseline files cannot be compared meaningfully. Written
/// as a "metadata" object by every bench baseline writer (schemas in
/// docs/BENCH_ENGINE.md and docs/BENCH_VOLUME.md).
inline void WriteBuildMetadata(telemetry::JsonWriter& w) {
  w.Key("metadata").BeginObjectInline();
  w.Key("compiler").String(CompilerVersion());
  w.Key("cxx_flags").String(BenchCxxFlags());
  w.Key("simd_isa").String(geom::ActiveSimdIsa());
  w.EndObject();
}

/// Median and 10th/90th percentiles of a configuration's repeated
/// measurements: the shape every perf bench reports a rate in.
struct Spread {
  double median = 0.0;
  double p10 = 0.0;
  double p90 = 0.0;
};

inline Spread SpreadOf(const std::vector<double>& values) {
  return {Percentile(values, 0.5), Percentile(values, 0.1),
          Percentile(values, 0.9)};
}

/// Writes `key` (the median), `key_p10` and `key_p90`.
inline void WriteSpread(telemetry::JsonWriter& w, const std::string& key,
                        const Spread& s) {
  w.Key(key).Double(s.median);
  w.Key(key + "_p10").Double(s.p10);
  w.Key(key + "_p90").Double(s.p90);
}

/// The high-water gauges the Aggregator re-arms after every sample (see
/// Gauge::Max): peak thread-pool queue depth, peak event-queue size, and
/// the engine's peak per-node tuple-queue depth.
inline std::vector<std::string> HighWaterGauges() {
  return {"pool.queue_depth_high_water", "event_queue.size_high_water",
          "node.queue_depth_high_water"};
}

/// RAII telemetry wiring for a bench binary: when --json / --trace /
/// --serve / --flightrecorder asked for output, owns a Telemetry,
/// attaches it to the shared thread pool for the binary's lifetime, and
/// exports the requested files on destruction. The bench passes
/// `telemetry()` (and `flight_recorder()`) into SimulationOptions /
/// SweepOptions / Supervisor::Options wherever it builds them; the null
/// return when no flag was given keeps every instrumented path on its
/// telemetry-off branch. File export happens after the bench's parallel
/// work has finished (ParallelFor and the sweep entry points block until
/// every chunk completes), satisfying the exporters' quiescence
/// requirement; the live endpoints use the concurrent-safe accessors
/// (Snapshot / SnapshotTrace / Window / WriteJson), so scraping mid-run
/// is fine.
///
/// With --serve the session runs the full plane: an Aggregator sampling
/// once a second (resetting the high-water gauges) and an HttpServer on
/// 127.0.0.1 with /metrics, /metrics.json, /aggregator, /flightrecorder,
/// /healthz, and /readyz. /healthz answers 200 as long as the process
/// serves; /readyz answers 503 until set_ready(true) (benches flip it
/// after setup so a scraper can tell "warming up" from "measuring").
class TelemetrySession {
 public:
  /// `owns_json`: export the metrics snapshot to --json (the default).
  /// The perf benches pass false — their results baseline owns that path.
  explicit TelemetrySession(const BenchFlags& flags, bool owns_json = true)
      : json_path_(owns_json ? flags.json_path : std::string()),
        trace_path_(flags.trace_path),
        flightrecorder_path_(flags.flightrecorder_path) {
    const bool plane = flags.serve || !flightrecorder_path_.empty();
    if (json_path_.empty() && trace_path_.empty() && !plane) return;
    telemetry_ = std::make_unique<telemetry::Telemetry>();
    ThreadPool::Shared().set_telemetry(telemetry_.get());
    if (!plane) return;

    telemetry::AggregatorOptions agg;
    agg.reset_gauges = HighWaterGauges();
    aggregator_ =
        std::make_unique<telemetry::Aggregator>(telemetry_.get(), agg);
    aggregator_->Start();
    recorder_ = std::make_unique<telemetry::FlightRecorder>(
        telemetry_.get(), aggregator_.get());
    if (flags.serve) StartServer(flags.serve_port);
  }
  ~TelemetrySession() { Finish(); }
  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  /// Null when no telemetry output was requested.
  telemetry::Telemetry* telemetry() { return telemetry_.get(); }

  /// Null unless --serve / --flightrecorder was given.
  telemetry::FlightRecorder* flight_recorder() { return recorder_.get(); }
  telemetry::Aggregator* aggregator() { return aggregator_.get(); }

  /// The live plane's bound port; 0 when not serving.
  uint16_t serve_port() const {
    return server_ != nullptr ? server_->port() : 0;
  }

  /// Flips /readyz between 503 (false) and 200 (true).
  void set_ready(bool ready) { ready_.store(ready); }

  /// Stops the live plane, detaches the pool, and writes the exports.
  /// Idempotent.
  void Finish() {
    if (telemetry_ == nullptr || finished_) return;
    finished_ = true;
    if (server_ != nullptr) server_->Stop();
    if (aggregator_ != nullptr) aggregator_->Stop();
    ThreadPool::Shared().set_telemetry(nullptr);
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      telemetry_->WriteChromeTrace(out);
      std::cout << "wrote " << trace_path_ << " (chrome trace)\n";
    }
    if (!json_path_.empty()) {
      std::ofstream out(json_path_);
      telemetry_->WriteMetricsJson(out);
      std::cout << "wrote " << json_path_ << " (metrics snapshot)\n";
    }
    if (!flightrecorder_path_.empty() && recorder_ != nullptr) {
      std::ofstream out(flightrecorder_path_);
      recorder_->WriteJson(out);
      std::cout << "wrote " << flightrecorder_path_ << " (flight recorder, "
                << recorder_->incident_count() << " incidents)\n";
    }
  }

 private:
  void StartServer(uint16_t port) {
    server_ = std::make_unique<telemetry::HttpServer>();
    telemetry::Telemetry* tel = telemetry_.get();
    telemetry::Aggregator* agg = aggregator_.get();
    telemetry::FlightRecorder* rec = recorder_.get();
    server_->Handle("/metrics", [tel](std::string_view) {
      std::ostringstream body;
      telemetry::WritePrometheusText(tel->Snapshot(), body);
      return telemetry::HttpServer::Response{
          200, telemetry::kPrometheusContentType, body.str()};
    });
    server_->Handle("/metrics.json", [tel](std::string_view) {
      std::ostringstream body;
      tel->WriteMetricsJson(body);
      return telemetry::HttpServer::Response{200, "application/json",
                                             body.str()};
    });
    server_->Handle("/aggregator", [agg](std::string_view) {
      std::ostringstream body;
      agg->WriteWindowJson(body);
      return telemetry::HttpServer::Response{200, "application/json",
                                             body.str()};
    });
    server_->Handle("/flightrecorder", [rec](std::string_view) {
      std::ostringstream body;
      rec->WriteJson(body);
      return telemetry::HttpServer::Response{200, "application/json",
                                             body.str()};
    });
    server_->Handle("/healthz", [](std::string_view) {
      return telemetry::HttpServer::Response{
          200, "text/plain; charset=utf-8", "ok\n"};
    });
    const std::atomic<bool>* ready = &ready_;
    server_->Handle("/readyz", [ready](std::string_view) {
      return ready->load()
                 ? telemetry::HttpServer::Response{
                       200, "text/plain; charset=utf-8", "ready\n"}
                 : telemetry::HttpServer::Response{
                       503, "text/plain; charset=utf-8", "warming up\n"};
    });
    std::string error;
    if (!server_->Start(port, &error)) {
      std::cerr << "observability plane failed to start: " << error << "\n";
      server_.reset();
      return;
    }
    std::cout << "observability plane on http://127.0.0.1:" << server_->port()
              << " (/metrics /metrics.json /aggregator /flightrecorder"
              << " /healthz /readyz)\n";
  }

  std::string json_path_;
  std::string trace_path_;
  std::string flightrecorder_path_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::unique_ptr<telemetry::Aggregator> aggregator_;
  std::unique_ptr<telemetry::FlightRecorder> recorder_;
  std::unique_ptr<telemetry::HttpServer> server_;
  std::atomic<bool> ready_{false};
  bool finished_ = false;
};

/// Fixed-width console table: set a header once, stream rows, print.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  /// Appends one row; cells are already formatted strings.
  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Renders with per-column widths and a separator under the header.
  void Print(std::ostream& os = std::cout) const {
    std::vector<size_t> width(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < cells.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], cells[c].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < width.size(); ++c) {
        os << "  " << std::setw(static_cast<int>(width[c]))
           << (c < cells.size() ? cells[c] : "");
      }
      os << "\n";
    };
    print_row(header_);
    size_t total = 2;
    for (size_t w : width) total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting into a std::string.
inline std::string Fmt(double v, int precision = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// Section banner for experiment output.
inline void Banner(const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
}

/// The five §7.2 algorithms by name, applied uniformly: ROD plus the four
/// baselines (each baseline gets fresh random rates / series per trial, as
/// §7.3.1 prescribes).
struct AlgorithmSuite {
  const query::QueryGraph& graph;
  const query::LoadModel& model;
  const place::SystemSpec& system;

  /// Runs algorithm `name` ("ROD", "Correlation", "LLF", "Random",
  /// "Connected") with per-trial randomness from `rng`. Returns the plan.
  Result<place::Placement> Run(const std::string& name, Rng& rng) const {
    if (name == "ROD") {
      return place::RodPlace(model, system);
    }
    if (name == "Random") {
      return place::RandomPlace(model, system, rng);
    }
    if (name == "LLF") {
      return place::LargestLoadFirstPlace(model, system, RandomRates(rng));
    }
    if (name == "Connected") {
      return place::ConnectedLoadBalancePlace(model, graph, system,
                                              RandomRates(rng));
    }
    if (name == "Correlation") {
      // Random stream-rate time series (§7.3.1).
      const size_t horizon = 64;
      Matrix series(horizon, model.num_system_inputs());
      for (size_t t = 0; t < horizon; ++t) {
        for (size_t k = 0; k < series.cols(); ++k) {
          series(t, k) = rng.Uniform(0.01, 1.0);
        }
      }
      return place::CorrelationBasedPlace(model, system, series);
    }
    return Status::InvalidArgument("unknown algorithm: " + name);
  }

  Vector RandomRates(Rng& rng) const {
    Vector rates(model.num_system_inputs());
    for (double& r : rates) r = rng.Uniform(0.01, 1.0);
    return rates;
  }
};

/// The algorithm roster in the paper's Figure 14 legend order.
inline const std::vector<std::string>& AlgorithmNames() {
  static const std::vector<std::string> kNames = {
      "ROD", "Correlation", "LLF", "Random", "Connected"};
  return kNames;
}

}  // namespace rod::bench

#endif  // ROD_BENCH_BENCH_UTIL_H_
