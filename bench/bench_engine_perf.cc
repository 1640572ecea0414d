// Copyright (c) the ROD reproduction authors.
//
// Perf baseline of the tuple-level simulation engine. Sweeps graph size x
// offered load on the single-run hot path (the default configuration,
// the same with delivery batching off, and the same with a telemetry sink
// attached) and the sweep runner (N independent runs across the thread
// pool), reporting the median events/sec of repeated runs with its p10
// and p90, tuples/sec, each event type's share of the events, sweep wall
// time, and bit-exactness between every configuration pair that must
// agree. Also runs a small telemetry-enabled showcase (chaos run +
// parallel sweep) whose metrics snapshot is embedded in the JSON and
// whose Chrome trace --trace exports. Emits a machine-readable JSON
// baseline (fields documented in docs/BENCH_ENGINE.md) so later changes
// can regress against it.
//
//   bench_engine_perf [--mode smoke|full] [--json=PATH] [--trace=PATH]
//                     [--threads=1,2,4,8] [--max-telemetry-overhead=PCT]
//                     [--min-events-per-sec=F]
//
// --mode smoke shrinks the sweep for CI; --json defaults to
// BENCH_engine.json. Exit code is nonzero iff a bit-exactness check fails,
// the median enabled-telemetry overhead on the largest workload exceeds
// --max-telemetry-overhead, or the default configuration's median
// events/sec on the gate workload (4 streams x 25 operators at load 0.8,
// present in both modes) falls below --min-events-per-sec (both gates
// default to 0 = disabled).

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "runtime/chaos.h"
#include "runtime/supervisor.h"
#include "runtime/sweep.h"
#include "telemetry/json_writer.h"
#include "telemetry/telemetry.h"

namespace {

using namespace rod;

struct Workload {
  size_t streams = 0;
  size_t ops_per_tree = 0;
  double load_level = 0.0;  ///< Fraction of the placement's boundary.
  size_t total_ops() const { return streams * ops_per_tree; }
  bool operator==(const Workload&) const = default;
};

/// The workload --min-events-per-sec reads: the largest smoke workload,
/// which full mode runs too, so a full-mode baseline sets a smoke floor.
constexpr Workload kGateWorkload{4, 25, 0.8};

using bench::Spread;
using bench::SpreadOf;
using bench::WriteSpread;

struct SingleRun {
  Workload w;
  double duration = 0.0;
  size_t reps = 0;
  size_t batch_size = 0;  ///< Delivery batch limit of the default config.
  uint64_t events = 0;  ///< Events per rep (identical across reps).
  size_t input_tuples = 0;
  size_t output_tuples = 0;
  /// Share of `events` per EventType (SimulationResult::events_by_type).
  std::array<double, sim::kNumEventTypes> event_shares{};
  Spread events_per_sec;            ///< Default configuration.
  double tuples_per_sec = 0.0;      ///< At the median events/sec.
  Spread batch1_events_per_sec;     ///< Default with batching off.
  Spread telemetry_events_per_sec;  ///< Default + telemetry sink.
  double telemetry_overhead_pct = 0.0;  ///< 100 * (off/on - 1), medians.
  bool bitexact_vs_batch1 = false;  ///< default == batch_size 1, incl. p99.
  bool bitexact_vs_telemetry = false;
};

struct SweepRun {
  Workload w;
  size_t cases = 0;
  size_t threads = 0;
  double seconds = 0.0;
  double speedup_vs_1 = 0.0;
  bool bitexact_vs_seq = false;
};

/// One compiled workload: random trees, ROD-placed, rates at `load_level`
/// of the analytic uniform boundary.
struct Setup {
  query::QueryGraph graph;
  place::SystemSpec system;
  Result<query::LoadModel> model{Status::Internal("unset")};
  Result<place::Placement> plan{Status::Internal("unset")};
  std::vector<trace::RateTrace> traces;
};

Setup MakeSetup(const Workload& w, double duration, uint64_t seed) {
  Setup s;
  query::GraphGenOptions gen;
  gen.num_input_streams = w.streams;
  gen.ops_per_tree = w.ops_per_tree;
  // Cheap operators (vs the paper's 0.1-10ms delay ops): the feasibility
  // boundary moves to thousands of tuples/sec, so a run executes millions
  // of events and the measurement exercises the hot loop, not the setup.
  gen.min_cost = 2e-6;
  gen.max_cost = 2e-5;
  Rng rng(seed);
  s.graph = query::GenerateRandomTrees(gen, rng);
  s.model = query::BuildLoadModel(s.graph);
  ROD_CHECK_OK(s.model.status());
  s.system = place::SystemSpec::Homogeneous(std::max<size_t>(2, w.streams));
  s.plan = place::RodPlace(*s.model, s.system);
  ROD_CHECK_OK(s.plan.status());
  const place::PlacementEvaluator eval(*s.model, s.system);
  Vector unit(s.model->num_system_inputs(), 1.0);
  auto boundary = eval.BoundaryScaleAlong(*s.plan, unit);
  ROD_CHECK_OK(boundary.status());
  const double rate = w.load_level * *boundary;
  for (size_t k = 0; k < w.streams; ++k) {
    trace::RateTrace t;
    t.window_sec = duration;
    t.rates = {rate};
    s.traces.push_back(std::move(t));
  }
  return s;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The fields every configuration pair must agree on bit-for-bit.
bool SameResult(const sim::SimulationResult& a,
                const sim::SimulationResult& b) {
  return a.input_tuples == b.input_tuples &&
         a.output_tuples == b.output_tuples &&
         a.processed_events == b.processed_events &&
         a.mean_latency == b.mean_latency && a.max_latency == b.max_latency &&
         a.node_utilization == b.node_utilization &&
         a.final_backlog == b.final_backlog && a.saturated == b.saturated;
}

void WriteJson(const std::string& path, const std::string& mode,
               const std::vector<SingleRun>& singles,
               const std::vector<SweepRun>& sweeps,
               const telemetry::MetricsSnapshot& showcase) {
  std::ofstream out(path);
  telemetry::JsonWriter w(out);
  w.BeginObject();
  w.Key("bench").String("bench_engine_perf");
  w.Key("mode").String(mode);
  w.Key("hardware_concurrency")
      .Uint(std::max(1u, std::thread::hardware_concurrency()));
  bench::WriteBuildMetadata(w);
  w.Key("single_runs").BeginArray();
  for (const SingleRun& r : singles) {
    w.BeginObjectInline();
    w.Key("streams").Uint(r.w.streams);
    w.Key("total_ops").Uint(r.w.total_ops());
    w.Key("load_level").Double(r.w.load_level);
    w.Key("duration").Double(r.duration);
    w.Key("reps").Uint(r.reps);
    w.Key("batch_size").Uint(r.batch_size);
    w.Key("events").Uint(r.events);
    w.Key("input_tuples").Uint(r.input_tuples);
    w.Key("output_tuples").Uint(r.output_tuples);
    w.Key("event_shares").BeginObjectInline();
    for (size_t t = 0; t < sim::kNumEventTypes; ++t) {
      w.Key(sim::kEventTypeNames[t]).Double(r.event_shares[t]);
    }
    w.EndObject();
    WriteSpread(w, "events_per_sec", r.events_per_sec);
    w.Key("tuples_per_sec").Double(r.tuples_per_sec);
    WriteSpread(w, "batch1_events_per_sec", r.batch1_events_per_sec);
    w.Key("bitexact_vs_batch1").Bool(r.bitexact_vs_batch1);
    WriteSpread(w, "telemetry_events_per_sec", r.telemetry_events_per_sec);
    w.Key("telemetry_overhead_pct").Double(r.telemetry_overhead_pct);
    w.Key("bitexact_vs_telemetry").Bool(r.bitexact_vs_telemetry);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sweeps").BeginArray();
  for (const SweepRun& r : sweeps) {
    w.BeginObjectInline();
    w.Key("streams").Uint(r.w.streams);
    w.Key("total_ops").Uint(r.w.total_ops());
    w.Key("load_level").Double(r.w.load_level);
    w.Key("cases").Uint(r.cases);
    w.Key("threads").Uint(r.threads);
    w.Key("seconds").Double(r.seconds);
    w.Key("speedup_vs_1").Double(r.speedup_vs_1);
    w.Key("bitexact_vs_seq").Bool(r.bitexact_vs_seq);
    w.EndObject();
  }
  w.EndArray();
  w.Key("telemetry");
  telemetry::WriteSnapshotJson(showcase, w);
  w.EndObject();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  std::string mode = "full";
  std::string json_path = flags.json_path.empty() ? std::string("BENCH_engine.json")
                                                  : flags.json_path;
  std::vector<size_t> threads_list;
  double max_telemetry_overhead = 0.0;  // 0 disables the check
  double min_events_per_sec = 0.0;      // 0 disables the check
  for (size_t a = 0; a < flags.rest.size(); ++a) {
    const std::string& arg = flags.rest[a];
    if (arg == "--mode" && a + 1 < flags.rest.size()) {
      mode = flags.rest[++a];
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads_list = bench::ParseThreadList(arg.substr(10));
    } else if (arg.rfind("--max-telemetry-overhead=", 0) == 0) {
      max_telemetry_overhead = std::stod(arg.substr(25));
    } else if (arg.rfind("--min-events-per-sec=", 0) == 0) {
      min_events_per_sec = std::stod(arg.substr(21));
    } else {
      std::cerr << "usage: bench_engine_perf [--mode smoke|full] "
                   "[--json=PATH] [--trace=PATH] [--threads=1,2,4,8] "
                   "[--max-telemetry-overhead=PCT] "
                   "[--min-events-per-sec=F] "
                   "[--serve=PORT] [--flightrecorder=PATH]\n";
      return 2;
    }
  }
  // The live plane (--serve / --flightrecorder) gets its own session and
  // sink; --json/--trace stay owned by this binary's baseline writer and
  // showcase, so they are cleared from the session's view.
  bench::BenchFlags plane_flags = flags;
  plane_flags.json_path.clear();
  plane_flags.trace_path.clear();
  bench::TelemetrySession plane(plane_flags);
  plane.set_ready(true);
  if (mode != "smoke" && mode != "full") {
    std::cerr << "unknown mode '" << mode << "' (want smoke or full)\n";
    return 2;
  }
  const bool smoke = mode == "smoke";
  if (threads_list.empty()) {
    threads_list = smoke ? std::vector<size_t>{1, 2}
                         : std::vector<size_t>{1, 2, 4, 8};
  }

  // Graph size x offered load; both modes include kGateWorkload.
  const std::vector<Workload> workloads =
      smoke ? std::vector<Workload>{{2, 10, 0.5}, kGateWorkload}
            : std::vector<Workload>{{2, 10, 0.5}, {4, 25, 0.5}, kGateWorkload,
                                    {5, 40, 0.8}};
  const double duration = smoke ? 15.0 : 40.0;
  const size_t reps = smoke ? 5 : 7;
  // The sweep section re-simulates the largest workload many times per
  // thread count, so it gets a shorter horizon than the single-run path.
  const double sweep_duration = smoke ? 6.0 : 12.0;
  const size_t sweep_cases = smoke ? 6 : 16;

  bench::Banner("engine single-run hot path (median Mev/s [p10, p90])");
  bench::Table single_table({"streams", "ops", "load", "events", "ev/s",
                             "ev/s p10", "ev/s p90", "b1 ev/s", "tel ev/s",
                             "tel ovh%", "bitexact"});
  std::vector<SingleRun> singles;
  bool all_bitexact = true;
  std::vector<std::string> mix_header = {"streams", "ops", "load"};
  for (const char* name : sim::kEventTypeNames) mix_header.push_back(name);
  bench::Table mix_table(mix_header);

  for (const Workload& w : workloads) {
    const Setup s = MakeSetup(w, duration, /*seed=*/0xe9f0 + w.total_ops());

    sim::SimulationOptions fast;
    fast.duration = duration;
    // A realistic metro-area hop keeps many deliveries in flight, so the
    // event queue runs deep enough to exercise the queue kernel
    // (identical for every configuration; does not affect bit-exactness).
    fast.network_latency = 10e-3;
    sim::SimulationOptions batch1 = fast;  // batching off: isolates batching
    batch1.batch_size = 1;
    // Default path with a live telemetry sink: the enabled-overhead
    // column. Under --serve the runs record into the live plane's sink
    // instead — the aggregator samples and the HTTP server scrapes it
    // concurrently, so the overhead gate then covers the entire plane,
    // not just the recording fast path.
    telemetry::Telemetry run_telemetry;
    sim::SimulationOptions fast_telemetry = fast;
    fast_telemetry.telemetry = plane.telemetry() != nullptr
                                   ? plane.telemetry()
                                   : &run_telemetry;

    // All configurations are timed with their reps interleaved
    // round-robin (fast, batch1, telemetry, fast, ...) rather than one
    // configuration at a time: on shared hardware the machine's
    // throughput drifts over the seconds a workload takes, and
    // interleaving exposes every configuration to the same drift. Each
    // configuration then reports the median of its reps, with p10 and
    // p90 as the spread.
    enum Config { kFast, kBatch1, kTelemetry, kConfigs };
    const std::array<const sim::SimulationOptions*, kConfigs> configs = {
        &fast, &batch1, &fast_telemetry};
    std::array<std::vector<double>, kConfigs> rates;
    std::array<sim::SimulationResult, kConfigs> results;
    for (const sim::SimulationOptions* options : configs) {
      // One short warmup per configuration grows the thread-local
      // workspace (and its event queue) before anything is timed.
      sim::SimulationOptions warm_options = *options;
      warm_options.duration = std::min(duration, 2.0);
      auto warm = sim::SimulatePlacement(s.graph, *s.plan, s.system,
                                         s.traces, warm_options);
      ROD_CHECK_OK(warm.status());
    }
    for (size_t rep = 0; rep < reps; ++rep) {
      for (size_t c = 0; c < configs.size(); ++c) {
        const auto t0 = std::chrono::steady_clock::now();
        auto run = sim::SimulatePlacement(s.graph, *s.plan, s.system,
                                          s.traces, *configs[c]);
        const double secs = SecondsSince(t0);
        ROD_CHECK_OK(run.status());
        rates[c].push_back(static_cast<double>(run->processed_events) / secs);
        if (rep == 0) results[c] = std::move(*run);
      }
    }

    SingleRun r;
    r.w = w;
    r.duration = duration;
    r.reps = reps;
    r.batch_size = fast.batch_size;
    r.events = results[kFast].processed_events;
    r.input_tuples = results[kFast].input_tuples;
    r.output_tuples = results[kFast].output_tuples;
    std::vector<std::string> mix_row = {std::to_string(w.streams),
                                        std::to_string(w.total_ops()),
                                        bench::Fmt(w.load_level, 1)};
    for (size_t t = 0; t < sim::kNumEventTypes; ++t) {
      r.event_shares[t] =
          static_cast<double>(results[kFast].events_by_type[t]) /
          static_cast<double>(r.events);
      mix_row.push_back(bench::Fmt(100.0 * r.event_shares[t], 1));
    }
    mix_table.AddRow(mix_row);
    r.events_per_sec = SpreadOf(rates[kFast]);
    // Every rep runs the same events, so the median rate scales to tuples.
    r.tuples_per_sec = r.events_per_sec.median *
                       static_cast<double>(r.input_tuples) /
                       static_cast<double>(r.events);
    r.batch1_events_per_sec = SpreadOf(rates[kBatch1]);
    r.telemetry_events_per_sec = SpreadOf(rates[kTelemetry]);
    // Delivery batching is bit-exact for every batch size (see engine.cc),
    // so turning it off must not move a bit either.
    r.bitexact_vs_batch1 =
        SameResult(results[kFast], results[kBatch1]) &&
        results[kFast].p99_latency == results[kBatch1].p99_latency;
    // Telemetry is observation-only, so attaching it must not move a bit.
    r.bitexact_vs_telemetry =
        SameResult(results[kFast], results[kTelemetry]) &&
        results[kFast].p99_latency == results[kTelemetry].p99_latency;
    r.telemetry_overhead_pct =
        100.0 * (r.events_per_sec.median /
                     r.telemetry_events_per_sec.median -
                 1.0);
    all_bitexact =
        all_bitexact && r.bitexact_vs_batch1 && r.bitexact_vs_telemetry;
    singles.push_back(r);
    single_table.AddRow(
        {std::to_string(w.streams), std::to_string(w.total_ops()),
         bench::Fmt(w.load_level, 1), std::to_string(r.events),
         bench::Fmt(r.events_per_sec.median / 1e6, 2),
         bench::Fmt(r.events_per_sec.p10 / 1e6, 2),
         bench::Fmt(r.events_per_sec.p90 / 1e6, 2),
         bench::Fmt(r.batch1_events_per_sec.median / 1e6, 2),
         bench::Fmt(r.telemetry_events_per_sec.median / 1e6, 2),
         bench::Fmt(r.telemetry_overhead_pct, 1),
         r.bitexact_vs_batch1 && r.bitexact_vs_telemetry ? "yes" : "NO"});
  }
  single_table.Print();
  bench::Banner("event mix by type (% of events, default configuration)");
  mix_table.Print();

  bench::Banner("sweep runner wall time (largest workload)");
  bench::Table sweep_table(
      {"cases", "threads", "seconds", "speedup", "bitexact"});
  std::vector<SweepRun> sweeps;
  {
    const Workload& w = workloads.back();
    const Setup s =
        MakeSetup(w, sweep_duration, /*seed=*/0xe9f0 + w.total_ops());
    const auto seeds = sim::ForkSeeds(0x5eedba5e, sweep_cases);
    std::vector<sim::SimulationCase> cases;
    for (size_t i = 0; i < sweep_cases; ++i) {
      sim::SimulationCase c;
      c.graph = &s.graph;
      c.placement = &*s.plan;
      c.system = &s.system;
      c.inputs = &s.traces;
      c.options.duration = sweep_duration;
      c.options.seed = seeds[i];
      cases.push_back(c);
    }
    std::vector<sim::SimulationResult> reference;
    double base_secs = 0.0;
    {
      // One warm pass grows the pool workers' thread-local workspaces.
      sim::SweepOptions warm;
      warm.num_threads = threads_list.back();
      (void)sim::SimulateSweep(cases, warm);
    }
    for (size_t threads : threads_list) {
      sim::SweepOptions sweep;
      sweep.num_threads = threads;
      const auto t0 = std::chrono::steady_clock::now();
      auto results = sim::SimulateSweep(cases, sweep);
      const double secs = SecondsSince(t0);
      bool bitexact = true;
      if (threads == threads_list.front()) {
        base_secs = secs;
        for (auto& r : results) {
          ROD_CHECK_OK(r.status());
          reference.push_back(std::move(*r));
        }
      } else {
        for (size_t i = 0; i < results.size(); ++i) {
          ROD_CHECK_OK(results[i].status());
          bitexact = bitexact && SameResult(*results[i], reference[i]) &&
                     results[i]->p99_latency == reference[i].p99_latency;
        }
      }
      all_bitexact = all_bitexact && bitexact;
      SweepRun r;
      r.w = w;
      r.cases = sweep_cases;
      r.threads = threads;
      r.seconds = secs;
      r.speedup_vs_1 = base_secs / secs;
      r.bitexact_vs_seq = bitexact;
      sweeps.push_back(r);
      sweep_table.AddRow({std::to_string(sweep_cases),
                          std::to_string(threads), bench::Fmt(secs, 3),
                          bench::Fmt(r.speedup_vs_1, 2),
                          bitexact ? "yes" : "NO"});
    }
  }
  sweep_table.Print();

  // Telemetry showcase: one fully instrumented incident run (crash +
  // supervised repair) plus a small parallel sweep with the sink attached
  // to the sweep runner and the shared pool, so the embedded snapshot —
  // and the --trace export — carries engine, supervisor, sweep, and
  // thread-pool series.
  bench::Banner("telemetry showcase (chaos run + parallel sweep)");
  telemetry::Telemetry showcase;
  {
    const Workload& w = workloads.front();
    const double demo_duration = 10.0;
    const Setup s = MakeSetup(w, demo_duration, /*seed=*/0xe9f0);
    ThreadPool::Shared().set_telemetry(&showcase);

    sim::FailureSchedule chaos;
    chaos.CrashAt(demo_duration * 0.3, /*node=*/1);
    sim::Supervisor::Options sup_options;
    sup_options.detection_delay = 0.5;
    sup_options.policy = sim::Supervisor::Policy::kRepair;
    sup_options.telemetry = &showcase;
    // Under --serve / --flightrecorder the showcase crash also exercises
    // the flight recorder, so /flightrecorder (and the exported artifact)
    // carries a real incident.
    sup_options.flight_recorder = plane.flight_recorder();
    sim::Supervisor supervisor(*s.model, sup_options);
    sim::SimulationOptions incident;
    incident.duration = demo_duration;
    incident.failures = &chaos;
    incident.recovery = &supervisor;
    incident.telemetry = &showcase;
    incident.flight_recorder = plane.flight_recorder();
    auto incident_run =
        sim::SimulatePlacement(s.graph, *s.plan, s.system, s.traces, incident);
    ROD_CHECK_OK(incident_run.status());

    const auto seeds = sim::ForkSeeds(0x7e1e, 4);
    std::vector<sim::SimulationCase> cases;
    for (uint64_t seed : seeds) {
      sim::SimulationCase c;
      c.graph = &s.graph;
      c.placement = &*s.plan;
      c.system = &s.system;
      c.inputs = &s.traces;
      c.options.duration = demo_duration;
      c.options.seed = seed;
      c.options.telemetry = &showcase;
      cases.push_back(c);
    }
    sim::SweepOptions sweep;
    sweep.num_threads = threads_list.back();
    sweep.telemetry = &showcase;
    auto results = sim::SimulateSweep(cases, sweep);
    for (auto& r : results) ROD_CHECK_OK(r.status());
    // Re-attach the plane's sink (a no-op null when --serve is off).
    ThreadPool::Shared().set_telemetry(plane.telemetry());

    const telemetry::MetricsSnapshot snap = showcase.Snapshot();
    std::cout << "showcase recorded " << snap.counters.size() << " counters, "
              << snap.histograms.size() << " histograms, "
              << snap.trace_events_recorded << " trace events ("
              << snap.trace_events_dropped << " dropped)\n";
    if (!flags.trace_path.empty()) {
      std::ofstream trace_out(flags.trace_path);
      showcase.WriteChromeTrace(trace_out);
      std::cout << "wrote " << flags.trace_path << " (chrome trace)\n";
    }
  }

  bool throughput_ok = true;
  if (min_events_per_sec > 0.0) {
    // An absolute floor, so it depends on the measuring machine's speed:
    // the committed full-mode baseline's p10 on this workload sets it.
    const auto gate = std::find_if(
        singles.begin(), singles.end(),
        [](const SingleRun& r) { return r.w == kGateWorkload; });
    const double median = gate->events_per_sec.median;
    throughput_ok = median >= min_events_per_sec;
    std::cout << "median events/sec on the gate workload: "
              << bench::Fmt(median / 1e6, 2) << "M (floor "
              << bench::Fmt(min_events_per_sec / 1e6, 2)
              << "M): " << (throughput_ok ? "ok" : "BELOW FLOOR") << "\n";
  }

  bool overhead_ok = true;
  if (max_telemetry_overhead > 0.0) {
    const double worst = singles.back().telemetry_overhead_pct;
    overhead_ok = worst <= max_telemetry_overhead;
    std::cout << "telemetry overhead on largest workload: "
              << bench::Fmt(worst, 1) << "% (limit "
              << bench::Fmt(max_telemetry_overhead, 1) << "%): "
              << (overhead_ok ? "ok" : "EXCEEDED") << "\n";
  }

  std::cout << "\nall bit-exactness checks passed: "
            << (all_bitexact ? "yes" : "NO") << "\n";
  WriteJson(json_path, mode, singles, sweeps, showcase.Snapshot());
  std::cout << "wrote " << json_path << " (" << singles.size()
            << " single runs, " << sweeps.size() << " sweep points)\n";
  return all_bitexact && overhead_ok && throughput_ok ? 0 : 1;
}
