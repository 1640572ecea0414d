// The two engine workloads. Both simulate the same seeded set of
// ROD-placed 200-operator graphs (5 streams x 40 operators, 2-20 µs per
// tuple) on 5 nodes, one graph per case, as SimulateSweep jobs on the
// shared pool:
//
//   sim_steady          Poisson arrivals at 0.8 of each plan's analytic
//                       boundary, unbounded queues, no faults: the
//                       engine's fast path.
//   sim_burst_failover  b-model arrivals (bias 0.65, same mean) written to
//                       trace-store files in set-up and replayed through
//                       ReplaySet::OpenStores; bounded kQosWeighted queues,
//                       the overload detector on, and a node crash at 30%
//                       of each case repaired by sim::Supervisor.
//
// Each case's virtual duration is chosen so it costs about the same
// number of operator invocations, which keeps a job's work nearly
// independent of the seed's graphs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "geometry/sample_cache.h"
#include "harness.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "runtime/chaos.h"
#include "runtime/engine.h"
#include "runtime/supervisor.h"
#include "runtime/sweep.h"
#include "runtime/workload_driver.h"
#include "trace/bmodel.h"
#include "trace/store/reader.h"
#include "trace/store/replay.h"
#include "trace/store/writer.h"

namespace rodbench {
namespace {

using namespace rod;

constexpr size_t kStreams = 5;
constexpr size_t kOpsPerTree = 40;
constexpr size_t kNodes = 5;
constexpr size_t kCases = 6;
constexpr size_t kSetups = 11;
constexpr double kLoad = 0.8;
constexpr double kNetworkLatency = 10e-3;
// Expected operator invocations per case: sizing cases by work rather
// than by virtual time keeps a job's cost nearly independent of how
// bushy the seed's graphs are.
constexpr double kInvocationsPerCase = 200000.0;
// b-model windows are power-of-two fractions of a second: the arrival
// generator's window walk (runtime/workload_driver.cc) can stall forever
// on a window end that t / window_sec rounds back into the previous
// window, which widths such as 0.04, 0.05 and 0.1 s hit.
constexpr double kBurstWindow = 1.0 / 32.0;
constexpr double kBurstBias = 0.65;
constexpr double kCrashAt = 0.3;  // Fraction of each failover case.
constexpr double kDetectionDelay = 1.0 / 16.0;
constexpr size_t kQueueCapacity = 256;
constexpr uint32_t kStoreSegmentRecords = 512;
constexpr size_t kResidentSegments = 2;
// Hard stop if the machine is far slower than expected.
constexpr double kMaxLoopSeconds = 120.0;

/// One case's graph, plan and offered load.
struct GraphCase {
  query::QueryGraph graph;
  std::optional<query::LoadModel> model;
  std::optional<place::Placement> plan;
  double ratio = 0.0;
  double rate = 0.0;      ///< Per-stream tuples/s (kLoad x boundary).
  double duration = 0.0;  ///< Virtual seconds.
  std::vector<trace::RateTrace> steady_traces;
};

/// Sweep width: every core but one, so other activity on the machine
/// does not stretch a job by preempting one of its threads.
sim::SweepOptions Sweep() {
  sim::SweepOptions sweep;
  sweep.num_threads =
      std::max<size_t>(1, sim::ResolveSweepThreads(0) - 1);
  return sweep;
}

const place::SystemSpec& System() {
  static const place::SystemSpec system =
      place::SystemSpec::Homogeneous(kNodes);
  return system;
}

/// Graph generation and placement of every case; spans per layer call.
Status BuildGraphCases(uint64_t seed, Tracer* tracer, uint64_t request,
                       uint64_t parent, std::vector<GraphCase>* cases) {
  cases->clear();
  cases->resize(kCases);
  for (size_t i = 0; i < kCases; ++i) {
    GraphCase& c = (*cases)[i];
    {
      Span span(tracer, "query.graph", request, parent);
      query::GraphGenOptions gen;
      gen.num_input_streams = kStreams;
      gen.ops_per_tree = kOpsPerTree;
      gen.min_cost = 2e-6;
      gen.max_cost = 2e-5;
      Rng rng(ItemSeed(seed, i));
      c.graph = query::GenerateRandomTrees(gen, rng);
      auto model = query::BuildLoadModel(c.graph);
      ROD_RETURN_IF_ERROR(model.status());
      c.model.emplace(std::move(*model));
    }
    {
      Span span(tracer, "placement.rod", request, parent);
      auto plan = place::RodPlace(*c.model, System());
      ROD_RETURN_IF_ERROR(plan.status());
      c.plan.emplace(std::move(*plan));
    }
    const place::PlacementEvaluator evaluator(*c.model, System());
    {
      Span span(tracer, "geometry.ratio", request, parent);
      auto ratio = evaluator.RatioToIdeal(*c.plan);
      ROD_RETURN_IF_ERROR(ratio.status());
      c.ratio = *ratio;
    }
    const Vector unit(kStreams, 1.0);
    auto boundary = evaluator.BoundaryScaleAlong(*c.plan, unit);
    ROD_RETURN_IF_ERROR(boundary.status());
    if (!std::isfinite(*boundary) || *boundary <= 0.0) {
      return Status::Internal("degenerate boundary");
    }
    c.rate = kLoad * *boundary;
    // Operator invocations per virtual second at this rate.
    const Vector rates(kStreams, c.rate);
    const Vector loads = c.model->OperatorLoadsAt(rates);
    double invocations = 0.0;
    for (size_t j = 0; j < loads.size(); ++j) {
      invocations += loads[j] / c.graph.spec(static_cast<uint32_t>(j)).cost;
    }
    c.duration = kInvocationsPerCase / invocations;
    for (size_t k = 0; k < kStreams; ++k) {
      trace::RateTrace t;
      t.window_sec = c.duration;
      t.rates = {c.rate};
      c.steady_traces.push_back(std::move(t));
    }
  }
  return Status::OK();
}

sim::SimulationOptions BaseOptions(const GraphCase& c, uint64_t seed) {
  sim::SimulationOptions options;
  options.duration = c.duration;
  options.network_latency = kNetworkLatency;
  options.seed = seed;
  return options;
}

/// The fields two runs of one case must agree on bit for bit.
bool SameResult(const sim::SimulationResult& a,
                const sim::SimulationResult& b) {
  return a.input_tuples == b.input_tuples && a.shed_tuples == b.shed_tuples &&
         a.output_tuples == b.output_tuples &&
         a.processed_events == b.processed_events &&
         a.mean_latency == b.mean_latency && a.p99_latency == b.p99_latency &&
         a.max_latency == b.max_latency &&
         a.node_utilization == b.node_utilization &&
         a.final_backlog == b.final_backlog &&
         a.overload.total_shed() == b.overload.total_shed();
}

/// Counts every traced job adds up, turned into per-case figures.
struct RuntimeTotals {
  uint64_t jobs = 0;
  uint64_t cases = 0;
  uint64_t events = 0;
  uint64_t input_tuples = 0;
  uint64_t shed = 0;
  uint64_t deferred = 0;
  uint64_t consults = 0;
  size_t queue_high_water = 0;

  void Add(const sim::SimulationResult& r) {
    ++cases;
    events += r.processed_events;
    input_tuples += r.input_tuples;
    shed += r.overload.total_shed();
    deferred += r.overload.backpressure_deferred;
    consults += r.overload.control_consults;
    queue_high_water =
        std::max(queue_high_water, r.overload.queue_depth_high_water);
  }
};

/// Per-layer runtime/common/telemetry metrics of a traced run, from the
/// results and the program's own telemetry (spans, counters, gauges).
void AddRuntimeLayerMetrics(const RuntimeTotals& totals,
                            const telemetry::Telemetry& tel, Outcome* out) {
  auto& m = out->metrics;
  const double cases =
      static_cast<double>(std::max<uint64_t>(1, totals.cases));
  const auto trace = tel.SnapshotTrace();
  const auto self = SelfMicrosByName(trace);
  const telemetry::MetricsSnapshot snap = tel.Snapshot();
  auto counter = [&snap](const char* name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto gauge = [&snap](const char* name) -> double {
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };
  auto self_ms = [&self](const char* name) -> double {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second * 1e-3;
  };
  std::vector<double> case_s;
  for (const auto& e : trace) {
    if (!e.instant && std::string(e.category) == "sweep" &&
        std::string(e.name) == "case") {
      case_s.push_back(e.dur_us * 1e-6);
    }
  }
  double case_seconds = 0.0;
  for (const double seconds : case_s) case_seconds += seconds;
  m["runtime.events"] = static_cast<double>(totals.events) / cases;
  m["runtime.events_per_tuple"] =
      totals.input_tuples == 0 ? 0.0
                               : static_cast<double>(totals.events) /
                                     static_cast<double>(totals.input_tuples);
  m["runtime.events_per_s"] =
      case_seconds > 0.0 ? static_cast<double>(totals.events) / case_seconds
                         : 0.0;
  m["runtime.simulate_s.p50"] = Median(case_s);
  m["runtime.engine.setup_ms"] = self_ms("engine.setup") / cases;
  m["runtime.engine.run_ms"] = self_ms("engine.run") / cases;
  m["runtime.engine.finalize_ms"] = self_ms("engine.finalize") / cases;
  m["runtime.calendar_resizes"] = counter("engine.calendar.resizes") / cases;
  m["runtime.event_queue_high_water"] = gauge("event_queue.size_high_water");
  m["runtime.shed_tuples"] = static_cast<double>(totals.shed) / cases;
  m["runtime.backpressure_deferred"] =
      static_cast<double>(totals.deferred) / cases;
  m["runtime.queue_high_water"] = static_cast<double>(totals.queue_high_water);
  m["runtime.overload_consults"] =
      static_cast<double>(totals.consults) / cases;
  m["common.pool.tasks"] =
      counter("pool.tasks") /
      static_cast<double>(std::max<uint64_t>(1, totals.jobs));
  m["common.pool.queue_high_water"] = gauge("pool.queue_depth_high_water");
  m["telemetry.trace_dropped"] = static_cast<double>(snap.trace_events_dropped);
  m["telemetry.dropped_registrations"] =
      static_cast<double>(snap.dropped_registrations);
}

/// Set-up shared by both workloads, repeated kSetups times (the last
/// repetition's cases are kept). `extra` runs inside each repetition.
template <typename Extra>
Status RepeatedSetup(const RunConfig& config, Tracer* tracer,
                     std::vector<GraphCase>* cases, std::vector<double>* secs,
                     Extra&& extra) {
  for (size_t s = 0; s < kSetups; ++s) {
    const uint64_t request = tracer->NewRequest();
    Span root(tracer, "setup", request);
    geom::SimplexSampleCache::Global().Clear();
    ROD_RETURN_IF_ERROR(
        BuildGraphCases(config.seed, tracer, request, root.id(), cases));
    ROD_RETURN_IF_ERROR(extra(request, root.id()));
    secs->push_back(root.End());
  }
  return Status::OK();
}

void AddCommonMetrics(const std::vector<GraphCase>& cases,
                      const std::vector<double>& setup_s,
                      const std::vector<double>& job_ms, double offered,
                      double job_seconds, Outcome* out) {
  std::vector<double> ratios;
  for (const GraphCase& c : cases) ratios.push_back(c.ratio);
  auto& m = out->metrics;
  m["setup_s"] = Median(setup_s);
  m["rss_mib"] = PeakRssMib();
  m["plan_ratio"] = Mean(ratios);
  m["latency_ms.p50"] = Quantile(job_ms, 0.5);
  m["latency_ms.p90"] = Quantile(job_ms, 0.9);
  if (job_seconds > 0.0) {
    m["runtime.sim_tuples_per_s"] = offered / job_seconds;
  }
}

}  // namespace

Outcome RunSimSteady(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  Tracer untraced(false);
  std::vector<GraphCase> cases;
  std::vector<double> setup_s;
  const Status setup = RepeatedSetup(
      config, &tracer, &cases, &setup_s,
      [](uint64_t, uint64_t) { return Status::OK(); });
  if (!setup.ok()) {
    out.Fail("setup: " + setup.ToString());
    out.attempted = out.failed = 1;
    return out;
  }

  telemetry::Telemetry tel(TracedTelemetryOptions());
  auto make_cases = [&](uint64_t job, bool attach) {
    std::vector<sim::SimulationCase> sim_cases;
    for (size_t i = 0; i < cases.size(); ++i) {
      sim::SimulationCase c;
      c.graph = &cases[i].graph;
      c.placement = &*cases[i].plan;
      c.system = &System();
      c.inputs = &cases[i].steady_traces;
      c.options = BaseOptions(cases[i], ItemSeed(job, i));
      if (attach) c.options.telemetry = &tel;
      sim_cases.push_back(c);
    }
    return sim_cases;
  };

  // One untimed job first grows the pool threads' engine workspaces.
  (void)sim::SimulateSweep(make_cases(ItemSeed(config.seed, 0x3a7b), false),
                           Sweep());

  // Jobs until the measured time is up; in a traced run every other job
  // runs with the program's telemetry attached.
  std::vector<double> job_ms, traced_ms, untraced_ms;
  double offered = 0.0;
  double job_seconds = 0.0;
  RuntimeTotals totals;
  const double start = NowSeconds();
  for (uint64_t j = 0; NowSeconds() - start < config.seconds &&
                       NowSeconds() - start < kMaxLoopSeconds;
       ++j) {
    const bool traced_job = config.trace && j % 2 == 1;
    Tracer* t = config.trace && !traced_job ? &untraced : &tracer;
    const uint64_t request = t->NewRequest();
    const auto sim_cases = make_cases(ItemSeed(config.seed ^ 0x51edULL, j),
                                      traced_job);
    sim::SweepOptions sweep = Sweep();
    if (traced_job) {
      sweep.telemetry = &tel;
      ThreadPool::Shared().set_telemetry(&tel);
    }
    Span span(t, "runtime.simulate", request);
    auto results = sim::SimulateSweep(sim_cases, sweep);
    const double seconds = span.End();
    ThreadPool::Shared().set_telemetry(nullptr);

    out.attempted += results.size();
    double job_offered = 0.0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() || results[i]->saturated) {
        ++out.failed;
        out.Fail("job " + std::to_string(j) + " case " + std::to_string(i) +
                 (results[i].ok() ? ": saturated"
                                  : ": " + results[i].status().ToString()));
        continue;
      }
      job_offered += static_cast<double>(results[i]->input_tuples +
                                         results[i]->shed_tuples);
      if (traced_job) totals.Add(*results[i]);
    }
    if (traced_job) ++totals.jobs;
    job_ms.push_back(seconds * 1e3);
    (traced_job ? traced_ms : untraced_ms).push_back(seconds * 1e3);
    offered += job_offered;
    job_seconds += seconds;
  }

  AddCommonMetrics(cases, setup_s, job_ms, offered, job_seconds, &out);
  if (!config.trace) return out;

  AddRuntimeLayerMetrics(totals, tel, &out);
  out.metrics["telemetry.overhead_pct"] =
      OverheadPct(Median(traced_ms), Median(untraced_ms));

  // Thread-count invariance and the single-thread baseline: one job at
  // one thread and at the pool's full width must agree bit for bit.
  const auto check_cases = make_cases(ItemSeed(config.seed, 0xc4ec), false);
  sim::SweepOptions one;
  one.num_threads = 1;
  double t0 = NowSeconds();
  auto sequential = sim::SimulateSweep(check_cases, one);
  const double one_seconds = NowSeconds() - t0;
  t0 = NowSeconds();
  auto parallel = sim::SimulateSweep(check_cases, Sweep());
  const double full_seconds = NowSeconds() - t0;
  out.metrics["runtime.sweep.speedup_vs_1t"] = one_seconds / full_seconds;
  out.attempted += check_cases.size();
  for (size_t i = 0; i < check_cases.size(); ++i) {
    if (!sequential[i].ok() || !parallel[i].ok() ||
        !SameResult(*sequential[i], *parallel[i])) {
      ++out.failed;
      out.Fail("case " + std::to_string(i) +
               " differs between 1 thread and " +
               std::to_string(Sweep().num_threads) + " threads");
    }
  }
  if (!tracer.WriteChromeTrace(TracePath(config), &tel)) {
    out.Fail("could not write " + TracePath(config));
  }
  return out;
}

namespace {

/// Forwards to sim::Supervisor and times every call into it: the
/// runtime.supervisor span and runtime.supervisor_ms.
class TimedAgent final : public sim::ControlAgent {
 public:
  TimedAgent(sim::ControlAgent* inner, Tracer* tracer, uint64_t request,
             uint64_t parent)
      : inner_(inner), tracer_(tracer), request_(request), parent_(parent) {}

  double detection_delay() const override { return inner_->detection_delay(); }

  std::optional<sim::PlanUpdate> OnFailureDetected(
      double now, uint32_t failed_node, const std::vector<bool>& node_up,
      const sim::Deployment& deployment) override {
    Span span(tracer_, "runtime.supervisor", request_, parent_);
    auto update = inner_->OnFailureDetected(now, failed_node, node_up,
                                            deployment);
    seconds_ += span.End();
    return update;
  }

  double RepairRetryDelay() override {
    Span span(tracer_, "runtime.supervisor", request_, parent_);
    const double delay = inner_->RepairRetryDelay();
    seconds_ += span.End();
    return delay;
  }

  std::optional<sim::OverloadDecision> OnOverload(
      const sim::OverloadSignal& signal,
      const sim::Deployment& deployment) override {
    Span span(tracer_, "runtime.supervisor", request_, parent_);
    auto decision = inner_->OnOverload(signal, deployment);
    seconds_ += span.End();
    return decision;
  }

  void OnOverloadCleared(double now) override {
    Span span(tracer_, "runtime.supervisor", request_, parent_);
    inner_->OnOverloadCleared(now);
    seconds_ += span.End();
  }

  double seconds() const { return seconds_; }

 private:
  sim::ControlAgent* inner_;
  Tracer* tracer_;
  uint64_t request_;
  uint64_t parent_;
  double seconds_ = 0.0;
};

struct BurstInputs {
  std::vector<std::vector<std::string>> paths;          ///< [case][stream]
  std::vector<std::vector<std::vector<double>>> arrivals;  ///< Kept traced.
  uint64_t records = 0;
  double write_seconds = 0.0;
};

uint64_t CaseSeed(uint64_t seed, size_t i) {
  return ItemSeed(seed ^ 0xb0257ULL, i);
}

/// b-model traces, arrival materialisation and the store write of every
/// case.
Status WriteBurstInputs(const RunConfig& config,
                        const std::vector<GraphCase>& cases, Tracer* tracer,
                        uint64_t request, uint64_t parent, bool keep,
                        BurstInputs* in) {
  *in = BurstInputs{};
  for (size_t i = 0; i < cases.size(); ++i) {
    const GraphCase& c = cases[i];
    trace::BModelOptions bm;
    bm.bias = kBurstBias;
    bm.mean_rate = c.rate;
    bm.window_sec = kBurstWindow;
    bm.levels = static_cast<size_t>(
        std::ceil(std::log2(c.duration / kBurstWindow)));
    std::vector<trace::RateTrace> traces;
    Rng rng(ItemSeed(config.seed ^ 0xb1a5ULL, i));
    // Rescale each series so its mean over the case is the plan's rate.
    const size_t windows =
        static_cast<size_t>(std::ceil(c.duration / kBurstWindow));
    for (size_t k = 0; k < kStreams; ++k) {
      trace::RateTrace t = trace::GenerateBModel(bm, rng);
      double sum = 0.0;
      for (size_t w = 0; w < windows; ++w) sum += t.rates[w];
      const double scale = c.rate * static_cast<double>(windows) / sum;
      for (double& r : t.rates) r *= scale;
      traces.push_back(std::move(t));
    }
    auto arrivals = sim::MaterializeArrivals(traces, /*poisson=*/true,
                                             CaseSeed(config.seed, i),
                                             c.duration);
    Span span(tracer, "trace.write", request, parent);
    std::vector<std::string> paths;
    for (size_t k = 0; k < kStreams; ++k) {
      const std::string path = config.work_dir + "/burst-c" +
                               std::to_string(i) + "-s" + std::to_string(k) +
                               ".rodtrc";
      trace::store::WriterOptions options;
      options.records_per_segment = kStoreSegmentRecords;
      ROD_RETURN_IF_ERROR(trace::store::WriteTimestamps(
          arrivals[k], static_cast<uint32_t>(k), path, options));
      in->records += arrivals[k].size();
      paths.push_back(path);
    }
    in->write_seconds += span.End();
    in->paths.push_back(std::move(paths));
    if (keep) in->arrivals.push_back(std::move(arrivals));
  }
  return Status::OK();
}

/// One failover case's per-run state: its replay feed, supervisor, and
/// fault script. Heap-held so the SimulationCase pointers stay valid.
struct FailoverCase {
  std::optional<trace::store::ReplaySet> replay;
  std::unique_ptr<sim::Supervisor> supervisor;
  std::unique_ptr<TimedAgent> agent;
  sim::FailureSchedule failures;
};

/// Bounded queues and the overload detector, with the detector's and the
/// incident report's time scales shrunk to suit sub-second cases.
sim::SimulationOptions FailoverOptions(const GraphCase& c, uint64_t seed) {
  sim::SimulationOptions options = BaseOptions(c, seed);
  options.queue_bound.capacity = kQueueCapacity;
  options.queue_bound.policy = sim::OverflowPolicy::kQosWeighted;
  options.overload.enabled = true;
  options.overload.check_interval = 1.0 / 64.0;
  options.overload.sustain = 1.0 / 16.0;
  options.overload.cooldown = 1.0 / 8.0;
  // A power of two for the same reason as kBurstWindow: the engine's
  // busy-time split (runtime/metrics.h) walks windows the same way.
  options.utilization_window = 1.0 / 16.0;
  return options;
}

/// Removes a run's store files however the run ends.
class StoreFiles {
 public:
  explicit StoreFiles(const BurstInputs* inputs) : inputs_(inputs) {}
  ~StoreFiles() {
    for (const auto& paths : inputs_->paths) {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  }
  StoreFiles(const StoreFiles&) = delete;
  StoreFiles& operator=(const StoreFiles&) = delete;

 private:
  const BurstInputs* inputs_;
};

}  // namespace

Outcome RunSimBurstFailover(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  Tracer untraced(false);
  std::vector<GraphCase> cases;
  std::vector<double> setup_s;
  BurstInputs inputs;
  const StoreFiles cleanup(&inputs);
  const Status setup = RepeatedSetup(
      config, &tracer, &cases, &setup_s,
      [&](uint64_t request, uint64_t parent) {
        return WriteBurstInputs(config, cases, &tracer, request, parent,
                                config.trace, &inputs);
      });
  if (!setup.ok()) {
    out.Fail("setup: " + setup.ToString());
    out.attempted = out.failed = 1;
    return out;
  }

  telemetry::Telemetry tel(TracedTelemetryOptions());
  trace::store::ReaderOptions reader;
  reader.resident_segments = kResidentSegments;

  // One job: open every case's stores and replay them through the
  // engine. `vectors` replays the same arrivals from memory instead.
  auto run_job = [&](Tracer* t, uint64_t request, uint64_t parent,
                     bool attach, bool vectors,
                     std::vector<Result<sim::SimulationResult>>* results,
                     double* supervisor_seconds) -> Status {
    std::vector<std::unique_ptr<FailoverCase>> state;
    std::vector<sim::SimulationCase> sim_cases;
    {
      Span open(t, "trace.open", request, parent);
      for (size_t i = 0; i < cases.size(); ++i) {
        auto fc = std::make_unique<FailoverCase>();
        if (vectors) {
          fc->replay.emplace(
              trace::store::ReplaySet::FromVectors(inputs.arrivals[i]));
        } else {
          auto set = trace::store::ReplaySet::OpenStores(inputs.paths[i],
                                                         reader);
          ROD_RETURN_IF_ERROR(set.status());
          fc->replay.emplace(std::move(*set));
        }
        sim::Supervisor::Options sup;
        sup.detection_delay = kDetectionDelay;
        if (attach) sup.telemetry = &tel;
        fc->supervisor =
            std::make_unique<sim::Supervisor>(*cases[i].model, sup);
        fc->agent =
            std::make_unique<TimedAgent>(fc->supervisor.get(), t, request,
                                         parent);
        fc->failures.CrashAt(kCrashAt * cases[i].duration,
                             static_cast<uint32_t>(i % kNodes));
        sim::SimulationCase c;
        c.graph = &cases[i].graph;
        c.placement = &*cases[i].plan;
        c.system = &System();
        c.inputs = &cases[i].steady_traces;
        c.options = FailoverOptions(cases[i], CaseSeed(config.seed, i));
        c.options.replay = &*fc->replay;
        c.options.failures = &fc->failures;
        c.options.recovery = fc->agent.get();
        if (attach) c.options.telemetry = &tel;
        sim_cases.push_back(c);
        state.push_back(std::move(fc));
      }
    }
    sim::SweepOptions sweep = Sweep();
    if (attach) {
      sweep.telemetry = &tel;
      ThreadPool::Shared().set_telemetry(&tel);
    }
    {
      Span span(t, "runtime.simulate", request, parent);
      *results = sim::SimulateSweep(sim_cases, sweep);
    }
    ThreadPool::Shared().set_telemetry(nullptr);
    *supervisor_seconds = 0.0;
    for (size_t i = 0; i < state.size(); ++i) {
      *supervisor_seconds += state[i]->agent->seconds();
      if ((*results)[i].ok()) {
        const Status replay = state[i]->replay->status();
        if (!replay.ok()) (*results)[i] = replay;
      }
    }
    return Status::OK();
  };

  // One untimed job first grows the pool threads' engine workspaces.
  {
    std::vector<Result<sim::SimulationResult>> warm;
    double unused = 0.0;
    (void)run_job(&untraced, 0, 0, false, false, &warm, &unused);
  }

  std::vector<double> job_ms, traced_ms, untraced_ms;
  double job_seconds = 0.0;
  double offered = 0.0;
  double supervisor_seconds = 0.0;
  RuntimeTotals totals;
  const double start = NowSeconds();
  for (uint64_t j = 0; NowSeconds() - start < config.seconds &&
                       NowSeconds() - start < kMaxLoopSeconds;
       ++j) {
    const bool traced_job = config.trace && j % 2 == 1;
    Tracer* t = config.trace && !traced_job ? &untraced : &tracer;
    const uint64_t request = t->NewRequest();
    std::vector<Result<sim::SimulationResult>> results;
    double sup_seconds = 0.0;
    Span job(t, "job", request);
    const Status ran =
        run_job(t, request, job.id(), traced_job, false, &results,
                &sup_seconds);
    const double seconds = job.End();
    if (!ran.ok()) {
      out.attempted += cases.size();
      out.failed += cases.size();
      out.Fail("job " + std::to_string(j) + ": " + ran.ToString());
      continue;
    }
    out.attempted += results.size();
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      // The incident recovers when the supervisor's repaired plan goes
      // live and re-homes the crashed node's operators.
      const bool recovered = r.ok() && r->incident.has_value() &&
                             r->incident->plan_applied_time >= 0.0 &&
                             r->incident->operators_moved > 0;
      if (!recovered) {
        ++out.failed;
        out.Fail("job " + std::to_string(j) + " case " + std::to_string(i) +
                 (r.ok() ? ": incident was not repaired"
                         : ": " + r.status().ToString()));
        continue;
      }
      if (traced_job) totals.Add(*r);
    }
    if (traced_job) {
      supervisor_seconds += sup_seconds;
      ++totals.jobs;
    }
    job_ms.push_back(seconds * 1e3);
    (traced_job ? traced_ms : untraced_ms).push_back(seconds * 1e3);
    offered += static_cast<double>(inputs.records);
    job_seconds += seconds;
  }

  AddCommonMetrics(cases, setup_s, job_ms, offered, job_seconds, &out);
  if (!config.trace) return out;

  AddRuntimeLayerMetrics(totals, tel, &out);
  auto& m = out.metrics;
  m["runtime.supervisor_ms"] =
      supervisor_seconds * 1e3 /
      static_cast<double>(std::max<uint64_t>(1, totals.cases));
  m["telemetry.overhead_pct"] =
      OverheadPct(Median(traced_ms), Median(untraced_ms));
  m["trace.write_records_per_s"] =
      static_cast<double>(inputs.records) / inputs.write_seconds;

  // Zero-copy scan of every store: read rate and buffer-manager traffic.
  {
    const uint64_t request = tracer.NewRequest();
    Span span(&tracer, "trace.scan", request);
    uint64_t records = 0;
    uint64_t loads = 0;
    uint64_t evictions = 0;
    double sum = 0.0;
    for (const auto& paths : inputs.paths) {
      for (const std::string& path : paths) {
        auto store = trace::store::SegmentReader::Open(path, reader);
        if (!store.ok()) {
          out.Fail("scan " + path + ": " + store.status().ToString());
          continue;
        }
        trace::store::BatchCursor cursor(&*store);
        for (;;) {
          auto batch = cursor.NextSpan();
          if (!batch.ok() || batch->empty()) break;
          for (const auto& record : *batch) sum += record.time;
          records += batch->size();
          cursor.Advance(batch->size());
        }
        loads += store->stats().segment_loads;
        evictions += store->stats().evictions;
      }
    }
    const double seconds = span.End();
    if (records != inputs.records || !(sum > 0.0)) {
      out.Fail("store scan returned " + std::to_string(records) + " of " +
               std::to_string(inputs.records) + " records");
    }
    m["trace.scan_records_per_s"] = static_cast<double>(records) / seconds;
    m["trace.segment_loads"] = static_cast<double>(loads);
    m["trace.evictions"] = static_cast<double>(evictions);
  }

  // Store replay must match in-memory replay of the same arrivals.
  {
    const uint64_t request = tracer.NewRequest();
    std::vector<Result<sim::SimulationResult>> from_store, from_memory;
    double unused = 0.0;
    const Status a =
        run_job(&untraced, request, 0, false, false, &from_store, &unused);
    const Status b =
        run_job(&untraced, request, 0, false, true, &from_memory, &unused);
    out.attempted += cases.size();
    for (size_t i = 0; i < cases.size(); ++i) {
      if (!a.ok() || !b.ok() || !from_store[i].ok() || !from_memory[i].ok() ||
          !SameResult(*from_store[i], *from_memory[i])) {
        ++out.failed;
        out.Fail("case " + std::to_string(i) +
                 ": store replay differs from in-memory replay");
      }
    }
  }
  if (!tracer.WriteChromeTrace(TracePath(config), &tel)) {
    out.Fail("could not write " + TracePath(config));
  }
  return out;
}

}  // namespace rodbench
