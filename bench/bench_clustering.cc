// Experiment E10 (reconstructed; see DESIGN.md) — operator clustering
// under per-tuple communication cost (§6.3). Chains with increasingly
// expensive arcs are placed by (i) plain ROD (comm-oblivious), (ii) the
// §6.3 clustered-ROD sweep, and (iii) the Connected baseline (comm-minimal
// but resilience-poor). Reported: inter-node arcs, comm-aware minimum
// plane distance (the selection metric), and tuple-level runtime results
// at a fixed operating point.

#include <algorithm>
#include <deque>
#include <iostream>

#include "bench_util.h"
#include "geometry/hyperplane.h"
#include "placement/clustering.h"
#include "runtime/engine.h"
#include "runtime/sweep.h"

namespace {

using rod::Matrix;
using rod::Vector;
using rod::bench::Fmt;
using rod::bench::Table;
using rod::place::Placement;
using rod::place::PlacementEvaluator;
using rod::place::SystemSpec;
using rod::query::OperatorKind;
using rod::query::QueryGraph;
using rod::query::StreamRef;

/// Three 8-operator chains, one per stream, with every operator-to-
/// operator arc carrying `comm_cost` CPU-seconds per tuple.
QueryGraph ChainWorkload(double comm_cost, rod::Rng& rng) {
  QueryGraph g;
  for (size_t k = 0; k < 3; ++k) {
    const auto in =
        g.AddInputStream(std::string("I").append(std::to_string(k)));
    StreamRef prev = StreamRef::Input(in);
    for (int j = 0; j < 8; ++j) {
      const std::string name = std::string("c")
                                   .append(std::to_string(k))
                                   .append("_")
                                   .append(std::to_string(j));
      prev = StreamRef::Op(*g.AddOperator(
          {.name = name,
           .kind = OperatorKind::kDelay,
           .cost = rng.Uniform(0.5e-3, 2e-3),
           .selectivity = rng.Uniform(0.7, 1.0)},
          {prev}, {j == 0 ? 0.0 : comm_cost}));
    }
  }
  return g;
}

double CommAwarePlaneDistance(const Placement& plan,
                              const rod::query::LoadModel& model,
                              const QueryGraph& g, const SystemSpec& system) {
  const Matrix coeffs = rod::place::NodeCoeffsWithComm(plan, model, g);
  auto w = rod::geom::ComputeWeightMatrix(coeffs, model.total_coeffs(),
                                          system.capacities);
  return rod::geom::MinPlaneDistance(*w);
}

}  // namespace

int main(int argc, char** argv) {
  const rod::bench::BenchFlags bench_flags =
      rod::bench::ParseBenchFlags(argc, argv);
  if (!bench_flags.rest.empty()) {
    std::cerr << "usage: " << argv[0] << " [--json=PATH] [--trace=PATH]\n";
    return 2;
  }
  rod::bench::TelemetrySession telemetry_session(bench_flags);
  std::cout << "ROD reproduction -- E10 (§6.3): operator clustering vs "
               "communication cost\n"
            << "3 chains x 8 operators, 3 nodes; comm cost gamma x 1ms per "
               "crossing tuple\n";

  const SystemSpec system = SystemSpec::Homogeneous(3);
  const std::vector<double> kGammas = {0.0, 0.5, 1.0, 2.0};

  // Build every gamma's workload and the three candidate plans up front,
  // then run all (gamma x plan) tuple-level simulations as one parallel
  // deterministic sweep.
  struct GammaSetup {
    QueryGraph graph;
    rod::query::LoadModel model;
    rod::Result<Placement> rod_plain{rod::Status::Internal("unset")};
    rod::Result<rod::place::ClusterSweepResult> sweep{
        rod::Status::Internal("unset")};
    rod::Result<Placement> connected{rod::Status::Internal("unset")};
    std::vector<rod::trace::RateTrace> traces;
  };
  std::deque<GammaSetup> setups;
  std::vector<rod::sim::SimulationCase> cases;
  rod::sim::SimulationOptions sopts;
  sopts.duration = 60.0;
  sopts.telemetry = telemetry_session.telemetry();
  for (double gamma : kGammas) {
    rod::Rng graph_rng(0xea000);
    GammaSetup& s = setups.emplace_back();
    s.graph = ChainWorkload(gamma * 1e-3, graph_rng);
    auto model = rod::query::BuildLoadModel(s.graph);
    if (!model.ok()) {
      std::cerr << model.status().ToString() << "\n";
      return 1;
    }
    s.model = std::move(*model);
    const PlacementEvaluator eval(s.model, system);

    s.rod_plain = rod::place::RodPlace(s.model, system);
    s.sweep = rod::place::ClusteredRodPlace(s.model, s.graph, system);
    Vector flat(3, 1.0);
    s.connected =
        rod::place::ConnectedLoadBalancePlace(s.model, s.graph, system, flat);
    if (!s.rod_plain.ok() || !s.sweep.ok() || !s.connected.ok()) {
      std::cerr << "placement failed\n";
      return 1;
    }

    // Operating point: 70% of plain ROD's comm-free uniform boundary
    // (the analytic boundary scale along the all-ones direction).
    Vector unit(3, 1.0);
    auto boundary = eval.BoundaryScaleAlong(*s.rod_plain, unit);
    if (!boundary.ok()) {
      std::cerr << boundary.status().ToString() << "\n";
      return 1;
    }
    const double rate = 0.7 * *boundary;
    for (int k = 0; k < 3; ++k) {
      rod::trace::RateTrace t;
      t.window_sec = sopts.duration;
      t.rates = {rate};
      s.traces.push_back(std::move(t));
    }

    for (const Placement* plan : {&*s.rod_plain, &s.sweep->placement,
                                  &*s.connected}) {
      rod::sim::SimulationCase c;
      c.graph = &s.graph;
      c.placement = plan;
      c.system = &system;
      c.inputs = &s.traces;
      c.options = sopts;
      cases.push_back(c);
    }
  }
  rod::sim::SweepOptions sweep_options;
  sweep_options.telemetry = telemetry_session.telemetry();
  const auto results = rod::sim::SimulateSweep(cases, sweep_options);

  for (size_t gi = 0; gi < kGammas.size(); ++gi) {
    const GammaSetup& s = setups[gi];
    rod::bench::Banner("gamma = " + Fmt(kGammas[gi], 1) +
                       " (comm cost / ~avg op cost)");
    Table table({"plan", "clusters", "cross arcs", "comm-aware r",
                 "sim p95 ms", "sim max util", "saturated"});
    struct Row {
      std::string name;
      const Placement* plan;
      size_t clusters;
    };
    const std::vector<Row> rows = {
        {"ROD (unclustered)", &*s.rod_plain, s.graph.num_operators()},
        {"ROD + clustering sweep", &s.sweep->placement,
         s.sweep->clustering.num_clusters()},
        {"Connected", &*s.connected, 0},
    };
    for (size_t ri = 0; ri < rows.size(); ++ri) {
      const Row& row = rows[ri];
      const auto& run = results[gi * rows.size() + ri];
      if (!run.ok()) {
        std::cerr << row.name << ": " << run.status().ToString() << "\n";
        return 1;
      }
      table.AddRow({row.name,
                    row.clusters == 0 ? "-" : std::to_string(row.clusters),
                    std::to_string(row.plan->CountCrossNodeArcs(s.graph)),
                    Fmt(CommAwarePlaneDistance(*row.plan, s.model, s.graph,
                                               system)),
                    Fmt(run->p95_latency * 1e3, 2),
                    Fmt(run->max_node_utilization, 2),
                    run->saturated ? "YES" : "no"});
    }
    table.Print();
  }

  std::cout
      << "\nExpected shape: at gamma = 0 clustering collapses to plain ROD\n"
         "(identical rows) and Connected has the smallest plane distance.\n"
         "As gamma grows, unclustered ROD's crossings inflate its real\n"
         "load (utilization, latency); the sweep trades resilience for\n"
         "fewer crossings -- merging ever larger clusters (up to whole\n"
         "chains at extreme gamma, where it converges toward Connected's\n"
         "layout) -- and always holds the largest comm-aware r.\n";
  return 0;
}
