// Experiment E2 — paper Table 2 and Figures 5-6: the worked Example 2.
// Builds the Figure 4 query graph (costs 4, 6, 9, 4; selectivities 1, -,
// 0.5, -), evaluates the three allocation plans of Table 2 plus ROD's own
// plan on two equal nodes, and prints each plan's node load coefficient
// matrix, weight matrix, exact feasible-set geometry, and ratio to the
// ideal feasible set.

#include <iostream>

#include "bench_util.h"
#include "geometry/ascii_plot.h"
#include "geometry/hyperplane.h"
#include "geometry/polygon2d.h"

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

/// "(a,b)", appended piece by piece: gcc 12 at -O3 warns -Wrestrict on the
/// inlined temporaries of "(" + a + ...
std::string Pair(const std::string& a, const std::string& b) {
  return std::string("(").append(a).append(",").append(b).append(")");
}

QueryGraph Figure4Graph() {
  QueryGraph g;
  const auto i1 = g.AddInputStream("I1");
  const auto i2 = g.AddInputStream("I2");
  auto o1 = g.AddOperator(
      {.name = "o1", .kind = OperatorKind::kMap, .cost = 4.0},
      {StreamRef::Input(i1)});
  auto o2 = g.AddOperator(
      {.name = "o2", .kind = OperatorKind::kMap, .cost = 6.0},
      {StreamRef::Op(*o1)});
  auto o3 = g.AddOperator({.name = "o3",
                           .kind = OperatorKind::kFilter,
                           .cost = 9.0,
                           .selectivity = 0.5},
                          {StreamRef::Input(i2)});
  auto o4 = g.AddOperator(
      {.name = "o4", .kind = OperatorKind::kMap, .cost = 4.0},
      {StreamRef::Op(*o3)});
  (void)o2;
  (void)o4;
  return g;
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
  std::cout << "ROD reproduction -- E2 (Table 2, Figures 5-6): Example 2\n";
  const QueryGraph g = Figure4Graph();
  auto model = rod::query::BuildLoadModel(g);
  if (!model.ok()) {
    std::cerr << "model: " << model.status().ToString() << "\n";
    return 1;
  }
  const SystemSpec system = SystemSpec::Homogeneous(2);
  const PlacementEvaluator eval(*model, system);

  rod::bench::Banner("Operator load coefficient matrix L^o (paper Table 2)");
  std::cout << model->op_coeffs().ToString() << "\n"
            << "total coefficients l = (" << Fmt(model->total_coeffs()[0], 1)
            << ", " << Fmt(model->total_coeffs()[1], 1) << ")\n";

  auto ideal = eval.IdealVolume();
  rod::bench::Banner("Ideal feasible set (Theorem 1)");
  std::cout << "V(F*) = C_T^d / (d! l_1 l_2) = " << Fmt(*ideal, 6)
            << "  (C_T = 2, d = 2)\n";

  struct PlanCase {
    const char* name;
    Placement plan;
  };
  auto rod_plan = rod::place::RodPlace(*model, system);
  const std::vector<PlanCase> plans = {
      {"(a) {o1,o2}|{o3,o4}", Placement(2, {0, 0, 1, 1})},
      {"(b) {o1,o3}|{o2,o4}", Placement(2, {0, 1, 0, 1})},
      {"(c) {o1,o4}|{o2,o3}", Placement(2, {0, 1, 1, 0})},
      {"ROD", *rod_plan},
  };

  rod::bench::Banner("Plans of Table 2 + ROD (Figures 5-6 feasible sets)");
  Table table({"plan", "L^n row1", "L^n row2", "w row1", "w row2",
               "min plane dist", "exact V(F)/V(F*)"});
  for (const PlanCase& pc : plans) {
    const Matrix ln = pc.plan.NodeCoeffs(model->op_coeffs());
    auto w = eval.WeightMatrix(pc.plan);
    auto exact = rod::geom::ExactRatioToIdeal2D(*w);
    table.AddRow(
        {pc.name,
         Pair(Fmt(ln(0, 0), 1), Fmt(ln(0, 1), 1)),
         Pair(Fmt(ln(1, 0), 1), Fmt(ln(1, 1), 1)),
         Pair(Fmt((*w)(0, 0), 2), Fmt((*w)(0, 1), 2)),
         Pair(Fmt((*w)(1, 0), 2), Fmt((*w)(1, 1), 2)),
         Fmt(*eval.MinPlaneDistance(pc.plan)), Fmt(*exact)});
  }
  table.Print();

  rod::bench::Banner("Feasible polygon vertices (normalized space)");
  for (const PlanCase& pc : plans) {
    auto w = eval.WeightMatrix(pc.plan);
    auto poly = rod::geom::FeasiblePolygon(*w);
    std::cout << "  " << pc.name << ": ";
    for (const auto& p : *poly) {
      std::cout << "(" << Fmt(p.x, 3) << "," << Fmt(p.y, 3) << ") ";
    }
    std::cout << "\n";
  }

  rod::bench::Banner("Figure 5 rendered (plan (a) vs ROD)");
  for (const char* name : {"(a) {o1,o2}|{o3,o4}", "ROD"}) {
    for (const PlanCase& pc : plans) {
      if (std::string(pc.name) != name) continue;
      auto w = eval.WeightMatrix(pc.plan);
      auto plot = rod::geom::RenderFeasibleSet2D(*w);
      std::cout << "\n" << pc.name << ":\n" << *plot;
    }
  }
  std::cout << "\nExpected shape (Figure 5): the three fixed plans differ\n"
               "widely; none reaches the ideal (Figure 6); ROD attains the\n"
               "maximum-ratio split, separating both streams across nodes.\n";
  return 0;
}
