// Micro-benchmark M1: ROD placement runtime scaling in the number of
// operators m, nodes n, and input streams d. Each unit is scored on every
// node from per-node row summaries, at O(|K|) for the |K| axes it loads,
// plus O(d) for the few nodes whose plane distance is computed exactly,
// and the operators are sorted in O(m log m) — static placement must be
// cheap enough to rerun on every provisioning change. Random-tree
// operators load exactly one stream; BM_RodPlaceMatrixDense loads every
// axis of every unit, the other side of that sparsity.

#include <benchmark/benchmark.h>

#include "bench_micro_main.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace {

using rod::place::SystemSpec;

void BM_RodPlace(benchmark::State& state) {
  const size_t total_ops = static_cast<size_t>(state.range(0));
  const size_t nodes = static_cast<size_t>(state.range(1));
  const size_t dims = static_cast<size_t>(state.range(2));

  rod::query::GraphGenOptions gen;
  gen.num_input_streams = dims;
  gen.ops_per_tree = std::max<size_t>(1, total_ops / dims);
  rod::Rng rng(42);
  const rod::query::QueryGraph g = rod::query::GenerateRandomTrees(gen, rng);
  auto model = rod::query::BuildLoadModel(g);
  if (!model.ok()) {
    state.SkipWithError(model.status().ToString().c_str());
    return;
  }
  const SystemSpec system = SystemSpec::Homogeneous(nodes);

  for (auto _ : state) {
    auto plan = rod::place::RodPlace(*model, system);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.num_operators()));
  state.counters["ops"] = static_cast<double>(g.num_operators());
}

void BM_RodPlaceLowerBound(benchmark::State& state) {
  const size_t total_ops = static_cast<size_t>(state.range(0));
  const size_t nodes = static_cast<size_t>(state.range(1));
  const size_t dims = static_cast<size_t>(state.range(2));
  rod::query::GraphGenOptions gen;
  gen.num_input_streams = dims;
  gen.ops_per_tree = std::max<size_t>(1, total_ops / dims);
  rod::Rng rng(43);
  const rod::query::QueryGraph g = rod::query::GenerateRandomTrees(gen, rng);
  auto model = rod::query::BuildLoadModel(g);
  const SystemSpec system = SystemSpec::Homogeneous(nodes);
  rod::place::RodOptions options;
  options.lower_bound.assign(dims, 0.01);

  for (auto _ : state) {
    auto plan = rod::place::RodPlace(*model, system, options);
    benchmark::DoNotOptimize(plan);
  }
}

void BM_RodPlaceMatrixDense(benchmark::State& state) {
  const size_t units = static_cast<size_t>(state.range(0));
  const size_t nodes = static_cast<size_t>(state.range(1));
  const size_t dims = static_cast<size_t>(state.range(2));
  rod::Rng rng(45);
  rod::Matrix coeffs(units, dims);
  rod::Vector totals(dims, 0.0);
  for (size_t j = 0; j < units; ++j) {
    for (size_t k = 0; k < dims; ++k) {
      coeffs(j, k) = rng.Uniform(0.1e-3, 10e-3);
      totals[k] += coeffs(j, k);
    }
  }
  const SystemSpec system = SystemSpec::Homogeneous(nodes);

  for (auto _ : state) {
    auto plan = rod::place::RodPlaceMatrix(coeffs, totals, system);
    benchmark::DoNotOptimize(plan);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(units));
}

void BM_BuildLoadModel(benchmark::State& state) {
  rod::query::GraphGenOptions gen;
  gen.num_input_streams = 5;
  gen.ops_per_tree = static_cast<size_t>(state.range(0)) / 5;
  rod::Rng rng(44);
  const rod::query::QueryGraph g = rod::query::GenerateRandomTrees(gen, rng);
  for (auto _ : state) {
    auto model = rod::query::BuildLoadModel(g);
    benchmark::DoNotOptimize(model);
  }
}

}  // namespace

// Scale m with n = 8, d = 5.
BENCHMARK(BM_RodPlace)
    ->Args({100, 8, 5})
    ->Args({400, 8, 5})
    ->Args({1600, 8, 5})
    ->Args({6400, 8, 5});
// Scale n with m = 400, d = 5.
BENCHMARK(BM_RodPlace)->Args({400, 2, 5})->Args({400, 16, 5})->Args({400, 64, 5});
// Scale d with m = 400, n = 8.
BENCHMARK(BM_RodPlace)->Args({400, 8, 2})->Args({400, 8, 8})->Args({400, 8, 16});
// A coordinator-sized shape (1,000 operators, 64 nodes) and the
// place_scale shape (10,000 operators, 256 nodes), both on 10 streams.
BENCHMARK(BM_RodPlace)->Args({1000, 64, 10})->Args({10000, 256, 10});
// Dense rows at the same shapes: every axis changes with every unit.
BENCHMARK(BM_RodPlaceMatrixDense)->Args({400, 8, 5})->Args({10000, 256, 10});
// The §6.1 lower bound (0.01 per stream), small and at place_scale size.
BENCHMARK(BM_RodPlaceLowerBound)->Args({200, 8, 5})->Args({10000, 256, 10});
BENCHMARK(BM_BuildLoadModel)->Arg(100)->Arg(1000)->Arg(10000);

ROD_MICRO_BENCH_MAIN()
