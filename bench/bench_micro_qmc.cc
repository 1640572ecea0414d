// Micro-benchmark M2: Quasi-Monte-Carlo volume estimation — Halton vs
// pseudo-random throughput, the cost of generating a sample set, and the
// cost profile across dimensions and node counts ("even computing the
// feasible set size of a single plan ... is expensive", §2.4 — this is
// why ROD avoids volume computations entirely).

#include <benchmark/benchmark.h>

#include "bench_micro_main.h"
#include "geometry/feasible_set.h"
#include "geometry/sample_cache.h"

namespace {

using rod::Matrix;

Matrix RandomWeights(size_t nodes, size_t dims, uint64_t seed) {
  rod::Rng rng(seed);
  Matrix w(nodes, dims);
  for (size_t i = 0; i < nodes; ++i) {
    for (size_t k = 0; k < dims; ++k) w(i, k) = rng.Uniform(0.0, 2.0);
  }
  return w;
}

void BM_RatioToIdealHalton(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  const size_t samples = static_cast<size_t>(state.range(1));
  const rod::geom::FeasibleSet fs(RandomWeights(10, dims, 7));
  rod::geom::VolumeOptions options;
  options.num_samples = samples;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.RatioToIdeal(options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(samples));
}

void BM_RatioToIdealPseudo(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  const size_t samples = static_cast<size_t>(state.range(1));
  const rod::geom::FeasibleSet fs(RandomWeights(10, dims, 7));
  rod::geom::VolumeOptions options;
  options.num_samples = samples;
  options.use_pseudo_random = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.RatioToIdeal(options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(samples));
}

/// Cold generation of one cached sample set (both layouts), Halton or
/// pseudo-random: what a sample-cache miss costs RatioToIdeal.
void BM_GenerateSimplexSampleSet(benchmark::State& state) {
  rod::geom::SimplexSampleKey key;
  key.dims = static_cast<size_t>(state.range(0));
  key.num_samples = static_cast<size_t>(state.range(1));
  key.pseudo_random = state.range(2) != 0;
  key.seed = key.pseudo_random ? 0x5eedf00dULL : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rod::geom::GenerateSimplexSampleSet(key));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(key.num_samples));
}

}  // namespace

BENCHMARK(BM_RatioToIdealHalton)
    ->Args({3, 4096})
    ->Args({5, 4096})
    ->Args({5, 32768})
    ->Args({10, 32768});
BENCHMARK(BM_RatioToIdealPseudo)->Args({5, 32768})->Args({16, 32768});
BENCHMARK(BM_GenerateSimplexSampleSet)
    ->Args({5, 32768, 0})
    ->Args({10, 32768, 0})
    ->Args({16, 32768, 1});

ROD_MICRO_BENCH_MAIN()
