// Copyright (c) the ROD reproduction authors.
//
// Perf baseline of the feasible-set volume engine. Sweeps dims x nodes x
// samples x threads over ROD-placed weight matrices — once per membership
// kernel path (AVX2 and forced-scalar, when the build and CPU support
// both) — and measures kernel throughput (samples/sec), the speedup over
// 1 thread, bit-exact agreement between the parallel and sequential
// estimates and between the SIMD and scalar paths, and the sample-cache
// cold (generate) vs warm (reuse) cost. A second section times ROD's
// volume-greedy placement with delta candidate scoring on vs off and
// checks the placements are identical. Emits a machine-readable JSON
// baseline (fields documented in docs/BENCH_VOLUME.md) so later PRs can
// regress against it.
//
//   bench_volume_perf [--smoke] [--json=PATH] [--trace=PATH]
//                     [--threads=1,2,4,8] [--min-simd-speedup=X]
//
// --smoke shrinks the sweep for CI; --json defaults to BENCH_volume.json.
// Each row is timed 5 (smoke) or 7 (full) times, interleaved with the
// other rows of its block, and reports the median samples/sec with p10
// and p90. --min-simd-speedup=X exits non-zero unless the SIMD path's
// median beats the scalar path's by at least X at the largest
// single-threaded workload (skipped with a note when the SIMD path is
// unavailable, e.g. under ROD_DISABLE_SIMD). --trace attaches a telemetry
// sink to the shared thread pool and exports a Chrome trace of the pool's
// task spans (note: the per-task spans add measurable overhead, so
// trace-enabled throughput numbers are not comparable to the committed
// baseline).

#include <chrono>
#include <fstream>
#include <iostream>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "geometry/feasible_set.h"
#include "geometry/hyperplane.h"
#include "geometry/sample_cache.h"
#include "geometry/simd_kernel.h"
#include "placement/plan.h"
#include "placement/rod.h"
#include "telemetry/json_writer.h"

namespace {

using namespace rod;

struct Workload {
  size_t dims = 0;
  size_t nodes = 0;
};

struct Measurement {
  size_t dims, nodes, samples, threads, reps, measurements;
  std::string simd_path;  ///< kernel path this row ran on: "avx2"/"scalar"
  double ratio = 0.0;
  double seconds = 0.0;  ///< Median wall time of one measurement.
  bench::Spread samples_per_sec;  ///< Over the row's measurements.
  double speedup_vs_1 = 0.0;      ///< Medians.
  bool bitexact_vs_seq = false;
  /// SIMD and scalar paths agree on the estimate (trivially true on the
  /// scalar rows; checked against the scalar run on the SIMD rows).
  bool bitexact_vs_scalar = false;
  /// SIMD-path median throughput over the scalar path's at the same
  /// (dims, nodes, samples, threads); 0 on scalar rows.
  double simd_speedup_vs_scalar = 0.0;
  double cache_cold_ms = 0.0;
  double cache_warm_ms = 0.0;
};

/// Delta-vs-full scoring comparison of one volume-greedy placement.
struct DeltaRun {
  size_t dims, nodes, samples;
  double delta_seconds = 0.0;
  double full_seconds = 0.0;
  double speedup = 0.0;       ///< full_seconds / delta_seconds
  bool identical = false;     ///< assignments equal element-wise
};

/// The raw matrices every sweep builds its evaluator input from: random
/// operator load coefficients (each operator mostly loads one stream) on
/// a homogeneous cluster.
struct WorkloadMatrices {
  Matrix op_coeffs;
  Vector totals;
  place::SystemSpec system;
};

WorkloadMatrices MakeMatrices(const Workload& w, uint64_t seed) {
  const size_t m = 6 * w.nodes;
  Matrix op_coeffs(m, w.dims);
  Rng rng(seed);
  for (size_t j = 0; j < m; ++j) {
    op_coeffs(j, j % w.dims) = rng.Uniform(0.5, 2.0);
    for (size_t k = 0; k < w.dims; ++k) {
      if (k != j % w.dims && rng.Bernoulli(0.3)) {
        op_coeffs(j, k) = rng.Uniform(0.05, 0.4);
      }
    }
  }
  Vector totals(w.dims, 0.0);
  for (size_t j = 0; j < m; ++j) {
    for (size_t k = 0; k < w.dims; ++k) totals[k] += op_coeffs(j, k);
  }
  return {std::move(op_coeffs), std::move(totals),
          place::SystemSpec::Homogeneous(w.nodes)};
}

/// A representative evaluator input: the matrices above, ROD-placed —
/// the exact shape every bench sweep feeds the estimator.
geom::FeasibleSet MakeWorkload(const Workload& w, uint64_t seed) {
  const WorkloadMatrices wm = MakeMatrices(w, seed);
  auto placement =
      place::RodPlaceMatrix(wm.op_coeffs, wm.totals, wm.system);
  ROD_CHECK_OK(placement.status());
  auto weights = geom::ComputeWeightMatrix(placement->NodeCoeffs(wm.op_coeffs),
                                           wm.totals, wm.system.capacities);
  ROD_CHECK_OK(weights.status());
  return geom::FeasibleSet(std::move(*weights));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void WriteJson(const std::string& path, const std::string& mode,
               bool simd_available, const std::vector<Measurement>& rows,
               const std::vector<DeltaRun>& delta_rows) {
  std::ofstream out(path);
  telemetry::JsonWriter w(out);
  w.BeginObject();
  w.Key("bench").String("bench_volume_perf");
  w.Key("mode").String(mode);
  bench::WriteBuildMetadata(w);
  w.Key("simd_available").Bool(simd_available);
  w.Key("hardware_concurrency")
      .Uint(std::max(1u, std::thread::hardware_concurrency()));
  w.Key("entries").BeginArray();
  for (const Measurement& m : rows) {
    w.BeginObjectInline();
    w.Key("dims").Uint(m.dims);
    w.Key("nodes").Uint(m.nodes);
    w.Key("samples").Uint(m.samples);
    w.Key("threads").Uint(m.threads);
    w.Key("reps").Uint(m.reps);
    w.Key("measurements").Uint(m.measurements);
    w.Key("simd_path").String(m.simd_path);
    w.Key("ratio").Double(m.ratio);
    w.Key("seconds").Double(m.seconds);
    bench::WriteSpread(w, "samples_per_sec", m.samples_per_sec);
    w.Key("speedup_vs_1").Double(m.speedup_vs_1);
    w.Key("bitexact_vs_seq").Bool(m.bitexact_vs_seq);
    w.Key("bitexact_vs_scalar").Bool(m.bitexact_vs_scalar);
    w.Key("simd_speedup_vs_scalar").Double(m.simd_speedup_vs_scalar);
    w.Key("cache_cold_ms").Double(m.cache_cold_ms);
    w.Key("cache_warm_ms").Double(m.cache_warm_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("rod_delta").BeginArray();
  for (const DeltaRun& d : delta_rows) {
    w.BeginObjectInline();
    w.Key("dims").Uint(d.dims);
    w.Key("nodes").Uint(d.nodes);
    w.Key("samples").Uint(d.samples);
    w.Key("delta_seconds").Double(d.delta_seconds);
    w.Key("full_seconds").Double(d.full_seconds);
    w.Key("speedup").Double(d.speedup);
    w.Key("identical").Bool(d.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchFlags flags = bench::ParseBenchFlags(argc, argv);
  // The results baseline owns --json; the session only exports --trace
  // (pool task spans — the volume kernel itself runs inside pool chunks).
  bench::TelemetrySession telemetry(flags, /*owns_json=*/false);
  bool smoke = false;
  double min_simd_speedup = 0.0;
  std::string out_path = flags.json_path.empty()
                             ? std::string("BENCH_volume.json")
                             : flags.json_path;
  std::vector<size_t> threads_list;
  for (const std::string& arg : flags.rest) {
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads_list = bench::ParseThreadList(arg.substr(10));
    } else if (arg.rfind("--min-simd-speedup=", 0) == 0) {
      min_simd_speedup = std::stod(arg.substr(19));
    } else {
      std::cerr << "usage: bench_volume_perf [--smoke] [--json=PATH] "
                   "[--trace=PATH] [--threads=1,2,4,8] "
                   "[--min-simd-speedup=X]\n";
      return 2;
    }
  }
  if (threads_list.empty()) {
    threads_list = smoke ? std::vector<size_t>{1, 2}
                         : std::vector<size_t>{1, 2, 4, 8};
  }

  const std::vector<Workload> workloads =
      smoke ? std::vector<Workload>{{3, 5}, {6, 20}}
            : std::vector<Workload>{{3, 5}, {6, 20}, {10, 20}};
  const std::vector<size_t> sample_counts =
      smoke ? std::vector<size_t>{8192} : std::vector<size_t>{16384, 32768};
  // Samples evaluated per timed measurement (reps = target / samples).
  const size_t target_evals = smoke ? (1u << 17) : (1u << 22);
  const size_t measurements = smoke ? 5 : 7;

  // Kernel paths to sweep: the runtime-dispatched SIMD path first (when
  // compiled in, supported by this CPU, and not vetoed by
  // ROD_DISABLE_SIMD — the env veto is respected, which is what the CI
  // forced-scalar job relies on), then forced-scalar for the comparison
  // rows.
  const bool simd_available = geom::SimdKernelEnabled();
  std::vector<bool> simd_modes;
  if (simd_available) simd_modes.push_back(true);
  simd_modes.push_back(false);

  bench::Banner("volume-engine perf sweep (dims x nodes x samples x threads)");
  bench::Table table({"path", "dims", "nodes", "samples", "threads",
                      "Msamples/s", "p10", "p90", "speedup", "vs scalar",
                      "bitexact", "cold ms", "warm ms"});
  std::vector<Measurement> rows;
  bool all_bitexact = true;
  // SIMD-vs-scalar throughput at the largest workload, threads_list[0]
  // (single-threaded when the default list is used): the gate metric.
  double gate_simd_speedup = 0.0;

  for (const Workload& w : workloads) {
    const geom::FeasibleSet fs = MakeWorkload(w, /*seed=*/42);
    for (size_t samples : sample_counts) {
      geom::VolumeOptions vol;
      vol.num_samples = samples;

      // Cold vs warm cache cost for this (dims, samples) key: generation
      // (miss) against a lookup returning the shared buffer (hit).
      geom::SimplexSampleCache fresh(4);
      geom::SimplexSampleKey key;
      key.dims = w.dims;
      key.num_samples = samples;
      auto t_cold = std::chrono::steady_clock::now();
      (void)fresh.Get(key);
      const double cold_ms = SecondsSince(t_cold) * 1e3;
      auto t_warm = std::chrono::steady_clock::now();
      (void)fresh.Get(key);
      const double warm_ms = SecondsSince(t_warm) * 1e3;

      const size_t reps = std::max<size_t>(1, target_evals / samples);
      // Every (path, threads) row of this block is timed `measurements`
      // times, round-robin (avx2 t1, avx2 t2, ..., scalar t1, ..., then
      // again), so the throughput drift of shared hardware reaches every
      // row alike; each row reports its median with p10 and p90.
      struct Timed {
        bool simd = false;
        size_t threads = 0;
        double ratio = 0.0;
        bool stable = true;  ///< every measurement gave `ratio`
        std::vector<double> rates, seconds;
      };
      std::vector<Timed> block;
      for (bool use_simd : simd_modes) {
        for (size_t threads : threads_list) {
          Timed t;
          t.simd = use_simd;
          t.threads = threads;
          geom::SetSimdKernelEnabled(use_simd);
          vol.num_threads = threads;
          t.ratio = fs.RatioToIdeal(vol);  // warm the global cache / pool
          block.push_back(std::move(t));
        }
      }
      for (size_t r = 0; r < measurements; ++r) {
        for (Timed& t : block) {
          geom::SetSimdKernelEnabled(t.simd);
          vol.num_threads = t.threads;
          double ratio = 0.0;
          const auto t0 = std::chrono::steady_clock::now();
          for (size_t rep = 0; rep < reps; ++rep) ratio = fs.RatioToIdeal(vol);
          const double secs = SecondsSince(t0);
          t.rates.push_back(static_cast<double>(samples) *
                            static_cast<double>(reps) / secs);
          t.seconds.push_back(secs);
          t.stable = t.stable && ratio == t.ratio;
        }
      }
      // Rows in block order; a path's first row is its 1-thread base, and
      // the scalar rows (which come after) fill in the SIMD rows'
      // vs-scalar columns.
      const size_t first_row = rows.size();
      for (size_t b = 0; b < block.size(); ++b) {
        const Timed& t = block[b];
        const size_t ti = b % threads_list.size();
        Measurement m;
        m.dims = w.dims;
        m.nodes = w.nodes;
        m.samples = samples;
        m.threads = t.threads;
        m.reps = reps;
        m.measurements = measurements;
        geom::SetSimdKernelEnabled(t.simd);
        m.simd_path = geom::ActiveSimdIsa();
        m.ratio = t.ratio;
        m.seconds = Percentile(t.seconds, 0.5);
        m.samples_per_sec = bench::SpreadOf(t.rates);
        const Measurement& base = ti == 0 ? m : rows[rows.size() - ti];
        m.speedup_vs_1 = m.samples_per_sec.median / base.samples_per_sec.median;
        m.bitexact_vs_seq = t.stable && m.ratio == base.ratio;
        m.bitexact_vs_scalar = !t.simd;  // SIMD rows fixed below
        m.cache_cold_ms = cold_ms;
        m.cache_warm_ms = warm_ms;
        if (!t.simd && simd_available) {
          Measurement& sm = rows[first_row + ti];
          sm.bitexact_vs_scalar = sm.ratio == m.ratio;
          sm.simd_speedup_vs_scalar =
              sm.samples_per_sec.median / m.samples_per_sec.median;
          if (ti == 0 && w.dims == workloads.back().dims &&
              w.nodes == workloads.back().nodes &&
              samples == sample_counts.back()) {
            gate_simd_speedup = sm.simd_speedup_vs_scalar;
          }
        }
        all_bitexact = all_bitexact && m.bitexact_vs_seq;
        rows.push_back(m);
      }
      for (const Measurement& m : rows) {
        if (m.dims != w.dims || m.nodes != w.nodes || m.samples != samples) {
          continue;
        }
        all_bitexact = all_bitexact && m.bitexact_vs_scalar;
        table.AddRow({m.simd_path, std::to_string(m.dims),
                      std::to_string(m.nodes), std::to_string(m.samples),
                      std::to_string(m.threads),
                      bench::Fmt(m.samples_per_sec.median / 1e6, 1),
                      bench::Fmt(m.samples_per_sec.p10 / 1e6, 1),
                      bench::Fmt(m.samples_per_sec.p90 / 1e6, 1),
                      bench::Fmt(m.speedup_vs_1, 2),
                      m.simd_speedup_vs_scalar > 0.0
                          ? bench::Fmt(m.simd_speedup_vs_scalar, 2)
                          : std::string("-"),
                      m.bitexact_vs_seq && m.bitexact_vs_scalar ? "yes" : "NO",
                      bench::Fmt(m.cache_cold_ms, 2),
                      bench::Fmt(m.cache_warm_ms, 4)});
      }
    }
  }
  geom::SetSimdKernelEnabled(simd_available);  // restore dispatch state
  table.Print();
  std::cout << "\nparallel/sequential and simd/scalar estimates bit-exact: "
            << (all_bitexact ? "yes" : "NO") << "\n";

  // Volume-greedy ROD with delta candidate scoring on vs off: the
  // placements must be identical (the delta context replays exactly the
  // per-sample feasibility the full re-test computes); the timing shows
  // what the incremental path buys.
  bench::Banner("ROD volume-greedy placement: delta vs full scoring");
  bench::Table dtable({"dims", "nodes", "samples", "delta ms", "full ms",
                       "speedup", "identical"});
  std::vector<DeltaRun> delta_rows;
  bool all_identical = true;
  const size_t delta_samples = smoke ? 4096 : 16384;
  for (const Workload& w : workloads) {
    const WorkloadMatrices wm = MakeMatrices(w, /*seed=*/42);
    place::RodOptions ro;
    ro.mode = place::RodOptions::Mode::kVolumeGreedy;
    ro.volume.num_samples = delta_samples;
    DeltaRun d;
    d.dims = w.dims;
    d.nodes = w.nodes;
    d.samples = delta_samples;
    ro.delta_eval = true;
    auto t0 = std::chrono::steady_clock::now();
    auto with_delta =
        place::RodPlaceMatrix(wm.op_coeffs, wm.totals, wm.system, ro);
    d.delta_seconds = SecondsSince(t0);
    ro.delta_eval = false;
    t0 = std::chrono::steady_clock::now();
    auto full =
        place::RodPlaceMatrix(wm.op_coeffs, wm.totals, wm.system, ro);
    d.full_seconds = SecondsSince(t0);
    ROD_CHECK_OK(with_delta.status());
    ROD_CHECK_OK(full.status());
    d.identical = with_delta->assignment() == full->assignment();
    d.speedup = d.delta_seconds > 0 ? d.full_seconds / d.delta_seconds : 0.0;
    all_identical = all_identical && d.identical;
    delta_rows.push_back(d);
    dtable.AddRow({std::to_string(d.dims), std::to_string(d.nodes),
                   std::to_string(d.samples),
                   bench::Fmt(d.delta_seconds * 1e3, 1),
                   bench::Fmt(d.full_seconds * 1e3, 1),
                   bench::Fmt(d.speedup, 2), d.identical ? "yes" : "NO"});
  }
  dtable.Print();
  std::cout << "\ndelta and full scoring place identically: "
            << (all_identical ? "yes" : "NO") << "\n";

  bool simd_ok = true;
  if (min_simd_speedup > 0.0) {
    if (!simd_available) {
      std::cout << "--min-simd-speedup skipped: SIMD path unavailable\n";
    } else {
      simd_ok = gate_simd_speedup >= min_simd_speedup;
      std::cout << "simd speedup gate: " << bench::Fmt(gate_simd_speedup, 2)
                << (simd_ok ? " >= " : " BELOW FLOOR ")
                << bench::Fmt(min_simd_speedup, 2) << "\n";
    }
  }

  WriteJson(out_path, smoke ? "smoke" : "full", simd_available, rows,
            delta_rows);
  std::cout << "wrote " << out_path << " (" << rows.size() << " entries, "
            << delta_rows.size() << " delta runs)\n";
  return all_bitexact && all_identical && simd_ok ? 0 : 1;
}
