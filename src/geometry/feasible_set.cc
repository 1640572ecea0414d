#include "geometry/feasible_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "geometry/sample_cache.h"
#include "geometry/simd_kernel.h"

namespace rod::geom {

namespace {

/// Samples per ParallelFor chunk in the membership kernel: large enough to
/// amortize dispatch, small enough to load-balance a 2^15-sample estimate
/// across 8 threads.
constexpr size_t kKernelGrain = 1024;

/// The thread count a membership count over `num_samples` samples runs
/// with: 1 below kMinParallelKernelWork, `num_threads` from there on.
size_t KernelThreads(size_t num_threads, const Matrix& weights,
                     size_t num_samples) {
  const size_t work = weights.rows() * num_samples * weights.cols();
  return work < kMinParallelKernelWork ? 1 : num_threads;
}

/// The sample-set key RatioToIdeal / RatioToIdealAbove integrate over.
SimplexSampleKey BaseKey(size_t dims, const VolumeOptions& options) {
  return VolumeSampleKey(dims, options);
}

/// The sample set of Cranley–Patterson replication `r` — or, past the
/// Halton cutoff, of the independently reseeded pseudo-random replication.
SimplexSampleKey ReplicationKey(size_t dims, const VolumeOptions& options,
                                size_t r) {
  SimplexSampleKey key = BaseKey(dims, options);
  if (key.pseudo_random) {
    key.seed = options.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
  } else {
    key.shift_index = r + 1;
    key.shift_seed = options.seed ^ 0xc9a471e5ULL;
  }
  return key;
}

/// The node rows in descending order of their largest |w_ik|, which is
/// also their `bound` (a row holding a NaN gets bound +inf and comes
/// first). Feasibility is the AND over all rows, so any row order yields
/// the same verdict per sample; this one lets both kernel paths stop a
/// sample at the first row whose bound shows that no remaining row can be
/// violated (RowBoundFactor), and lets a violated sample exit after the
/// heavy rows. stable_sort keeps ties in original order, so the scan cost
/// is deterministic too.
struct OrderedRows {
  Matrix rows;
  Vector bound;
};

OrderedRows OrderRows(const Matrix& weights) {
  const size_t n = weights.rows();
  const size_t d = weights.cols();
  Vector key(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < d; ++k) {
      const double a = std::abs(weights(i, k));
      if (std::isnan(a)) {
        key[i] = std::numeric_limits<double>::infinity();
        break;
      }
      key[i] = std::max(key[i], a);
    }
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return key[a] > key[b]; });
  OrderedRows out{Matrix(n, d), Vector(n)};
  for (size_t i = 0; i < n; ++i) {
    std::span<const double> src = weights.Row(order[i]);
    std::copy(src.begin(), src.end(), out.rows.Row(i).begin());
    out.bound[i] = key[order[i]];
  }
  return out;
}

/// Scalar membership loop over samples `[begin, end)` of the row-major
/// matrix (a Matrix, or a cached set's SampleMatrix): the bit-exact
/// reference the SIMD path must reproduce. Rows come from OrderRows.
template <typename Samples>
size_t CountContainedScalarRange(const OrderedRows& w, const Samples& samples,
                                 size_t begin, size_t end,
                                 std::span<const double> lower_bound,
                                 double scale, double tol, Vector& mapped) {
  const size_t d = samples.cols();
  const double limit = 1.0 + tol;
  size_t feasible = 0;
  for (size_t s = begin; s < end; ++s) {
    std::span<const double> x = samples.Row(s);
    if (!lower_bound.empty()) {
      for (size_t k = 0; k < d; ++k) {
        mapped[k] = lower_bound[k] + scale * x[k];
      }
      x = mapped;
    }
    double abs_sum = 0.0;
    for (size_t k = 0; k < d; ++k) abs_sum += std::abs(x[k]);
    const double factor = RowBoundFactor(abs_sum, d, limit);
    bool inside = true;
    for (size_t i = 0; i < w.rows.rows(); ++i) {
      if (w.bound[i] * factor <= limit) break;
      if (Dot(w.rows.Row(i), x) > limit) {
        inside = false;
        break;
      }
    }
    if (inside) ++feasible;
  }
  return feasible;
}

/// Blocked membership kernel: counts rows `x` of `samples` — optionally
/// affinely mapped to `lower_bound + scale * x` first — that satisfy
/// `W x <= 1 + tol`, with per-sample early exit over the node rows.
/// Chunk boundaries are fixed by kKernelGrain and partial counts are
/// integers reduced in chunk order, so the result is bit-identical for
/// every `num_threads` (and for the caller-only run below
/// kMinParallelKernelWork).
template <typename Samples>
size_t CountContainedImpl(const Matrix& weights, const Samples& samples,
                          size_t num_threads,
                          std::span<const double> lower_bound, double scale,
                          double tol) {
  const size_t num_samples = samples.rows();
  assert(weights.cols() == samples.cols());
  const OrderedRows ordered = OrderRows(weights);
  const size_t num_chunks = (num_samples + kKernelGrain - 1) / kKernelGrain;
  std::vector<size_t> counts(num_chunks, 0);
  ParallelFor(KernelThreads(num_threads, weights, num_samples), num_samples,
              kKernelGrain, [&](size_t chunk, size_t begin, size_t end) {
                Vector mapped(lower_bound.empty() ? 0 : samples.cols());
                counts[chunk] = CountContainedScalarRange(
                    ordered, samples, begin, end, lower_bound, scale, tol,
                    mapped);
              });
  size_t total = 0;
  for (size_t c : counts) total += c;
  return total;
}

/// Dual-layout kernel over a cached SimplexSampleSet: full lane groups go
/// through the AVX2 kernel when it is enabled, the remainder (and the whole
/// range when SIMD is off) through the scalar reference loop. Group
/// boundaries fall inside chunks (kKernelGrain is a multiple of kSimdGroup),
/// and the per-sample verdicts are bit-identical between the two paths, so
/// the count matches the scalar kernel for every thread count and ISA.
size_t CountContainedImpl(const Matrix& weights, const SimplexSampleSet& set,
                          size_t num_threads,
                          std::span<const double> lower_bound, double scale,
                          double tol) {
  static_assert(kKernelGrain % kSimdGroup == 0);
  const SampleMatrix& samples = set.samples;
  if (!SimdKernelEnabled() || set.lanes.empty()) {
    return CountContainedImpl(weights, samples, num_threads, lower_bound,
                              scale, tol);
  }
  const size_t num_samples = samples.rows();
  const size_t d = samples.cols();
  assert(weights.cols() == d);
  const OrderedRows ordered = OrderRows(weights);
  const size_t num_chunks = (num_samples + kKernelGrain - 1) / kKernelGrain;
  std::vector<size_t> counts(num_chunks, 0);
  ParallelFor(
      KernelThreads(num_threads, weights, num_samples), num_samples,
      kKernelGrain, [&](size_t chunk, size_t begin, size_t end) {
        Vector mapped(lower_bound.empty() ? 0 : d);
        Vector map_scratch(lower_bound.empty() ? 0 : d * kSimdGroup);
        size_t tail = begin;
        size_t feasible = CountContainedAvx2(
            ordered.rows.Row(0).data(), ordered.bound.data(),
            ordered.rows.rows(), d, set.lanes.data(), set.lane_stride, begin,
            end, lower_bound.empty() ? nullptr : lower_bound.data(), scale,
            tol, map_scratch.empty() ? nullptr : map_scratch.data(), &tail);
        feasible += CountContainedScalarRange(ordered, samples, tail, end,
                                              lower_bound, scale, tol, mapped);
        counts[chunk] = feasible;
      });
  size_t total = 0;
  for (size_t c : counts) total += c;
  return total;
}

}  // namespace

SimplexSampleKey VolumeSampleKey(size_t dims, const VolumeOptions& options) {
  SimplexSampleKey key;
  key.dims = dims;
  key.num_samples = options.num_samples;
  if (options.use_pseudo_random || dims > options.max_halton_dims) {
    key.pseudo_random = true;
    key.seed = options.seed;
  }
  return key;
}

FeasibleSet::FeasibleSet(Matrix weights) : weights_(std::move(weights)) {
  assert(weights_.rows() > 0 && weights_.cols() > 0);
}

bool FeasibleSet::Contains(std::span<const double> x, double tol) const {
  assert(x.size() == weights_.cols());
  for (size_t i = 0; i < weights_.rows(); ++i) {
    if (Dot(weights_.Row(i), x) > 1.0 + tol) return false;
  }
  return true;
}

size_t FeasibleSet::CountContained(const Matrix& samples, size_t num_threads,
                                   double tol) const {
  return CountContainedImpl(weights_, samples, num_threads, {}, 1.0, tol);
}

double FeasibleSet::RatioToIdeal(const VolumeOptions& options) const {
  assert(options.num_samples > 0);
  const auto samples = SimplexSampleCache::Global().Get(BaseKey(dims(), options));
  const size_t feasible = CountContainedImpl(
      weights_, *samples, options.num_threads, {}, 1.0, kMembershipTol);
  return static_cast<double>(feasible) /
         static_cast<double>(options.num_samples);
}

double FeasibleSet::NormalizedVolume(const VolumeOptions& options) const {
  double log_simplex = 0.0;
  for (size_t k = 1; k <= dims(); ++k) {
    log_simplex -= std::log(static_cast<double>(k));
  }
  return RatioToIdeal(options) * std::exp(log_simplex);
}

FeasibleSet::RatioEstimate FeasibleSet::RatioToIdealWithError(
    size_t replications, const VolumeOptions& options) const {
  assert(replications >= 2);
  const size_t d = dims();
  // One lane per replication: each fetches (or generates) its own rotated
  // sample set and runs the kernel single-threaded. Estimates land in
  // replication-indexed slots and are merged in replication order, so the
  // result is bit-identical for every thread count.
  std::vector<double> estimates(replications, 0.0);
  ParallelFor(options.num_threads, replications, 1,
              [&](size_t, size_t begin, size_t end) {
                for (size_t r = begin; r < end; ++r) {
                  const auto samples = SimplexSampleCache::Global().Get(
                      ReplicationKey(d, options, r));
                  const size_t feasible = CountContainedImpl(
                      weights_, *samples, 1, {}, 1.0, kMembershipTol);
                  estimates[r] = static_cast<double>(feasible) /
                                 static_cast<double>(options.num_samples);
                }
              });
  double sum = 0.0, sum2 = 0.0;
  for (double estimate : estimates) {
    sum += estimate;
    sum2 += estimate * estimate;
  }
  RatioEstimate out;
  out.replications = replications;
  out.mean = sum / static_cast<double>(replications);
  const double var =
      std::max(0.0, (sum2 / static_cast<double>(replications) -
                     out.mean * out.mean) *
                        static_cast<double>(replications) /
                        static_cast<double>(replications - 1));
  out.std_error = std::sqrt(var / static_cast<double>(replications));
  return out;
}

Result<double> FeasibleSet::RatioToIdealAbove(
    std::span<const double> lower_bound, const VolumeOptions& options) const {
  const size_t d = dims();
  if (lower_bound.size() != d) {
    return Status::InvalidArgument("lower bound dimension mismatch");
  }
  for (double b : lower_bound) {
    if (b < 0.0) {
      return Status::InvalidArgument("lower bound must be non-negative");
    }
  }
  // {x >= b, sum x <= 1} is the simplex scaled by s = 1 - sum(b) and
  // translated to b; the kernel maps the cached simplex samples through
  // that affine map before testing membership.
  const double scale = 1.0 - Sum(lower_bound);
  if (scale <= 0.0) return 0.0;

  const auto samples = SimplexSampleCache::Global().Get(BaseKey(d, options));
  const size_t feasible =
      CountContainedImpl(weights_, *samples, options.num_threads, lower_bound,
                         scale, kMembershipTol);
  return static_cast<double>(feasible) /
         static_cast<double>(options.num_samples);
}

}  // namespace rod::geom
