// AVX2 variant of the membership kernel. This translation unit is the only
// one compiled with -mavx2 (see src/CMakeLists.txt); callers must gate on
// SimdKernelAvailable() before entering. Bit-exactness contract: each lane
// accumulates w(i,0)*x0 + w(i,1)*x1 + ... with explicit mul-then-add in
// ascending k, exactly the scalar Dot recurrence, and the affine map uses
// the same lb[k] + scale * x[k] mul-then-add shape — no FMA contraction.
// Four rows are scored side by side only to keep four independent add
// chains in flight; each row's chain is unchanged.

#include "geometry/simd_kernel.h"

#ifdef ROD_HAVE_AVX2_KERNEL

#include <immintrin.h>

namespace rod::geom {

size_t CountContainedAvx2(const double* weights, const double* row_bound,
                          size_t rows, size_t dims, const double* lanes,
                          size_t lane_stride, size_t begin, size_t end,
                          const double* lower_bound, double scale, double tol,
                          double* map_scratch, size_t* tail_begin) {
  const size_t num_groups = (end - begin) / kSimdGroup;
  *tail_begin = begin + num_groups * kSimdGroup;
  const double limit_scalar = 1.0 + tol;
  const __m256d limit = _mm256_set1_pd(limit_scalar);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  size_t feasible = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t s = begin + g * kSimdGroup;
    // The points of this group: mapped[k] = lower_bound[k] + scale * x[k],
    // materialized once per group so the row loop below is a pure dot
    // kernel, or the lane storage itself.
    const double* x = lanes + s;
    size_t x_stride = lane_stride;
    if (lower_bound != nullptr) {
      for (size_t k = 0; k < dims; ++k) {
        const __m256d xk = _mm256_loadu_pd(lanes + k * lane_stride + s);
        const __m256d m = _mm256_add_pd(_mm256_set1_pd(lower_bound[k]),
                                        _mm256_mul_pd(vscale, xk));
        _mm256_storeu_pd(map_scratch + k * kSimdGroup, m);
      }
      x = map_scratch;
      x_stride = kSimdGroup;
    }
    // Row 0 alone first, the heaviest row, where most violated groups
    // leave; the same pass sums each lane's |x_k| for the row bound.
    __m256d violated = _mm256_setzero_pd();  // lanes over 1 + tol so far
    __m256d abs_sum = _mm256_setzero_pd();
    if (rows > 0) {
      __m256d acc = _mm256_setzero_pd();
      for (size_t k = 0; k < dims; ++k) {
        const __m256d xk = _mm256_loadu_pd(x + k * x_stride);
        abs_sum = _mm256_add_pd(abs_sum, _mm256_and_pd(abs_mask, xk));
        acc = _mm256_add_pd(acc,
                            _mm256_mul_pd(_mm256_set1_pd(weights[k]), xk));
      }
      violated = _mm256_cmp_pd(acc, limit, _CMP_GT_OQ);
    }
    // The group stops at the first row whose bound covers its largest
    // coordinate sum. No std::max here: an out-of-line instance built with
    // -mavx2 could be the one the linker keeps for the rest of the program.
    double sums[kSimdGroup];
    _mm256_storeu_pd(sums, abs_sum);
    double max_sum = sums[0];
    for (size_t lane = 1; lane < kSimdGroup; ++lane) {
      max_sum = sums[lane] > max_sum ? sums[lane] : max_sum;
    }
    const double factor = RowBoundFactor(max_sum, dims, limit_scalar);
    size_t i = 1;
    for (; i + 4 <= rows && _mm256_movemask_pd(violated) != 0xF; i += 4) {
      if (row_bound[i] * factor <= limit_scalar) break;
      const double* w0 = weights + i * dims;
      const double* w1 = w0 + dims;
      const double* w2 = w1 + dims;
      const double* w3 = w2 + dims;
      __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
      for (size_t k = 0; k < dims; ++k) {
        const __m256d xk = _mm256_loadu_pd(x + k * x_stride);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(w0[k]), xk));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(w1[k]), xk));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(w2[k]), xk));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(w3[k]), xk));
      }
      violated = _mm256_or_pd(
          _mm256_or_pd(violated, _mm256_or_pd(
                                     _mm256_cmp_pd(acc0, limit, _CMP_GT_OQ),
                                     _mm256_cmp_pd(acc1, limit, _CMP_GT_OQ))),
          _mm256_or_pd(_mm256_cmp_pd(acc2, limit, _CMP_GT_OQ),
                       _mm256_cmp_pd(acc3, limit, _CMP_GT_OQ)));
    }
    // The rows left over from the blocks of four (or none after an exit
    // above) one at a time.
    for (; i < rows && _mm256_movemask_pd(violated) != 0xF; ++i) {
      if (row_bound[i] * factor <= limit_scalar) break;
      const double* w = weights + i * dims;
      __m256d acc = _mm256_setzero_pd();
      for (size_t k = 0; k < dims; ++k) {
        const __m256d xk = _mm256_loadu_pd(x + k * x_stride);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(w[k]), xk));
      }
      violated =
          _mm256_or_pd(violated, _mm256_cmp_pd(acc, limit, _CMP_GT_OQ));
    }
    feasible += kSimdGroup -
                static_cast<size_t>(
                    __builtin_popcount(_mm256_movemask_pd(violated)));
  }
  return feasible;
}

}  // namespace rod::geom

#endif  // ROD_HAVE_AVX2_KERNEL
