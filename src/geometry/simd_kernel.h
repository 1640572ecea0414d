// Copyright (c) the ROD reproduction authors.
//
// Runtime-dispatched SIMD membership kernel for the feasible-set volume
// estimate. The AVX2 variant tests four samples per lane group against the
// W·x <= 1 + tol predicate, accumulating each lane's dot product in the
// same k-order mul-then-add sequence as the scalar `Dot`, so the verdict
// per sample — and therefore every count — is bit-identical to the scalar
// reference path. The build keeps `-ffp-contract=off` globally and the
// kernel uses explicit mul/add intrinsics (never fused multiply-add), so
// neither path silently contracts to FMA even when the whole tree is
// compiled with `-mavx2 -mfma`. Both paths skip only the rows that the
// row bound (RowBoundFactor) proves a sample cannot violate, so the
// bound changes no verdict either.

#ifndef ROD_GEOMETRY_SIMD_KERNEL_H_
#define ROD_GEOMETRY_SIMD_KERNEL_H_

#include <cstddef>
#include <limits>

namespace rod::geom {

/// Number of samples per SIMD lane group. The sample-cache lane stride is
/// padded to a multiple of this, and the kernel grain in feasible_set.cc
/// is a multiple of it, so full groups never straddle a chunk boundary.
inline constexpr size_t kSimdGroup = 4;

/// True iff an AVX2 kernel was compiled into this binary (x86-64 GCC/Clang
/// builds) AND the running CPU reports AVX2 support.
bool SimdKernelAvailable();

/// True iff the AVX2 kernel is available and enabled: `SimdKernelAvailable`
/// minus the `ROD_DISABLE_SIMD` environment variable (any non-empty value,
/// read once at first query) and minus `SetSimdKernelEnabled(false)`.
bool SimdKernelEnabled();

/// Process-wide override for tests and benches: force the scalar reference
/// path (`false`) or re-allow the vector path (`true`; still gated on
/// `SimdKernelAvailable` and `ROD_DISABLE_SIMD`).
void SetSimdKernelEnabled(bool enabled);

/// Name of the membership-kernel ISA that `SimdKernelEnabled` currently
/// selects: "avx2" or "scalar".
const char* ActiveSimdIsa();

/// Per-sample factor of the row bound both kernel paths stop on. For a
/// sample x whose coordinate sum sum_k |x_k| (added in ascending k) is
/// `abs_sum`, a row i with max_k |w_ik| * factor <= limit cannot have a
/// computed dot product above `limit`: W_i.x <= max|w_i| * sum|x_k|, and
/// the factor widens that by (4D + 4) u (u = 2^-53), more than twice the
/// first-order rounding (2D + 1) u of the dot product, the sum and the two
/// products (DESIGN §9.4). Rows sorted by
/// max|w_ik| descending let a sample stop at the first such row. Below
/// limit = 2^-900 an underflow could exceed the margin, so the factor is
/// +inf and no row ever stops a sample. `static`, so that the AVX2
/// translation unit compiles its own copy: a shared out-of-line copy built
/// with -mavx2 could be the one the linker keeps for the scalar path.
static inline double RowBoundFactor(double abs_sum, size_t dims,
                                    double limit) {
  constexpr double kNoBound = std::numeric_limits<double>::infinity();
  if (!(limit >= 0x1p-900)) return kNoBound;
  return abs_sum * (1.0 + static_cast<double>(4 * dims + 4) * 0x1p-53);
}

/// AVX2 membership kernel over transposed lane storage (see
/// SimplexSampleSet): `lanes[k * lane_stride + s]` holds coordinate k of
/// sample s. Counts samples `s` in `[begin, begin + 4*floor((end-begin)/4))`
/// whose point x(s) — affinely mapped to `lower_bound + scale * x(s)` first
/// when `lower_bound != nullptr` — satisfies `W x <= 1 + tol` for every row
/// of the `rows x dims` row-major `weights`. `row_bound[i]` must bound
/// |w_i'k| for every row i' >= i (the sorted row maxima qualify, and so
/// do suffix maxima in any row order); a lane group stops at the first
/// row whose bound, times the RowBoundFactor of its largest coordinate
/// sum, is at most 1 + tol. Row 0 is scored alone, the rows after it four
/// at a time, each row's lanes still accumulating in ascending k. Returns
/// the feasible count and stores the first unprocessed sample index (the
/// scalar tail start) into `*tail_begin`. `map_scratch` must hold
/// `4 * dims` doubles when `lower_bound != nullptr` (may be null
/// otherwise). Must only be called when `SimdKernelAvailable()` is true.
size_t CountContainedAvx2(const double* weights, const double* row_bound,
                          size_t rows, size_t dims, const double* lanes,
                          size_t lane_stride, size_t begin, size_t end,
                          const double* lower_bound, double scale, double tol,
                          double* map_scratch, size_t* tail_begin);

}  // namespace rod::geom

#endif  // ROD_GEOMETRY_SIMD_KERNEL_H_
