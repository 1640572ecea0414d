// Copyright (c) the ROD reproduction authors.
//
// ROD's candidate scan over all nodes for one unit (DESIGN §9.6), in GCC
// vector extensions. The pass bodies below are templates on the vector
// width in an unnamed namespace: placement/rod.cc instantiates them at
// width 2 (SSE2, the x86-64 baseline) and placement/rod_scan_avx2.cc at
// width 4 under -mavx2, which exports only the two *Avx2 functions. Every
// helper has internal linkage and nothing here calls a shared inline
// function (no std::max), so no -mavx2 copy of one can end up in the
// baseline path. The scan only bounds; every decision it cannot prove is
// made by the exact arithmetic in rod.cc.

#ifndef ROD_PLACEMENT_ROD_SCAN_H_
#define ROD_PLACEMENT_ROD_SCAN_H_

#include <cstddef>
#include <cstdint>

namespace rod::place {

/// The node tables' rows are padded to a multiple of this many lanes, the
/// widest pass. Pad lanes are never members of a list: their row maxima
/// are +inf (never Class I), their sums NaN (interval (-inf, inf), so they
/// never set a floor), and every member mask is 0 there.
inline constexpr size_t kScanPad = 4;

/// One unit's scan: the node tables (axis-major, `stride` lanes a row),
/// the unit's loaded axes, and the outputs.
struct ScanArgs {
  size_t stride = 0;  // padded node count, a multiple of kScanPad
  size_t num_loaded = 0;
  const size_t* loaded = nullptr;     // the axes the unit loads, ascending
  const double* coeff = nullptr;      // c_k, per loaded axis
  const double* lb = nullptr;  // b_k per loaded axis; null without a bound

  const double* node_coeffs = nullptr;  // l_ik
  const double* inv_weight = nullptr;   // f_ik = (1 / l_k)(1 / share_i)
  const double* weight = nullptr;       // w_ik, exact
  const double* rest_sq = nullptr;      // r_ik = Q_i - w_ik^2
  const double* row_sum_sq = nullptr;   // Q_i
  const double* row_max = nullptr;      // M_i, exact
  const double* row_lb_dot = nullptr;   // P_i = B . w_i

  double class_one_limit = 0;  // 1 + tol
  double sure_in_limit = 0;    // (1 + tol)(1 - beta)
  double sure_out_limit = 0;   // (1 + tol)(1 + beta)
  double sum_eps = 0;          // relative half-width of a sum's interval
  double lb_margin = 0;        // margin coefficient of a lower-bound key
  double lb_abs_sum = 0;       // sum_k |b_k|

  double* lo = nullptr;   // per node: lower end of the ranking key
  double* hi = nullptr;   // per node: upper end
  int64_t* cls = nullptr;  // per node: -1 surely Class I, 1 uncertain, 0 not
};

/// What the pass reduces in registers: the largest lower end over the
/// certain Class I nodes and over all nodes, and the two counts.
struct ScanFloors {
  double class_one = 0;
  double all = 0;
  size_t num_class_one = 0;
  size_t num_uncertain = 0;
};

#if defined(ROD_HAVE_AVX2_KERNEL)
/// The width-4 passes; call only when geom::SimdKernelEnabled().
ScanFloors ScanPassAvx2(const ScanArgs& args);
size_t ScanReachAvx2(size_t stride, const int64_t* member, const double* hi,
                     double floor, size_t* last);
#endif

namespace {

constexpr double kScanTinySum = 0x1p-900;
constexpr double kScanHugeSum = 0x1p900;

template <size_t W>
struct ScanLanes {
  typedef double D __attribute__((vector_size(W * sizeof(double))));
  typedef int64_t I __attribute__((vector_size(W * sizeof(int64_t))));
};

template <typename V, typename T>
V ScanLoad(const T* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V, typename T>
void ScanStore(T* p, V v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

/// A lane compare's result as a plain integer vector of all-ones and zero
/// lanes. Left to itself GCC keeps it as a vector of booleans and, for
/// 64-bit lanes under SSE2 (no 64-bit compare), turns each later use into
/// scalar code per lane. The empty asm pins it to a vector register; "x"
/// names one on x86 and AArch64 only, and elsewhere the compare's result
/// is used as it is.
template <typename I>
I ScanMask(I m) {
#if defined(__x86_64__) || defined(__i386__) || defined(__aarch64__)
  __asm__("" : "+x"(m));
#endif
  return m;
}

/// `mask ? a : b` lane by lane, in bitwise operations, for the same reason.
template <typename I, typename V>
V ScanSelect(I mask, V a, V b) {
  return (V)(((I)a & mask) | ((I)b & ~mask));
}

template <size_t W>
double ScanLaneMax(typename ScanLanes<W>::D v) {
  double best = v[0];
  for (size_t l = 1; l < W; ++l) best = v[l] > best ? v[l] : best;
  return best;
}

template <size_t W>
int64_t ScanLaneSum(typename ScanLanes<W>::I v) {
  int64_t sum = 0;
  for (size_t l = 0; l < W; ++l) sum += v[l];
  return sum;
}

/// Pass 1. Per node: the candidate sum of squares s from the tables
/// (r_ik0 + w^2 on the first loaded axis, w^2 - w_ik^2 on the others, with
/// w = (l_ik + c_k) f_ik), its ranking interval [lo, hi] and its Class I
/// flag. Without a lower bound the key is -s: p = 1 / sqrt(s) falls as s
/// grows. With one it is num |num| / s, num = 1 - B.w. A sum outside
/// [2^-900, 2^900], or a key that overflowed, gets (-inf, inf).
template <size_t W, bool kLb>
ScanFloors ScanPassImpl(const ScanArgs& a) {
  using D = typename ScanLanes<W>::D;
  using I = typename ScanLanes<W>::I;
  constexpr double kInf = __builtin_inf();
  // Everything the loop reads from `a` is copied first: the stores below
  // could alias its fields, which would reload them on every iteration.
  const size_t stride = a.stride, nk = a.num_loaded;
  const size_t* const loaded = a.loaded;
  const double* const coeff = a.coeff;
  const double* const lb = a.lb;
  const double* const l_rows = a.node_coeffs;
  const double* const f_rows = a.inv_weight;
  const double* const w_rows = a.weight;
  const double* const max_row = a.row_max;
  const double* const dot_row = a.row_lb_dot;
  const size_t first = nk > 0 ? loaded[0] * stride : 0;
  const double* const base = nk > 0 ? a.rest_sq + first : a.row_sum_sq;
  const double limit = a.class_one_limit;
  const double sure_in_limit = a.sure_in_limit;
  const double sure_out_limit = a.sure_out_limit;
  const double lo_scale = -(1.0 + a.sum_eps), hi_scale = -(1.0 - a.sum_eps);
  const double lb_margin = a.lb_margin, lb_abs_sum = a.lb_abs_sum;
  double* const lo_out = a.lo;
  double* const hi_out = a.hi;
  int64_t* const cls_out = a.cls;
  const D neg_inf = D{} - kInf, pos_inf = D{} + kInf;
  const I abs_mask = I{} + INT64_MAX;
  D floor_in = neg_inf, floor_all = neg_inf;
  I num_in = I{}, num_unc = I{};
  for (size_t i = 0; i < stride; i += W) {
    const D row_max = ScanLoad<D>(max_row + i);
    D s = ScanLoad<D>(base + i);
    // M_i is never NaN; pad lanes are +inf.
    I sure_in = ScanMask(row_max <= limit);
    I sure_out = ScanMask(row_max > limit);
    D max_hat = row_max, dot = D{};
    if constexpr (kLb) dot = ScanLoad<D>(dot_row + i);
    for (size_t q = 0; q < nk; ++q) {
      const size_t off = (q == 0 ? first : loaded[q] * stride) + i;
      const D w_hat = (ScanLoad<D>(l_rows + off) + coeff[q]) *
                      ScanLoad<D>(f_rows + off);
      sure_in &= ScanMask(w_hat <= sure_in_limit);
      sure_out |= ScanMask(w_hat > sure_out_limit);
      if (q == 0 && !kLb) {
        s = s + w_hat * w_hat;
        continue;
      }
      const D w = ScanLoad<D>(w_rows + off);
      s = q == 0 ? s + w_hat * w_hat : s + (w_hat * w_hat - w * w);
      if constexpr (kLb) {
        dot = dot + (w_hat - w) * lb[q];
        max_hat = w_hat > max_hat ? w_hat : max_hat;
      }
    }
    I in_range = ScanMask(s >= kScanTinySum) & ScanMask(s <= kScanHugeSum);
    D lo, hi;
    if constexpr (kLb) {
      const D num = 1.0 - dot;
      const D abs_num = (D)((I)num & abs_mask);
      const D scale = abs_num + max_hat * lb_abs_sum;
      const D inv_sq = 1.0 / s;
      const D key = num * abs_num * inv_sq;
      const D margin = lb_margin * scale * scale * inv_sq;
      lo = key - margin;
      hi = key + margin;
      in_range &= ScanMask(hi - lo <= kScanHugeSum);
    } else {
      lo = s * lo_scale;
      hi = s * hi_scale;
    }
    lo = ScanSelect(in_range, lo, neg_inf);
    hi = ScanSelect(in_range, hi, pos_inf);
    ScanStore(lo_out + i, lo);
    ScanStore(hi_out + i, hi);
    const I uncertain = ~(sure_in | sure_out);
    ScanStore(cls_out + i, sure_in - uncertain);  // -1, 1 or 0
    // Each a max of the running value (no compare feeds a blend of it).
    const D lo_in = ScanSelect(sure_in, lo, neg_inf);
    floor_in = lo_in > floor_in ? lo_in : floor_in;
    floor_all = lo > floor_all ? lo : floor_all;
    num_in -= sure_in;
    num_unc -= uncertain;
  }
  ScanFloors out;
  out.class_one = ScanLaneMax<W>(floor_in);
  out.all = ScanLaneMax<W>(floor_all);
  out.num_class_one = static_cast<size_t>(ScanLaneSum<W>(num_in));
  out.num_uncertain = static_cast<size_t>(ScanLaneSum<W>(num_unc));
  return out;
}

template <size_t W>
ScanFloors ScanPass(const ScanArgs& a) {
  return a.lb != nullptr ? ScanPassImpl<W, true>(a)
                         : ScanPassImpl<W, false>(a);
}

/// Pass 2: the number of member nodes whose upper end reaches `floor`, and
/// the last of them in `*last`.
template <size_t W>
size_t ScanReach(size_t stride, const int64_t* member, const double* hi,
                 double floor, size_t* last) {
  using D = typename ScanLanes<W>::D;
  using I = typename ScanLanes<W>::I;
  I count = I{}, last_index = I{} - 1, index = I{};
  for (size_t l = 0; l < W; ++l) index[l] = static_cast<int64_t>(l);
  for (size_t i = 0; i < stride; i += W) {
    const I reaches =
        ScanLoad<I>(member + i) & ScanMask(ScanLoad<D>(hi + i) >= floor);
    count -= reaches;
    last_index = ScanSelect(reaches, index, last_index);
    index += static_cast<int64_t>(W);
  }
  int64_t best = last_index[0];
  for (size_t l = 1; l < W; ++l) {
    best = last_index[l] > best ? last_index[l] : best;
  }
  *last = static_cast<size_t>(best);
  return static_cast<size_t>(ScanLaneSum<W>(count));
}

}  // namespace

}  // namespace rod::place

#endif  // ROD_PLACEMENT_ROD_SCAN_H_
