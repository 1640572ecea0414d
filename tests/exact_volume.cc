#include "exact_volume.h"

#include <cmath>
#include <limits>

namespace rod::geom {

namespace {

constexpr double kTol = 1e-10;

/// Constraint system a x <= b.
struct System {
  Matrix a;
  Vector b;
};

/// Coalesces duplicate facets (identical normalized row + offset): the
/// Lasserre sum counts each *geometric* facet exactly once. Vacuous rows
/// (zero normal, nonnegative bound) are dropped; an infeasible zero row
/// marks the whole system empty.
struct DedupResult {
  System system;
  bool empty = false;
};

DedupResult Dedup(const Matrix& a, const Vector& b) {
  const size_t d = a.cols();
  DedupResult out;
  std::vector<Vector> kept;  // normalized (row, offset) signatures
  std::vector<Vector> rows;
  Vector bounds;
  for (size_t i = 0; i < a.rows(); ++i) {
    const double norm = Norm2(a.Row(i));
    if (norm <= kTol) {
      if (b[i] < -kTol) {
        out.empty = true;
        return out;
      }
      continue;  // 0 . x <= nonnegative: vacuous
    }
    Vector sig(d + 1);
    for (size_t k = 0; k < d; ++k) sig[k] = a(i, k) / norm;
    sig[d] = b[i] / norm;
    bool duplicate = false;
    for (const Vector& s : kept) {
      if (AlmostEqual(s, sig, 1e-9)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    kept.push_back(sig);
    Vector row(d);
    for (size_t k = 0; k < d; ++k) row[k] = a(i, k);
    rows.push_back(std::move(row));
    bounds.push_back(b[i]);
  }
  out.system.a = Matrix::FromRows(rows);
  out.system.b = std::move(bounds);
  return out;
}

/// Exact length of the 1-D polytope {x : a_i x <= b_i}.
Result<double> IntervalLength(const Matrix& a, const Vector& b) {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < a.rows(); ++i) {
    const double coeff = a(i, 0);
    if (std::fabs(coeff) <= kTol) {
      if (b[i] < -kTol) return 0.0;
      continue;
    }
    if (coeff > 0) {
      hi = std::min(hi, b[i] / coeff);
    } else {
      lo = std::max(lo, b[i] / coeff);
    }
  }
  if (!std::isfinite(lo) || !std::isfinite(hi)) {
    return Status::InvalidArgument("polytope is unbounded");
  }
  return std::max(0.0, hi - lo);
}

/// Lasserre recursion body; dedupes its own inputs.
Result<double> VolumeRec(const Matrix& raw_a, const Vector& raw_b) {
  DedupResult ded = Dedup(raw_a, raw_b);
  if (ded.empty) return 0.0;
  const Matrix& a = ded.system.a;
  const Vector& b = ded.system.b;
  if (a.rows() == 0) {
    return Status::InvalidArgument("polytope is unbounded");
  }
  const size_t d = a.cols();
  if (d == 1) return IntervalLength(a, b);

  double volume = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    const double norm = Norm2(a.Row(i));  // > kTol after dedup
    // Orthonormal basis of the hyperplane a_i . x = b_i via the
    // Householder reflection swapping e_1 and u = a_i/||a_i||: columns
    // 2..d of H = I - 2 v v^T (v = normalize(u - e_1)) span u-perp.
    Vector u(d);
    for (size_t k = 0; k < d; ++k) u[k] = a(i, k) / norm;
    Vector v = u;
    v[0] -= 1.0;
    const double vnorm = Norm2(v);
    Matrix basis(d, d - 1);  // columns = H e_2 .. H e_d
    if (vnorm <= kTol) {
      for (size_t c = 0; c + 1 < d; ++c) basis(c + 1, c) = 1.0;
    } else {
      for (double& x : v) x /= vnorm;
      for (size_t c = 0; c + 1 < d; ++c) {
        const size_t j = c + 1;  // column = H e_{j}
        for (size_t r = 0; r < d; ++r) {
          basis(r, c) = (r == j ? 1.0 : 0.0) - 2.0 * v[r] * v[j];
        }
      }
    }
    // Foot of the perpendicular from the origin: x0 = u * (b_i/||a_i||).
    const double offset = b[i] / norm;

    // Remaining constraints in face coordinates:
    // a'_j = B^T a_j,  b'_j = b_j - a_j . x0.
    Matrix sub_a(a.rows() - 1, d - 1);
    Vector sub_b(a.rows() - 1, 0.0);
    size_t row = 0;
    for (size_t j = 0; j < a.rows(); ++j) {
      if (j == i) continue;
      double dot_x0 = 0.0;
      for (size_t k = 0; k < d; ++k) dot_x0 += a(j, k) * u[k] * offset;
      for (size_t c = 0; c + 1 < d; ++c) {
        double acc = 0.0;
        for (size_t k = 0; k < d; ++k) acc += a(j, k) * basis(k, c);
        sub_a(row, c) = acc;
      }
      sub_b[row] = b[j] - dot_x0;
      ++row;
    }
    auto face = VolumeRec(sub_a, sub_b);
    if (!face.ok()) return face.status();
    volume += offset * *face;
  }
  return volume / static_cast<double>(d);
}

}  // namespace

Result<double> PolytopeVolume(const Matrix& constraints,
                              std::span<const double> bounds,
                              size_t max_dims) {
  const size_t d = constraints.cols();
  if (d == 0 || constraints.rows() == 0) {
    return Status::InvalidArgument("empty constraint system");
  }
  if (bounds.size() != constraints.rows()) {
    return Status::InvalidArgument("bounds size mismatch");
  }
  if (d > max_dims) {
    return Status::InvalidArgument(
        "dimension exceeds the exact-volume cost guard");
  }
  Vector b(bounds.begin(), bounds.end());
  return VolumeRec(constraints, b);
}

Result<double> ExactRatioToIdealND(const Matrix& weights, size_t max_dims) {
  const size_t d = weights.cols();
  const size_t n = weights.rows();
  if (d == 0 || n == 0) {
    return Status::InvalidArgument("empty weight matrix");
  }
  // {W x <= 1, -x <= 0, sum x <= 1}; the last constraint is implied by
  // Theorem 1 but keeps the system explicitly bounded.
  Matrix a(n + d + 1, d);
  Vector b(n + d + 1, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < d; ++k) a(i, k) = weights(i, k);
    b[i] = 1.0;
  }
  for (size_t k = 0; k < d; ++k) {
    a(n + k, k) = -1.0;
    b[n + k] = 0.0;
  }
  for (size_t k = 0; k < d; ++k) a(n + d, k) = 1.0;
  b[n + d] = 1.0;

  auto volume = PolytopeVolume(a, b, max_dims);
  if (!volume.ok()) return volume.status();
  double log_simplex = 0.0;
  for (size_t k = 1; k <= d; ++k) {
    log_simplex -= std::log(static_cast<double>(k));
  }
  return *volume / std::exp(log_simplex);
}

}  // namespace rod::geom
