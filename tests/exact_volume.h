// Copyright (c) the ROD reproduction authors.
//
// Exact volume of low-dimensional convex polytopes via Lasserre's
// recursive formula,
//     vol_d(P) = (1/d) * sum_i (b_i / ||a_i||) * vol_{d-1}(P ∩ {a_i x = b_i}),
// with each facet measured inside its own (d-1)-dimensional affine
// subspace (an orthonormal parameterization keeps measures correct). The
// cost is exponential in d, so this is a *verification* tool for the QMC
// estimator on paper-scale dimensions (d <= 5), not a production path —
// precisely the intractability argument of the paper's §2.4 — and it
// lives with the tests, its only caller (exact_volume_test).

#ifndef ROD_TESTS_EXACT_VOLUME_H_
#define ROD_TESTS_EXACT_VOLUME_H_

#include <span>

#include "common/matrix.h"
#include "common/status.h"

namespace rod::geom {

/// Exact volume of `{x in R^d : constraints.Row(i) . x <= bounds[i]}`.
/// The polytope must be bounded (unbounded inputs give meaningless
/// results; callers bound feasible sets with the ideal hyperplane).
/// Duplicate constraints are coalesced; redundant ones contribute zero.
/// Fails for d > max_dims (cost guard) or shape mismatches.
Result<double> PolytopeVolume(const Matrix& constraints,
                              std::span<const double> bounds,
                              size_t max_dims = 6);

/// Exact `V(F)/V(F*)` of a normalized weight matrix in any (small)
/// dimension: the feasible polytope `{x >= 0, W x <= 1}` is intersected
/// with the (implied) ideal half-space `sum x <= 1` for boundedness and
/// its volume divided by the simplex volume 1/d!.
Result<double> ExactRatioToIdealND(const Matrix& weights,
                                   size_t max_dims = 6);

}  // namespace rod::geom

#endif  // ROD_TESTS_EXACT_VOLUME_H_
