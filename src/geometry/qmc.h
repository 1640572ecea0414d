// Copyright (c) the ROD reproduction authors.
//
// Quasi-Monte-Carlo machinery for feasible-set volume integration (paper
// §7.1 computes feasible set sizes "using Quasi Monte Carlo integration").
// A Halton low-discrepancy sequence drives sampling; a measure-preserving
// spacings transform maps the unit cube onto the solid probability simplex
// (the normalized ideal feasible set), so the feasible ratio is estimated
// with O((log N)^d / N) error instead of plain MC's O(N^{-1/2}). The
// sequence and the transform run inside the sample-set generator
// (geometry/sample_cache.cc), which steps the Halton digits of a whole
// chunk of indices instead of dividing each index anew.

#ifndef ROD_GEOMETRY_QMC_H_
#define ROD_GEOMETRY_QMC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rod::geom {

/// The first `count` prime numbers (Halton bases).
std::vector<uint32_t> FirstPrimes(size_t count);

}  // namespace rod::geom

#endif  // ROD_GEOMETRY_QMC_H_
