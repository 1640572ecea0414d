// Copyright (c) the ROD reproduction authors.
//
// The per-point Quasi-Monte-Carlo path, kept as a test oracle: a Halton
// point is a radical inverse per axis (one division per digit), mapped
// onto the simplex through a heap-allocated Vector, one point at a time.
// The sample-set generator (geometry/sample_cache.cc) replaced it with a
// division-free digit odometer chunked over the shared pool; its sets
// must equal this path's bit for bit (sample_cache_test), and the tests
// that want a handful of plain Halton points draw them here.

#ifndef ROD_TESTS_QMC_ORACLE_H_
#define ROD_TESTS_QMC_ORACLE_H_

#include <cstdint>

#include "common/matrix.h"
#include "geometry/sample_cache.h"

namespace rod::geom {

/// Van der Corput radical inverse of `index` in base `base`, in [0, 1).
double RadicalInverse(uint64_t index, uint32_t base);

/// Halton low-discrepancy sequence in [0,1)^dims.
///
/// Deterministic: the i-th point is the same for every instance with the
/// same `dims` and `start_index`. The default start index skips the early
/// highly correlated prefix, as every cached sample set does.
class HaltonSequence {
 public:
  /// Sequence over `dims` dimensions (dims >= 1).
  explicit HaltonSequence(size_t dims, uint64_t start_index = 32);

  /// Next point of the sequence.
  Vector Next();

  size_t dims() const { return bases_.size(); }

 private:
  std::vector<uint32_t> bases_;
  uint64_t index_;
};

/// Maps a point of the unit cube [0,1]^d onto the solid simplex
/// `{x >= 0, sum x <= 1}` uniformly in measure (sorted-spacings transform:
/// sort the coordinates and take consecutive differences).
Vector MapUnitCubeToSimplex(Vector cube_point);

/// The S x d sample matrix of `key`, drawn point by point: Halton (with
/// the key's Cranley–Patterson shift) or the key's xoshiro stream, each
/// point through MapUnitCubeToSimplex.
Matrix OracleSimplexSamples(const SimplexSampleKey& key);

}  // namespace rod::geom

#endif  // ROD_TESTS_QMC_ORACLE_H_
