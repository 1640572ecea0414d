#include "qmc_oracle.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/random.h"
#include "geometry/qmc.h"

namespace rod::geom {

double RadicalInverse(uint64_t index, uint32_t base) {
  assert(base >= 2);
  double result = 0.0;
  double inv_base = 1.0 / static_cast<double>(base);
  double frac = inv_base;
  while (index > 0) {
    result += static_cast<double>(index % base) * frac;
    index /= base;
    frac *= inv_base;
  }
  return result;
}

HaltonSequence::HaltonSequence(size_t dims, uint64_t start_index)
    : bases_(FirstPrimes(dims)), index_(start_index) {
  assert(dims >= 1);
}

Vector HaltonSequence::Next() {
  Vector point(bases_.size());
  for (size_t k = 0; k < bases_.size(); ++k) {
    point[k] = RadicalInverse(index_, bases_[k]);
  }
  ++index_;
  return point;
}

Vector MapUnitCubeToSimplex(Vector cube_point) {
  // Sorted uniforms u_(1) <= ... <= u_(d) have spacings
  // (u_(1)-0, u_(2)-u_(1), ..., u_(d)-u_(d-1)) distributed uniformly over
  // the solid simplex {x >= 0, sum x = u_(d) <= 1}: the sort has density d!
  // on the ordered region and the difference map is unimodular.
  std::sort(cube_point.begin(), cube_point.end());
  double prev = 0.0;
  for (double& v : cube_point) {
    const double cur = v;
    v = cur - prev;
    prev = cur;
  }
  return cube_point;
}

Matrix OracleSimplexSamples(const SimplexSampleKey& key) {
  assert(key.dims > 0 && key.num_samples > 0);
  const size_t d = key.dims;
  Matrix samples(key.num_samples, d);
  auto store = [&](size_t s, const Vector& point) {
    auto row = samples.Row(s);
    for (size_t k = 0; k < d; ++k) row[k] = point[k];
  };

  if (key.pseudo_random) {
    Rng rng(key.seed);
    for (size_t s = 0; s < key.num_samples; ++s) {
      Vector cube(d);
      for (double& v : cube) v = rng.NextDouble();
      store(s, MapUnitCubeToSimplex(std::move(cube)));
    }
    return samples;
  }

  // Cranley–Patterson rotation: replication r = shift_index - 1 takes
  // draws [r*d, (r+1)*d) of the shift stream; shift_index 0 is unshifted.
  Rng shift_rng(key.shift_seed);
  Vector shift(d, 0.0);
  for (uint64_t rep = 0; rep < key.shift_index; ++rep) {
    for (double& v : shift) v = shift_rng.NextDouble();
  }
  HaltonSequence halton(d);
  for (size_t s = 0; s < key.num_samples; ++s) {
    Vector p = halton.Next();
    if (key.shift_index != 0) {
      for (size_t k = 0; k < d; ++k) {
        p[k] += shift[k];
        if (p[k] >= 1.0) p[k] -= 1.0;
      }
    }
    store(s, MapUnitCubeToSimplex(std::move(p)));
  }
  return samples;
}

}  // namespace rod::geom
