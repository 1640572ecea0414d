#include "placement/optimal.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "geometry/sample_cache.h"

namespace rod::place {

Result<OptimalResult> OptimalPlace(const query::LoadModel& model,
                                   const SystemSpec& system,
                                   const OptimalOptions& options) {
  ROD_RETURN_IF_ERROR(system.Validate());
  const size_t m = model.num_operators();
  const size_t n = system.num_nodes();
  const size_t dims = model.num_vars();
  if (m == 0) return Status::InvalidArgument("no operators to place");

  const bool homogeneous =
      std::all_of(system.capacities.begin(), system.capacities.end(),
                  [&](double c) { return c == system.capacities[0]; });
  const bool canonical = options.exploit_node_symmetry && homogeneous;

  // Plan-count guard (overflow-safe; canonical mode fixes the first
  // operator's node, bounding the space by n^(m-1)).
  const double log_plans =
      static_cast<double>(canonical && m > 0 ? m - 1 : m) *
      std::log(static_cast<double>(n));
  if (n > 1 && log_plans > std::log(static_cast<double>(options.max_plans))) {
    return Status::InvalidArgument(
        "plan space too large for exhaustive search; reduce operators/nodes "
        "or raise max_plans");
  }

  // The sample set every volume estimate with these options integrates
  // over, read row by row.
  const auto sample_set = geom::SimplexSampleCache::Global().Get(
      geom::VolumeSampleKey(dims, options.volume));
  const geom::SampleMatrix& samples = sample_set->samples;

  // Precompute normalization so per-plan weight evaluation is one pass:
  // w_ik = node_coeff(i,k) * inv_norm(i,k), inv_norm = 1/(l_k * C_i/C_T).
  const double total_capacity = system.TotalCapacity();
  Matrix inv_norm(n, dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      const double lk = model.total_coeffs()[k];
      if (lk <= 0.0) {
        return Status::InvalidArgument(
            "non-positive total load coefficient; cannot normalize");
      }
      inv_norm(i, k) = 1.0 / (lk * system.capacities[i] / total_capacity);
    }
  }

  std::vector<size_t> assignment(m, 0);
  OptimalResult best{Placement(n, assignment), -1.0, 0};
  Matrix node_coeffs(n, dims);

  auto evaluate = [&]() {
    ++best.plans_evaluated;
    node_coeffs = Matrix(n, dims);
    for (size_t j = 0; j < m; ++j) {
      auto row = model.op_coeffs().Row(j);
      auto dst = node_coeffs.Row(assignment[j]);
      for (size_t k = 0; k < dims; ++k) dst[k] += row[k];
    }
    size_t feasible = 0;
    for (size_t s = 0; s < samples.rows(); ++s) {
      const std::span<const double> x = samples.Row(s);
      bool ok = true;
      for (size_t i = 0; i < n && ok; ++i) {
        double wx = 0.0;
        for (size_t k = 0; k < dims; ++k) {
          wx += node_coeffs(i, k) * inv_norm(i, k) * x[k];
        }
        ok = wx <= 1.0 + 1e-12;
      }
      if (ok) ++feasible;
    }
    const double ratio =
        static_cast<double>(feasible) / static_cast<double>(samples.rows());
    if (ratio > best.ratio_to_ideal) {
      best.ratio_to_ideal = ratio;
      best.placement = Placement(n, assignment);
    }
  };

  // Depth-first enumeration. In canonical mode operator j may only use
  // nodes 0..min(used, n-1), where `used` counts distinct nodes referenced
  // so far (restricted-growth strings). That enumerates set partitions
  // into at most n blocks — every distinct plan of a homogeneous cluster
  // exactly once, never a mere node relabeling.
  auto enumerate = [&](auto&& self, size_t j, size_t used) -> void {
    if (j == m) {
      evaluate();
      return;
    }
    const size_t limit = canonical ? std::min(used, n - 1) : n - 1;
    for (size_t node = 0; node <= limit; ++node) {
      assignment[j] = node;
      self(self, j + 1, std::max(used, node + 1));
    }
  };
  enumerate(enumerate, 0, 0);
  assert(best.ratio_to_ideal >= 0.0);
  return best;
}

}  // namespace rod::place
