#include "placement/rod.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/random.h"
#include "placement/delta_volume.h"

namespace rod::place {

namespace {

constexpr double kClassITolerance = 1e-9;
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kUnitRoundoff = 0x1p-53;
/// Outside these magnitudes a sum of squares may have underflowed or may
/// overflow, so the rounding margin below does not hold and the node is
/// always scored exactly.
constexpr double kTinySum = 0x1p-900;
constexpr double kHugeSum = 0x1p900;

/// Candidate weights w = (l + c) / total / share of one axis the unit
/// loads, folded into each node's largest weight and sum of squares.
/// Inputs and outputs are distinct arrays, which lets the loop vectorize.
void AddLoadedAxis(size_t n, double c, double total,
                   const double* __restrict l, const double* __restrict share,
                   const double* __restrict w_old, double* __restrict w,
                   const double* __restrict max_in,
                   const double* __restrict sum_sq_in,
                   double* __restrict max_out, double* __restrict sum_sq_out) {
  for (size_t i = 0; i < n; ++i) {
    w[i] = (l[i] + c) / total / share[i];
    max_out[i] = std::max(max_in[i], w[i]);
    sum_sq_out[i] = sum_sq_in[i] + (w[i] * w[i] - w_old[i] * w_old[i]);
  }
}

/// For each node, an interval [lo, hi] that holds p * |p| for the plane
/// distance p = (1 - dot) / sqrt(sum_sq) that PlaneDistanceFrom computes
/// from the exact candidate row, given the approximate `sum_sq` and `dot`
/// and the exact largest candidate weight. With T = |1 - dot| + B, where
/// B = max_weight * sum_k |b_k| bounds sum_k |w_k b_k|, the interval is
/// key +- margin_coeff * T^2 / sum_sq; DESIGN §9.6 derives margin_coeff,
/// twice the first-order rounding bound. A node whose sums are out of
/// range gets (-inf, inf), so it is always scored exactly. Without a lower
/// bound `dot` is 0, so 1 - dot is exactly 1 and `lb_abs_sum` 0. The
/// pointers do not alias, which lets the loop vectorize.
void PlaneDistanceKeys(size_t n, double margin_coeff, double lb_abs_sum,
                       const double* __restrict max_weight,
                       const double* __restrict sum_sq,
                       const double* __restrict dot, double* __restrict lo,
                       double* __restrict hi) {
  for (size_t i = 0; i < n; ++i) {
    const double num = 1.0 - dot[i];
    const double abs_num = std::abs(num);
    const double scale = abs_num + max_weight[i] * lb_abs_sum;
    const double inv_sq = 1.0 / sum_sq[i];
    const double key = num * abs_num * inv_sq;
    const double margin = margin_coeff * scale * scale * inv_sq;
    const double key_lo = key - margin, key_hi = key + margin;
    // The last test fails when the key or the margin overflowed.
    const bool in_range = (sum_sq[i] >= kTinySum) & (sum_sq[i] <= kHugeSum) &
                          (key_hi - key_lo <= kHugeSum);
    lo[i] = in_range ? key_lo : -kInfinity;
    hi[i] = in_range ? key_hi : kInfinity;
  }
}

}  // namespace

Result<Placement> RodPlaceMatrix(
    const Matrix& op_coeffs, std::span<const double> total_coeffs,
    const SystemSpec& system, const RodOptions& options,
    std::span<const double> normalized_lower_bound,
    const std::vector<std::vector<size_t>>* unit_neighbors,
    const std::vector<size_t>* fixed_assignment) {
  ROD_RETURN_IF_ERROR(system.Validate());
  const size_t m = op_coeffs.rows();
  const size_t dims = op_coeffs.cols();
  const size_t n = system.num_nodes();
  if (m == 0) return Status::InvalidArgument("no units to place");
  if (fixed_assignment != nullptr && fixed_assignment->size() != m) {
    return Status::InvalidArgument("fixed_assignment size mismatch");
  }
  if (total_coeffs.size() != dims) {
    return Status::InvalidArgument("total_coeffs size mismatch");
  }
  for (size_t k = 0; k < dims; ++k) {
    if (!(total_coeffs[k] > 0.0) || std::isinf(total_coeffs[k])) {
      return Status::InvalidArgument(
          "rate variable " + std::to_string(k) +
          " has a non-positive or non-finite total load coefficient");
    }
  }
  // With no coefficient negative or NaN, a unit can only raise a node's
  // weights, which keeps the candidate maximum exact when only the loaded
  // axes update it.
  bool nonnegative = true;
  for (size_t j = 0; j < m; ++j) {
    for (double c : op_coeffs.Row(j)) nonnegative &= c >= 0.0;
  }
  if (!nonnegative) {
    return Status::InvalidArgument(
        "load coefficients must be nonnegative and not NaN");
  }
  if (!normalized_lower_bound.empty() &&
      normalized_lower_bound.size() != dims) {
    return Status::InvalidArgument("lower bound dimension mismatch");
  }
  if (options.tie_break == RodOptions::ClassITieBreak::kMinCrossArcs &&
      unit_neighbors == nullptr) {
    return Status::InvalidArgument(
        "kMinCrossArcs tie-break requires the dataflow neighbor lists");
  }

  const double total_capacity = system.TotalCapacity();
  Vector cap_share(n);
  for (size_t i = 0; i < n; ++i) {
    cap_share[i] = system.capacities[i] / total_capacity;
  }

  // --- Phase 1: operator ordering by ||l^o_j||_2 (Figure 10). Pinned
  // units (incremental mode) are excluded from the order entirely. ---
  std::vector<size_t> order;
  order.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    if (fixed_assignment == nullptr || (*fixed_assignment)[j] >= n) {
      order.push_back(j);
    }
  }
  if (options.sort_operators) {
    std::vector<double> norms(m);
    for (size_t j = 0; j < m; ++j) norms[j] = Norm2(op_coeffs.Row(j));
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return options.sort_ascending ? norms[a] < norms[b]
                                    : norms[a] > norms[b];
    });
  }

  // --- Phase 2: greedy assignment. Node state is axis-major: row k of
  // `node_coeffs` holds every node's load coefficient on variable k, and
  // row k of `node_weight` caches w_ik = l_ik / l_k / (C_i/C_T). Each
  // node also keeps summaries of its weight row: the largest weight, the
  // sum of squares and the dot product with the lower bound, each summed
  // in axis order. All of them are rewritten only for the node that
  // receives a unit. ---
  Rng rng(options.seed);
  Matrix node_coeffs(dims, n);
  Matrix node_weight(dims, n);
  std::vector<size_t> assignment(m, 0);
  std::vector<bool> assigned(m, false);
  if (fixed_assignment != nullptr) {
    // Seed the node coefficients with the immovable units' load.
    for (size_t j = 0; j < m; ++j) {
      const size_t node = (*fixed_assignment)[j];
      if (node >= n) continue;
      assignment[j] = node;
      assigned[j] = true;
      for (size_t k = 0; k < dims; ++k) {
        node_coeffs(k, node) += op_coeffs(j, k);
      }
    }
  }
  const bool has_lb = !normalized_lower_bound.empty();
  double lb_abs_sum = 0.0;
  for (double b : normalized_lower_bound) lb_abs_sum += std::abs(b);
  // 2 (3 eps + 8 u) with eps = (3D + 3) u, the rounding of the sums over
  // D axes in both the exact and the summary form (DESIGN §9.6).
  const double margin_coeff =
      static_cast<double>(18 * dims + 34) * kUnitRoundoff;
  Vector row_max(n), row_sum_sq(n), row_lb_dot(n);  // node row summaries
  auto summarize = [&](size_t i) {
    double max_w = 0.0, sum_sq = 0.0, lb_dot = 0.0;
    for (size_t k = 0; k < dims; ++k) {
      const double w = node_weight(k, i);
      max_w = std::max(max_w, w);
      sum_sq += w * w;
      if (has_lb) lb_dot += w * normalized_lower_bound[k];
    }
    row_max[i] = max_w;
    row_sum_sq[i] = sum_sq;
    row_lb_dot[i] = lb_dot;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < dims; ++k) {
      node_weight(k, i) = node_coeffs(k, i) / total_coeffs[k] / cap_share[i];
    }
    summarize(i);
  }

  // Volume-scored greedy: per-sample feasibility state shared across the
  // whole run, seeded with any pinned units in unit order.
  std::unique_ptr<DeltaVolumeContext> volume_ctx;
  if (options.mode == RodOptions::Mode::kVolumeGreedy) {
    Vector inv_cap(n);
    for (size_t i = 0; i < n; ++i) inv_cap[i] = 1.0 / cap_share[i];
    auto set = geom::SimplexSampleCache::Global().Get(
        geom::VolumeSampleKey(dims, options.volume));
    volume_ctx = std::make_unique<DeltaVolumeContext>(
        op_coeffs, total_coeffs, std::move(inv_cap), std::move(set),
        options.volume.num_threads);
    if (fixed_assignment != nullptr) {
      for (size_t j = 0; j < m; ++j) {
        const size_t node = (*fixed_assignment)[j];
        if (node >= n) continue;
        volume_ctx->LoadUnit(j);
        volume_ctx->Commit(node);
      }
    }
  }

  // Candidate metrics of placing the current unit on each node: the
  // largest weight (exact) and, for the plane distance p, an interval
  // [pd_lo, pd_hi] that holds p * |p| (see DESIGN §9.6).
  Vector max_buf[2] = {Vector(n), Vector(n)};
  Vector sum_sq_buf[2] = {Vector(n), Vector(n)};
  Vector lb_dot_buf[2] = {Vector(has_lb ? n : 0), Vector(has_lb ? n : 0)};
  Vector pd_lo(n), pd_hi(n);
  std::vector<size_t> loaded_buf(dims);  // axes the current unit loads
  Vector loaded_weight(dims * n);  // candidate weights on them, axis-major
  std::vector<size_t> class_one_buf(n), ties;
  std::vector<size_t> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);
  std::vector<size_t> counts(options.mode == RodOptions::Mode::kVolumeGreedy
                                 ? n
                                 : 0);

  for (size_t j : order) {
    size_t num_loaded = 0;
    for (size_t k = 0; k < dims; ++k) {
      loaded_buf[num_loaded] = k;
      num_loaded += op_coeffs(j, k) != 0.0;
    }
    const std::span<const size_t> loaded(loaded_buf.data(), num_loaded);
    // Update the row summaries by the loaded axes only, alternating
    // between two buffers. On an axis the unit does not load,
    // (l_ik + 0) / l_k / share_i is the cached weight; on the others the
    // weight is divided as before. The maximum stays exact because a
    // weight can only grow; the two sums are approximate.
    const double* max_weight = row_max.data();
    const double* sum_sq = row_sum_sq.data();
    const double* lb_dot = row_lb_dot.data();
    for (size_t q = 0; q < loaded.size(); ++q) {
      const size_t k = loaded[q];
      const double* w_old = &node_weight(k, 0);
      double* w = &loaded_weight[q * n];
      Vector& max_out = max_buf[q % 2];
      Vector& sum_sq_out = sum_sq_buf[q % 2];
      AddLoadedAxis(n, op_coeffs(j, k), total_coeffs[k], &node_coeffs(k, 0),
                    cap_share.data(), w_old, w, max_weight, sum_sq,
                    max_out.data(), sum_sq_out.data());
      max_weight = max_out.data();
      sum_sq = sum_sq_out.data();
      if (has_lb) {
        const double b = normalized_lower_bound[k];
        Vector& dot_out = lb_dot_buf[q % 2];
        for (size_t i = 0; i < n; ++i) {
          dot_out[i] = lb_dot[i] + (w[i] - w_old[i]) * b;
        }
        lb_dot = dot_out.data();
      }
    }
    PlaneDistanceKeys(n, margin_coeff, lb_abs_sum, max_weight, sum_sq, lb_dot,
                      pd_lo.data(), pd_hi.data());
    // Class I means no candidate weight above 1 + tolerance. The list is
    // filled without a branch: every node is written, and kept if it is.
    size_t num_class_one = 0;
    for (size_t i = 0; i < n; ++i) {
      class_one_buf[num_class_one] = i;
      num_class_one += !(max_weight[i] > 1.0 + kClassITolerance);
    }
    const std::span<const size_t> class_one_nodes(class_one_buf.data(),
                                                  num_class_one);

    // PlaneDistance / PlaneDistanceFrom of node i's candidate row, summed
    // in axis order as Norm2 and Dot do.
    auto plane_distance = [&](size_t i) {
      double sq = 0.0, dot = 0.0;
      size_t q = 0;
      for (size_t k = 0; k < dims; ++k) {
        double w = node_weight(k, i);
        if (q < loaded.size() && loaded[q] == k) w = loaded_weight[q++ * n + i];
        sq += w * w;
        if (has_lb) dot += w * normalized_lower_bound[k];
      }
      // Without a lower bound dot is 0 and 1 - dot is exactly 1.
      const double norm = std::sqrt(sq);
      return norm == 0.0 ? kInfinity : (1.0 - dot) / norm;
    };
    // The first node of `nodes` with the largest plane distance, as a scan
    // that starts from nodes[0] and takes a strictly larger value would
    // pick it (so a NaN at nodes[0] wins, and a NaN elsewhere never does).
    // Only nodes whose interval reaches the best lower end can be it, and
    // a node that is alone there needs no exact score.
    auto argmax_pd = [&](std::span<const size_t> nodes) {
      assert(!nodes.empty());
      double floor = -kInfinity;
      for (size_t i : nodes) floor = std::max(floor, pd_lo[i]);
      size_t reaching = 0, last = nodes[0];
      for (size_t i : nodes) {
        const bool reaches = pd_hi[i] >= floor;
        reaching += reaches;
        last = reaches ? i : last;
      }
      if (reaching == 1) return last;
      size_t best = n;
      double best_pd = 0.0;
      for (size_t i : nodes) {
        if (pd_hi[i] < floor) continue;
        const double pd = plane_distance(i);
        if (best == n ? i == nodes[0] || !std::isnan(pd) : pd > best_pd) {
          best = i;
          best_pd = pd;
        }
      }
      assert(best < n);
      return best;
    };

    // Node selection.
    size_t selected = 0;
    switch (options.mode) {
      case RodOptions::Mode::kVolumeGreedy: {
        // Maximize the surviving feasible-sample count; break count ties
        // by plane distance, then by lowest node id. Counts are identical
        // with delta evaluation on or off, so the placement is too.
        volume_ctx->LoadUnit(j);
        for (size_t i = 0; i < n; ++i) {
          counts[i] = volume_ctx->ScoreCandidate(i, options.delta_eval);
        }
        const size_t best_count =
            *std::max_element(counts.begin(), counts.end());
        ties.clear();
        for (size_t i = 0; i < n; ++i) {
          if (counts[i] == best_count) ties.push_back(i);
        }
        selected = argmax_pd(ties);
        break;
      }
      case RodOptions::Mode::kMmpdOnly:
        selected = argmax_pd(all_nodes);
        break;
      case RodOptions::Mode::kMmadOnly: {
        // Pure axis balancing: minimize the worst per-axis weight, i.e.
        // keep every axis intercept 1/w_ik as large as possible.
        selected = 0;
        for (size_t i = 1; i < n; ++i) {
          if (max_weight[i] < max_weight[selected]) selected = i;
        }
        break;
      }
      case RodOptions::Mode::kCombined: {
        if (!class_one_nodes.empty()) {
          switch (options.tie_break) {
            case RodOptions::ClassITieBreak::kMaxPlaneDistance:
              selected = argmax_pd(class_one_nodes);
              break;
            case RodOptions::ClassITieBreak::kRandom:
              selected = class_one_nodes[rng.NextIndex(class_one_nodes.size())];
              break;
            case RodOptions::ClassITieBreak::kFirst:
              selected = class_one_nodes[0];
              break;
            case RodOptions::ClassITieBreak::kMinMaxWeight:
              selected = class_one_nodes[0];
              for (size_t i : class_one_nodes) {
                if (max_weight[i] < max_weight[selected]) selected = i;
              }
              break;
            case RodOptions::ClassITieBreak::kMinCrossArcs: {
              // Count already-placed dataflow neighbors of j per node; the
              // node with the most co-located neighbors creates the fewest
              // new inter-node arcs. Ties fall back to plane distance.
              std::vector<size_t> colocated(n, 0);
              for (size_t nb : (*unit_neighbors)[j]) {
                if (nb < m && assigned[nb]) ++colocated[assignment[nb]];
              }
              size_t most = 0;
              for (size_t i : class_one_nodes) {
                most = std::max(most, colocated[i]);
              }
              ties.clear();
              for (size_t i : class_one_nodes) {
                if (colocated[i] == most) ties.push_back(i);
              }
              selected = argmax_pd(ties);
              break;
            }
          }
        } else {
          // Class II step: MMPD — maximize the candidate plane distance.
          selected = argmax_pd(all_nodes);
        }
        break;
      }
    }

    assignment[j] = selected;
    assigned[j] = true;
    if (volume_ctx != nullptr) volume_ctx->Commit(selected);
    // The new weights of the selected node are its candidate weights.
    for (size_t q = 0; q < loaded.size(); ++q) {
      const size_t k = loaded[q];
      node_coeffs(k, selected) += op_coeffs(j, k);
      node_weight(k, selected) = loaded_weight[q * n + selected];
    }
    summarize(selected);
  }

  return Placement(n, std::move(assignment));
}

Result<Placement> RodPlace(const query::LoadModel& model,
                           const SystemSpec& system, const RodOptions& options,
                           const query::QueryGraph* graph) {
  // Map the physical lower bound (over system inputs) into normalized
  // coordinates; auxiliary variables get bound 0.
  Vector norm_lb;
  if (!options.lower_bound.empty()) {
    if (options.lower_bound.size() != model.num_system_inputs()) {
      return Status::InvalidArgument(
          "lower bound must cover exactly the system input streams");
    }
    for (double b : options.lower_bound) {
      if (b < 0.0) {
        return Status::InvalidArgument("lower bound must be non-negative");
      }
    }
    norm_lb.assign(model.num_vars(), 0.0);
    const double total_capacity = system.TotalCapacity();
    for (size_t k = 0; k < model.num_system_inputs(); ++k) {
      norm_lb[k] =
          model.total_coeffs()[k] * options.lower_bound[k] / total_capacity;
    }
  }

  std::vector<std::vector<size_t>> neighbors;
  const std::vector<std::vector<size_t>>* neighbors_ptr = nullptr;
  if (options.tie_break == RodOptions::ClassITieBreak::kMinCrossArcs) {
    if (graph == nullptr) {
      return Status::InvalidArgument(
          "kMinCrossArcs tie-break requires the query graph");
    }
    neighbors.resize(graph->num_operators());
    for (query::OperatorId j = 0; j < graph->num_operators(); ++j) {
      for (const query::Arc& arc : graph->inputs_of(j)) {
        if (arc.from.kind == query::StreamRef::Kind::kOperator) {
          neighbors[j].push_back(arc.from.index);
          neighbors[arc.from.index].push_back(j);
        }
      }
    }
    neighbors_ptr = &neighbors;
  }

  return RodPlaceMatrix(model.op_coeffs(), model.total_coeffs(), system,
                        options, norm_lb, neighbors_ptr);
}

}  // namespace rod::place
