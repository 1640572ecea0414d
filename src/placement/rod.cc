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
    if (total_coeffs[k] <= 0.0) {
      return Status::InvalidArgument(
          "rate variable " + std::to_string(k) +
          " has non-positive total load coefficient");
    }
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
  // row k of `node_weight` caches w_ik = l_ik / l_k / (C_i/C_T), rewritten
  // only for the node that receives a unit. ---
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
  auto refresh_weights = [&](size_t i) {
    for (size_t k = 0; k < dims; ++k) {
      node_weight(k, i) = node_coeffs(k, i) / total_coeffs[k] / cap_share[i];
    }
  };
  for (size_t i = 0; i < n; ++i) refresh_weights(i);

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

  const bool has_lb = !normalized_lower_bound.empty();
  // Candidate metrics of placing the current unit on each node: the
  // largest weight, the running sums of Norm2 and Dot over the candidate
  // weight row, and the resulting plane distance.
  Vector max_weight(n), sum_sq(n), lb_dot(n), plane_distance(n);
  Vector axis_weight(n);  // candidate weights on one axis the unit loads
  std::vector<size_t> class_one_nodes;
  std::vector<size_t> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  for (size_t j : order) {
    std::fill(max_weight.begin(), max_weight.end(), 0.0);
    std::fill(sum_sq.begin(), sum_sq.end(), 0.0);
    std::fill(lb_dot.begin(), lb_dot.end(), 0.0);
    // Axis by axis, in the order Norm2 and Dot sum a row, so every
    // per-node reduction is bit-identical to a row-major scan.
    for (size_t k = 0; k < dims; ++k) {
      const double c = op_coeffs(j, k);
      const double* w = &node_weight(k, 0);
      if (c != 0.0) {
        const double* l = &node_coeffs(k, 0);
        for (size_t i = 0; i < n; ++i) {
          axis_weight[i] = (l[i] + c) / total_coeffs[k] / cap_share[i];
        }
        w = axis_weight.data();
      }
      // Otherwise (l_ik + 0) / l_k / share_i is the cached weight.
      for (size_t i = 0; i < n; ++i) {
        max_weight[i] = std::max(max_weight[i], w[i]);
        sum_sq[i] += w[i] * w[i];
      }
      if (has_lb) {
        const double b = normalized_lower_bound[k];
        for (size_t i = 0; i < n; ++i) lb_dot[i] += w[i] * b;
      }
    }
    // PlaneDistance / PlaneDistanceFrom of the candidate row; Class I
    // means no candidate weight above 1 + tolerance.
    class_one_nodes.clear();
    for (size_t i = 0; i < n; ++i) {
      const double norm = std::sqrt(sum_sq[i]);
      plane_distance[i] = norm == 0.0 ? kInfinity
                          : has_lb    ? (1.0 - lb_dot[i]) / norm
                                      : 1.0 / norm;
      if (!(max_weight[i] > 1.0 + kClassITolerance)) {
        class_one_nodes.push_back(i);
      }
    }

    // Node selection.
    size_t selected = 0;
    auto argmax_pd = [&](const std::vector<size_t>& nodes) {
      assert(!nodes.empty());
      size_t best = nodes[0];
      for (size_t i : nodes) {
        if (plane_distance[i] > plane_distance[best]) best = i;
      }
      return best;
    };

    switch (options.mode) {
      case RodOptions::Mode::kVolumeGreedy: {
        // Maximize the surviving feasible-sample count; break count ties
        // by plane distance, then by lowest node id. Counts are identical
        // with delta evaluation on or off, so the placement is too.
        volume_ctx->LoadUnit(j);
        selected = 0;
        size_t best_count =
            volume_ctx->ScoreCandidate(0, options.delta_eval);
        for (size_t i = 1; i < n; ++i) {
          const size_t count =
              volume_ctx->ScoreCandidate(i, options.delta_eval);
          if (count > best_count ||
              (count == best_count &&
               plane_distance[i] > plane_distance[selected])) {
            best_count = count;
            selected = i;
          }
        }
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
              selected = class_one_nodes[0];
              for (size_t i : class_one_nodes) {
                if (colocated[i] > colocated[selected] ||
                    (colocated[i] == colocated[selected] &&
                     plane_distance[i] > plane_distance[selected])) {
                  selected = i;
                }
              }
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
    for (size_t k = 0; k < dims; ++k) {
      node_coeffs(k, selected) += op_coeffs(j, k);
    }
    refresh_weights(selected);
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
