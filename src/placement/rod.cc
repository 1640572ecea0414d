#include "placement/rod.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "common/random.h"
#include "geometry/simd_kernel.h"
#include "placement/delta_volume.h"
#include "placement/rod_scan.h"

namespace rod::place {

namespace {

constexpr double kClassITolerance = 1e-9;
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kUnitRoundoff = 0x1p-53;
/// Relative half-width of the band around the Class I limit inside which
/// the scan leaves the decision to the exact weight (DESIGN §9.6).
constexpr double kClassIBand = 0x1p-40;
/// The table's rounding bounds need every total l_k and every capacity
/// share inside these magnitudes (DESIGN §9.6). In a run with one outside
/// them the table is NaN, so every Class I flag is uncertain and every
/// node is scored exactly.
constexpr double kTableMin = 0x1p-400;
constexpr double kTableMax = 0x1p400;

/// The width-2 or width-4 passes of rod_scan.h, picked once per run.
struct ScanKernels {
  ScanFloors (*pass)(const ScanArgs&);
  size_t (*reach)(size_t, const int64_t*, const double*, double, size_t*);
};

const ScanKernels& SelectScanKernels() {
  static constexpr ScanKernels kWidth2{ScanPass<2>, ScanReach<2>};
#ifdef ROD_HAVE_AVX2_KERNEL
  static constexpr ScanKernels kWidth4{ScanPassAvx2, ScanReachAvx2};
  if (geom::SimdKernelEnabled()) return kWidth4;
#endif
  return kWidth2;
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

  // The scan's per-node rows are padded to `stride` lanes (rod_scan.h).
  const size_t stride = (n + kScanPad - 1) / kScanPad * kScanPad;
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
  // node also keeps summaries of its weight row: the largest weight M_i,
  // the sum of squares Q_i and the dot product with the lower bound, each
  // summed in axis order, and r_ik = Q_i - w_ik^2 for every axis. All of
  // them are rewritten only for the node that receives a unit. ---
  Rng rng(options.seed);
  Matrix node_coeffs(dims, stride);
  Matrix node_weight(dims, stride);
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

  // A table fixed for the run (DESIGN §9.6): f_ik = (1/l_k)(1/share_i), so
  // the scan approximates a candidate weight with one multiply.
  bool tables_in_range = true;
  for (size_t k = 0; k < dims; ++k) {
    tables_in_range &=
        total_coeffs[k] >= kTableMin && total_coeffs[k] <= kTableMax;
  }
  for (size_t i = 0; i < n; ++i) tables_in_range &= cap_share[i] >= kTableMin;
  const double class_one_limit = 1.0 + kClassITolerance;
  Vector inv_share(n);
  for (size_t i = 0; i < n; ++i) inv_share[i] = 1.0 / cap_share[i];
  Matrix inv_weight(dims, stride);
  for (size_t k = 0; k < dims; ++k) {
    const double inv_total = 1.0 / total_coeffs[k];
    for (size_t i = 0; i < n; ++i) {
      inv_weight(k, i) = tables_in_range
                             ? inv_total * inv_share[i]
                             : std::numeric_limits<double>::quiet_NaN();
    }
  }

  // Pad lanes keep M = +inf and NaN sums (rod_scan.h).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Vector row_max(stride, kInfinity), row_sum_sq(stride, kNaN);
  Vector row_lb_dot(stride, 0.0);
  Matrix rest_sq(dims, stride, kNaN);
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
    for (size_t k = 0; k < dims; ++k) {
      rest_sq(k, i) = sum_sq - node_weight(k, i) * node_weight(k, i);
    }
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
    Vector inv_cap(inv_share);
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

  // The scan's per-unit inputs (the loaded axes and their constants) and
  // per-node outputs: the ranking interval [lo, hi] and the Class I flag.
  const ScanKernels& kernels = SelectScanKernels();
  std::vector<size_t> loaded_buf(dims);
  Vector coeff_buf(dims), lb_buf(dims);
  Vector lo(stride), hi(stride);
  std::vector<int64_t> cls(stride), members(stride), all_nodes(stride, 0);
  std::fill(all_nodes.begin(), all_nodes.begin() + n, -1);
  std::vector<size_t> class_one_nodes, colocated(n, 0);
  std::vector<size_t> counts(options.mode == RodOptions::Mode::kVolumeGreedy
                                 ? n
                                 : 0);
  ScanArgs args;
  args.stride = stride;
  args.loaded = loaded_buf.data();
  args.coeff = coeff_buf.data();
  args.lb = has_lb ? lb_buf.data() : nullptr;
  auto table = [&](Matrix& t) { return dims > 0 ? &t(0, 0) : nullptr; };
  args.node_coeffs = table(node_coeffs);
  args.inv_weight = table(inv_weight);
  args.weight = table(node_weight);
  args.rest_sq = table(rest_sq);
  args.row_sum_sq = row_sum_sq.data();
  args.row_max = row_max.data();
  args.row_lb_dot = row_lb_dot.data();
  args.class_one_limit = class_one_limit;
  args.sure_in_limit = class_one_limit * (1.0 - kClassIBand);
  args.sure_out_limit = class_one_limit * (1.0 + kClassIBand);
  // DESIGN §9.6 derives both from eps' = (3D + 18) u, the first-order bound
  // on how far a sum or a dot product of the tables may stray from the
  // exact row's: a sum's interval is s (1 +- eps) with eps = 2 (eps' + 6 u),
  // twice what excluding a node needs, and a lower-bound key's margin
  // coefficient is 2 (3 eps' + 8 u).
  args.sum_eps = static_cast<double>(6 * dims + 48) * kUnitRoundoff;
  args.lb_margin = static_cast<double>(18 * dims + 124) * kUnitRoundoff;
  args.lb_abs_sum = lb_abs_sum;
  args.lo = lo.data();
  args.hi = hi.data();
  args.cls = cls.data();

  for (size_t j : order) {
    size_t num_loaded = 0;
    for (size_t k = 0; k < dims; ++k) {
      const double c = op_coeffs(j, k);
      loaded_buf[num_loaded] = k;
      coeff_buf[num_loaded] = c;
      if (has_lb) lb_buf[num_loaded] = normalized_lower_bound[k];
      num_loaded += c != 0.0;
    }
    args.num_loaded = num_loaded;
    const ScanFloors floors = kernels.pass(args);

    // The exact weight of node i's candidate row on loaded axis q, as the
    // row-major scan divides it.
    auto exact_weight = [&](size_t q, size_t i) {
      const size_t k = loaded_buf[q];
      return (node_coeffs(k, i) + coeff_buf[q]) / total_coeffs[k] /
             cap_share[i];
    };
    // PlaneDistance / PlaneDistanceFrom of node i's candidate row, summed
    // in axis order as Norm2 and Dot do.
    auto plane_distance = [&](size_t i) {
      double sq = 0.0, dot = 0.0;
      size_t q = 0;
      for (size_t k = 0; k < dims; ++k) {
        double w = node_weight(k, i);
        if (q < num_loaded && loaded_buf[q] == k) w = exact_weight(q++, i);
        sq += w * w;
        if (has_lb) dot += w * normalized_lower_bound[k];
      }
      // Without a lower bound dot is 0 and 1 - dot is exactly 1.
      const double norm = std::sqrt(sq);
      return norm == 0.0 ? kInfinity : (1.0 - dot) / norm;
    };
    // The largest weight of node i's candidate row.
    auto candidate_max = [&](size_t i) {
      double max_w = row_max[i];
      for (size_t q = 0; q < num_loaded; ++q) {
        max_w = std::max(max_w, exact_weight(q, i));
      }
      return max_w;
    };
    // The first member node with the largest plane distance, as a scan
    // that starts from the first member and takes a strictly larger value
    // would pick it (so a NaN there wins, and a NaN elsewhere never does).
    // `floor` is the largest lower end over the members. Only members
    // whose interval reaches it can be that node, and a node that is alone
    // there needs no exact score.
    auto argmax_pd = [&](const int64_t* member, double floor) {
      size_t last = 0;
      if (kernels.reach(stride, member, hi.data(), floor, &last) == 1) {
        return last;
      }
      size_t head = 0;
      while (member[head] == 0) ++head;
      size_t best = n;
      double best_pd = 0.0;
      for (size_t i = head; i < n; ++i) {
        if (member[i] == 0 || hi[i] < floor) continue;
        const double pd = plane_distance(i);
        if (best == n ? i == head || !std::isnan(pd) : pd > best_pd) {
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
        double floor = -kInfinity;
        for (size_t i = 0; i < n; ++i) {
          members[i] = counts[i] == best_count ? -1 : 0;
          if (members[i] != 0) floor = std::max(floor, lo[i]);
        }
        selected = argmax_pd(members.data(), floor);
        break;
      }
      case RodOptions::Mode::kMmpdOnly:
        selected = argmax_pd(all_nodes.data(), floors.all);
        break;
      case RodOptions::Mode::kMmadOnly: {
        // Pure axis balancing: minimize the worst per-axis weight, i.e.
        // keep every axis intercept 1/w_ik as large as possible.
        double best_max = candidate_max(0);
        for (size_t i = 1; i < n; ++i) {
          const double max_w = candidate_max(i);
          if (max_w < best_max) {
            selected = i;
            best_max = max_w;
          }
        }
        break;
      }
      case RodOptions::Mode::kCombined: {
        // Class I means no candidate weight above 1 + tolerance. The scan
        // decided it for every node outside the band around the limit; the
        // exact weights decide the rest.
        size_t num_class_one = floors.num_class_one;
        double class_one_floor = floors.class_one;
        for (size_t i = 0; floors.num_uncertain > 0 && i < n; ++i) {
          if (cls[i] != 1) continue;
          bool class_one = true;
          for (size_t q = 0; q < num_loaded; ++q) {
            class_one &= !(exact_weight(q, i) > class_one_limit);
          }
          cls[i] = class_one ? -1 : 0;
          if (!class_one) continue;
          ++num_class_one;
          class_one_floor = std::max(class_one_floor, lo[i]);
        }
        if (num_class_one == 0) {
          // Class II step: MMPD — maximize the candidate plane distance.
          selected = argmax_pd(all_nodes.data(), floors.all);
          break;
        }
        if (options.tie_break ==
            RodOptions::ClassITieBreak::kMaxPlaneDistance) {
          selected = argmax_pd(cls.data(), class_one_floor);
          break;
        }
        class_one_nodes.clear();
        for (size_t i = 0; i < n; ++i) {
          if (cls[i] != 0) class_one_nodes.push_back(i);
        }
        switch (options.tie_break) {
          case RodOptions::ClassITieBreak::kMaxPlaneDistance:
            break;  // handled above
          case RodOptions::ClassITieBreak::kRandom:
            selected = class_one_nodes[rng.NextIndex(class_one_nodes.size())];
            break;
          case RodOptions::ClassITieBreak::kFirst:
            selected = class_one_nodes[0];
            break;
          case RodOptions::ClassITieBreak::kMinMaxWeight: {
            selected = class_one_nodes[0];
            double best_max = candidate_max(selected);
            for (size_t i : class_one_nodes) {
              const double max_w = candidate_max(i);
              if (max_w < best_max) {
                selected = i;
                best_max = max_w;
              }
            }
            break;
          }
          case RodOptions::ClassITieBreak::kMinCrossArcs: {
            // Count already-placed dataflow neighbors of j per node; the
            // node with the most co-located neighbors creates the fewest
            // new inter-node arcs. Ties fall back to plane distance.
            const std::vector<size_t>& neighbors = (*unit_neighbors)[j];
            for (size_t nb : neighbors) {
              if (nb < m && assigned[nb]) ++colocated[assignment[nb]];
            }
            size_t most = 0;
            for (size_t i : class_one_nodes) {
              most = std::max(most, colocated[i]);
            }
            std::fill(members.begin(), members.end(), 0);
            double floor = -kInfinity;
            for (size_t i : class_one_nodes) {
              if (colocated[i] != most) continue;
              members[i] = -1;
              floor = std::max(floor, lo[i]);
            }
            selected = argmax_pd(members.data(), floor);
            for (size_t nb : neighbors) {
              if (nb < m && assigned[nb]) colocated[assignment[nb]] = 0;
            }
            break;
          }
        }
        break;
      }
    }

    assignment[j] = selected;
    assigned[j] = true;
    if (volume_ctx != nullptr) volume_ctx->Commit(selected);
    // The new weights of the selected node are its exact candidate
    // weights.
    for (size_t q = 0; q < num_loaded; ++q) {
      const size_t k = loaded_buf[q];
      node_weight(k, selected) = exact_weight(q, selected);
      node_coeffs(k, selected) += coeff_buf[q];
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
