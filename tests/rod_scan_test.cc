// Oracle test for ROD's candidate scan. RodPlaceMatrix keeps node state
// axis by axis with per-node row summaries, touches only the axes a unit
// loads, and scores exactly only the nodes whose approximate plane
// distance is within a rounding margin of the best; the reference below is
// the earlier row-major scan, which rebuilds every node's candidate weight
// row and scores it with PlaneDistance / PlaneDistanceFrom. Both must pick
// the same node for every unit, in every mode and tie-break, so the
// placements are equal. Every case runs on both widths of the scan: the
// width-2 pass and, where the CPU has AVX2, the width-4 one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "geometry/hyperplane.h"
#include "geometry/sample_cache.h"
#include "geometry/simd_kernel.h"
#include "placement/delta_volume.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rod::place {
namespace {

constexpr double kClassITolerance = 1e-9;

/// Runs `body` once with the scan's SIMD dispatch off (width 2) and once
/// with it on (width 4 on an AVX2 CPU), then restores the dispatch state.
template <typename Body>
void OnBothScanWidths(Body body) {
  const bool before = geom::SimdKernelEnabled();
  for (const bool simd : {false, true}) {
    geom::SetSimdKernelEnabled(simd);
    SCOPED_TRACE(std::string("scan dispatch ") + geom::ActiveSimdIsa());
    body();
  }
  geom::SetSimdKernelEnabled(before);
}

struct Candidate {
  bool class_one = false;
  double plane_distance = 0;
  double max_weight = 0;
};

/// The row-major scan: for each unit, each node's candidate weight row
/// `(l_ik + l_jk) / l_k / share_i` is built in full and scored, then a node
/// is selected. Inputs are assumed valid (the tests build them so).
std::vector<size_t> ReferenceRodPlaceMatrix(
    const Matrix& op_coeffs, std::span<const double> total_coeffs,
    const SystemSpec& system, const RodOptions& options,
    std::span<const double> normalized_lower_bound,
    const std::vector<std::vector<size_t>>* unit_neighbors,
    const std::vector<size_t>* fixed_assignment) {
  const size_t m = op_coeffs.rows();
  const size_t dims = op_coeffs.cols();
  const size_t n = system.num_nodes();
  const double total_capacity = system.TotalCapacity();
  Vector cap_share(n);
  for (size_t i = 0; i < n; ++i) {
    cap_share[i] = system.capacities[i] / total_capacity;
  }

  std::vector<size_t> order;
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

  Rng rng(options.seed);
  Matrix node_coeffs(n, dims);
  std::vector<size_t> assignment(m, 0);
  std::vector<bool> assigned(m, false);
  if (fixed_assignment != nullptr) {
    for (size_t j = 0; j < m; ++j) {
      const size_t node = (*fixed_assignment)[j];
      if (node >= n) continue;
      assignment[j] = node;
      assigned[j] = true;
      for (size_t k = 0; k < dims; ++k) {
        node_coeffs(node, k) += op_coeffs(j, k);
      }
    }
  }
  Vector w(dims);

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
  std::vector<Candidate> cand(n);
  std::vector<size_t> class_one_nodes;
  std::vector<size_t> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  for (size_t j : order) {
    for (size_t i = 0; i < n; ++i) {
      bool class_one = true;
      double max_weight = 0.0;
      for (size_t k = 0; k < dims; ++k) {
        w[k] = (node_coeffs(i, k) + op_coeffs(j, k)) / total_coeffs[k] /
               cap_share[i];
        max_weight = std::max(max_weight, w[k]);
        if (w[k] > 1.0 + kClassITolerance) class_one = false;
      }
      const double pd =
          has_lb ? geom::PlaneDistanceFrom(w, normalized_lower_bound)
                 : geom::PlaneDistance(w);
      cand[i] = Candidate{class_one, pd, max_weight};
    }
    class_one_nodes.clear();
    for (size_t i = 0; i < n; ++i) {
      if (cand[i].class_one) class_one_nodes.push_back(i);
    }

    size_t selected = 0;
    auto argmax_pd = [&](const std::vector<size_t>& nodes) {
      size_t best = nodes[0];
      for (size_t i : nodes) {
        if (cand[i].plane_distance > cand[best].plane_distance) best = i;
      }
      return best;
    };

    switch (options.mode) {
      case RodOptions::Mode::kVolumeGreedy: {
        volume_ctx->LoadUnit(j);
        size_t best_count = volume_ctx->ScoreCandidate(0, options.delta_eval);
        for (size_t i = 1; i < n; ++i) {
          const size_t count =
              volume_ctx->ScoreCandidate(i, options.delta_eval);
          if (count > best_count ||
              (count == best_count &&
               cand[i].plane_distance > cand[selected].plane_distance)) {
            best_count = count;
            selected = i;
          }
        }
        break;
      }
      case RodOptions::Mode::kMmpdOnly:
        selected = argmax_pd(all_nodes);
        break;
      case RodOptions::Mode::kMmadOnly:
        for (size_t i = 1; i < n; ++i) {
          if (cand[i].max_weight < cand[selected].max_weight) selected = i;
        }
        break;
      case RodOptions::Mode::kCombined:
        if (class_one_nodes.empty()) {
          selected = argmax_pd(all_nodes);
          break;
        }
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
              if (cand[i].max_weight < cand[selected].max_weight) selected = i;
            }
            break;
          case RodOptions::ClassITieBreak::kMinCrossArcs: {
            std::vector<size_t> colocated(n, 0);
            for (size_t nb : (*unit_neighbors)[j]) {
              if (nb < m && assigned[nb]) ++colocated[assignment[nb]];
            }
            selected = class_one_nodes[0];
            for (size_t i : class_one_nodes) {
              if (colocated[i] > colocated[selected] ||
                  (colocated[i] == colocated[selected] &&
                   cand[i].plane_distance > cand[selected].plane_distance)) {
                selected = i;
              }
            }
            break;
          }
        }
        break;
    }

    assignment[j] = selected;
    assigned[j] = true;
    if (volume_ctx != nullptr) volume_ctx->Commit(selected);
    for (size_t k = 0; k < dims; ++k) {
      node_coeffs(selected, k) += op_coeffs(j, k);
    }
  }
  return assignment;
}

constexpr RodOptions::Mode kModes[] = {
    RodOptions::Mode::kCombined, RodOptions::Mode::kMmadOnly,
    RodOptions::Mode::kMmpdOnly, RodOptions::Mode::kVolumeGreedy};
constexpr RodOptions::ClassITieBreak kTieBreaks[] = {
    RodOptions::ClassITieBreak::kMaxPlaneDistance,
    RodOptions::ClassITieBreak::kRandom,
    RodOptions::ClassITieBreak::kMinCrossArcs,
    RodOptions::ClassITieBreak::kMinMaxWeight,
    RodOptions::ClassITieBreak::kFirst};

/// One randomized RodPlaceMatrix input.
struct ScanCase {
  Matrix op_coeffs;
  Vector totals;
  SystemSpec system;
  Vector lower_bound;  // normalized; empty for none
  std::vector<std::vector<size_t>> neighbors;
  std::vector<size_t> fixed;  // empty for none; >= n means "place me"
  std::string label;
};

/// Row shapes: every axis loaded, about half of them, exactly one, or
/// every row a rotation of one base vector. Rotated rows get equal
/// totals on every axis, so nodes holding rotated copies have weight rows
/// that are permutations of each other: their plane distances tie or
/// differ in the last bit, which is where a change in the order the axes
/// are summed would show.
enum class Fill { kDense, kHalf, kOneHot, kRotated };

/// `nodes`, when nonzero, replaces the drawn node count.
ScanCase RandomCase(uint64_t seed, size_t nodes = 0) {
  Rng rng(seed);
  const auto fill = static_cast<Fill>(seed % 4);
  const bool heterogeneous = (seed / 4) % 2 == 1;
  const bool discrete = rng.Bernoulli(0.5);
  const size_t dims = 1 + rng.NextIndex(12);
  const size_t drawn_nodes = 1 + rng.NextIndex(70);
  const size_t n = nodes > 0 ? nodes : drawn_nodes;
  const size_t m = 1 + rng.NextIndex(80);
  constexpr double kValues[] = {0.1, 0.2, 0.3, 0.7, 1.1};
  auto coeff = [&] {
    return discrete ? kValues[rng.NextIndex(5)] : rng.Uniform(0.05, 2.0);
  };

  ScanCase c;
  c.op_coeffs = Matrix(m, dims);
  Vector base(dims);
  for (double& v : base) v = coeff();
  for (size_t j = 0; j < m; ++j) {
    const size_t axis = rng.NextIndex(dims);  // one-hot axis or rotation
    for (size_t k = 0; k < dims; ++k) {
      switch (fill) {
        case Fill::kDense:
          c.op_coeffs(j, k) = coeff();
          break;
        case Fill::kHalf:
          if (rng.Bernoulli(0.5)) c.op_coeffs(j, k) = coeff();
          break;
        case Fill::kOneHot:
          if (k == axis) c.op_coeffs(j, k) = coeff();
          break;
        case Fill::kRotated:
          c.op_coeffs(j, k) = base[(k + axis) % dims];
          break;
      }
    }
  }
  // Every rate variable needs a positive total.
  c.totals.assign(dims, 0.0);
  for (size_t k = 0; k < dims; ++k) {
    for (size_t j = 0; j < m; ++j) c.totals[k] += c.op_coeffs(j, k);
    if (c.totals[k] == 0.0) {
      c.op_coeffs(k % m, k) = coeff();
      c.totals[k] = c.op_coeffs(k % m, k);
    }
  }
  if (fill == Fill::kRotated) {
    c.totals.assign(dims, *std::max_element(c.totals.begin(), c.totals.end()));
  }

  c.system = SystemSpec::Homogeneous(n);
  if (heterogeneous) {
    for (double& cap : c.system.capacities) cap = rng.Uniform(0.25, 4.0);
  }
  if (rng.Bernoulli(0.5)) {
    c.lower_bound.resize(dims);
    for (double& b : c.lower_bound) b = rng.Uniform(0.0, 0.5 / dims);
  }
  if (rng.Bernoulli(0.35)) {
    c.fixed.assign(m, n);
    for (size_t& node : c.fixed) {
      if (rng.Bernoulli(0.3)) node = rng.NextIndex(n);
    }
  }
  c.neighbors.resize(m);
  for (size_t j = 1; j < m; ++j) {
    const size_t parent = rng.NextIndex(j);
    c.neighbors[j].push_back(parent);
    c.neighbors[parent].push_back(j);
  }
  c.label = "seed " + std::to_string(seed) + " m " + std::to_string(m) +
            " n " + std::to_string(n) + " D " + std::to_string(dims) +
            " fill " + std::to_string(seed % 4) +
            (heterogeneous ? " hetero" : " homo") +
            (discrete ? " discrete" : " continuous") +
            (c.lower_bound.empty() ? "" : " lb") +
            (c.fixed.empty() ? "" : " pinned");
  return c;
}

/// RodPlaceMatrix against the reference on `c`, in every mode and
/// tie-break.
void ExpectReferencePlans(const ScanCase& c, uint64_t seed) {
  const std::vector<size_t>* fixed = c.fixed.empty() ? nullptr : &c.fixed;
  for (const auto mode : kModes) {
    for (const auto tie_break : kTieBreaks) {
      RodOptions options;
      options.mode = mode;
      options.tie_break = tie_break;
      options.seed = seed;
      options.volume.num_samples = 256;
      auto plan = RodPlaceMatrix(c.op_coeffs, c.totals, c.system, options,
                                 c.lower_bound, &c.neighbors, fixed);
      ASSERT_TRUE(plan.ok()) << c.label << ": " << plan.status().ToString();
      EXPECT_EQ(plan->assignment(),
                ReferenceRodPlaceMatrix(c.op_coeffs, c.totals, c.system,
                                        options, c.lower_bound, &c.neighbors,
                                        fixed))
          << c.label << " mode " << static_cast<int>(mode) << " tie-break "
          << static_cast<int>(tie_break);
    }
  }
}

TEST(RodScanTest, MatchesRowMajorReferenceOnRandomCases) {
  OnBothScanWidths([] {
    constexpr uint64_t kCases = 120;
    for (uint64_t seed = 1; seed <= kCases; ++seed) {
      ExpectReferencePlans(RandomCase(seed), seed);
    }
    // 1-9 nodes, four fills each, so both widths meet every tail of a
    // padded node row.
    for (size_t nodes = 1; nodes <= 9; ++nodes) {
      for (uint64_t fill = 0; fill < 4; ++fill) {
        const uint64_t seed = kCases + 4 * nodes + fill;
        ExpectReferencePlans(RandomCase(seed, nodes), seed);
      }
    }
  });
}

/// Shapes at the edge of the scan's rounding margin (DESIGN §9.6):
/// kIdentical gives every unit the same row, so nodes holding the same
/// count of units have identical candidate rows and every plane-distance
/// tie is exact; kTightBound sets a lower bound whose entries sum to 1
/// within 1e-3 (or exactly), so late in the run 1 - B.w is near 0 or
/// negative, and in half the cases makes every row a rotation of one base
/// vector under equal totals and an even bound, so candidate plane
/// distances tie in exact arithmetic and differ only by rounding; kTiny
/// scales every coefficient near 1e-160 against totals of 1, so the
/// squared weights underflow and most plane distances are inf.
enum class Edge { kIdentical, kTightBound, kTiny };

ScanCase EdgeCase(uint64_t seed) {
  Rng rng(seed);
  const auto edge = static_cast<Edge>(seed % 3);
  const size_t dims = 1 + rng.NextIndex(10);
  const size_t n = 1 + rng.NextIndex(64);
  const size_t m = 1 + rng.NextIndex(96);
  ScanCase c;
  c.op_coeffs = Matrix(m, dims);
  Vector base(dims);
  for (double& v : base) v = rng.Bernoulli(0.5) ? rng.Uniform(0.05, 2.0) : 0.0;
  base[rng.NextIndex(dims)] = rng.Uniform(0.05, 2.0);
  constexpr double kTinyScales[] = {1e-160, 1e-162, 1e-165};
  const double tiny = kTinyScales[rng.NextIndex(3)];
  const bool rotated = edge == Edge::kTightBound && rng.Bernoulli(0.5);
  for (size_t j = 0; j < m; ++j) {
    const size_t shift = rng.NextIndex(dims);
    for (size_t k = 0; k < dims; ++k) {
      switch (edge) {
        case Edge::kIdentical:
          c.op_coeffs(j, k) = base[k];
          break;
        case Edge::kTightBound:
          c.op_coeffs(j, k) = rotated             ? base[(k + shift) % dims]
                              : rng.Bernoulli(0.6) ? rng.Uniform(0.05, 2.0)
                                                   : 0.0;
          break;
        case Edge::kTiny:
          c.op_coeffs(j, k) = rng.Bernoulli(0.6) ? tiny * rng.Uniform(0.5, 2.0)
                                                 : 0.0;
          break;
      }
    }
  }
  c.totals.assign(dims, 0.0);
  for (size_t k = 0; k < dims; ++k) {
    for (size_t j = 0; j < m; ++j) c.totals[k] += c.op_coeffs(j, k);
    if (c.totals[k] == 0.0) {
      c.op_coeffs(k % m, k) = edge == Edge::kTiny ? tiny : 0.5;
      c.totals[k] = c.op_coeffs(k % m, k);
    }
  }
  if (edge == Edge::kTiny) c.totals.assign(dims, 1.0);
  if (rotated) {
    c.totals.assign(dims, *std::max_element(c.totals.begin(), c.totals.end()));
  }

  c.system = SystemSpec::Homogeneous(n);
  if (edge != Edge::kIdentical && !rotated && rng.Bernoulli(0.5)) {
    for (double& cap : c.system.capacities) cap = rng.Uniform(0.25, 4.0);
  }
  if (edge == Edge::kTightBound || rng.Bernoulli(0.3)) {
    constexpr double kSums[] = {0.999, 1.0, 1.001, 1.0 - 1e-12};
    const double sum = edge == Edge::kTightBound ? kSums[rng.NextIndex(4)]
                                                 : rng.Uniform(0.0, 0.5);
    Vector share(dims, 1.0);
    if (!rotated) {
      for (double& v : share) v = rng.Uniform(0.5, 1.5);
    }
    const double share_sum = Sum(share);
    c.lower_bound.resize(dims);
    for (size_t k = 0; k < dims; ++k) {
      c.lower_bound[k] = sum * share[k] / share_sum;
    }
  }
  if (rng.Bernoulli(0.25)) {
    c.fixed.assign(m, n);
    for (size_t& node : c.fixed) {
      if (rng.Bernoulli(0.3)) node = rng.NextIndex(n);
    }
  }
  c.neighbors.resize(m);
  for (size_t j = 1; j < m; ++j) {
    const size_t parent = rng.NextIndex(j);
    c.neighbors[j].push_back(parent);
    c.neighbors[parent].push_back(j);
  }
  c.label = "edge seed " + std::to_string(seed) + " kind " +
            std::to_string(seed % 3) + " m " + std::to_string(m) + " n " +
            std::to_string(n) + " D " + std::to_string(dims) +
            (rotated ? " rotated" : "") +
            (c.lower_bound.empty() ? "" : " lb") +
            (c.fixed.empty() ? "" : " pinned");
  return c;
}

TEST(RodScanTest, MatchesRowMajorReferenceAtTheRoundingMargin) {
  OnBothScanWidths([] {
    constexpr uint64_t kCases = 90;
    for (uint64_t seed = 1; seed <= kCases; ++seed) {
      ExpectReferencePlans(EdgeCase(seed), seed);
    }
  });
}

/// Cases at the scan's Class I band (DESIGN §9.6). Each node holds one
/// pinned unit, and one unit is left to place. On one axis it brings a
/// target node's load to x = l_ik + c exactly at L_ik = (1 + tol) l_k
/// share_i, where the candidate weight meets the Class I limit, or a few
/// ulps either side of it, or of the band's edges L_ik (1 +- 2^-40). The
/// other nodes are clearly inside Class I or clearly outside it, so the
/// target's class decides the Class I list. Units load one axis or, in
/// odd seeds, every axis; shares are homogeneous or not.
ScanCase BandCase(uint64_t seed) {
  Rng rng(seed);
  const bool dense = seed % 2 == 1;
  const bool heterogeneous = (seed / 2) % 2 == 1;
  const int where = static_cast<int>(seed / 4 % 3);  // L, L(1-b), L(1+b)
  const int ulps = static_cast<int>(seed / 12 % 9) - 4;
  const size_t dims = 1 + rng.NextIndex(4);
  const size_t n = 2 + rng.NextIndex(8);
  ScanCase c;
  c.system = SystemSpec::Homogeneous(n);
  if (heterogeneous) {
    for (double& cap : c.system.capacities) cap = rng.Uniform(0.25, 4.0);
  }
  const double total_capacity = c.system.TotalCapacity();
  std::vector<double> share(n);
  double min_share = 1.0;
  for (size_t i = 0; i < n; ++i) {
    share[i] = c.system.capacities[i] / total_capacity;
    min_share = std::min(min_share, share[i]);
  }
  c.totals.resize(dims);
  for (double& total : c.totals) total = rng.Uniform(1.0, 4.0);
  const size_t m = n + 1;
  const size_t target = rng.NextIndex(n);
  const size_t axis = rng.NextIndex(dims);
  c.op_coeffs = Matrix(m, dims);
  c.fixed.assign(m, n);
  for (size_t i = 0; i < n; ++i) {
    c.fixed[i] = i;
    for (size_t k = 0; k < dims; ++k) {
      double weight = rng.Uniform(0.05, 0.6);
      if (i != target && rng.Bernoulli(0.5)) weight = rng.Uniform(1.2, 2.0);
      // The target's load on the axis is over half of x below, so x - l
      // and l + (x - l) are exact (Sterbenz).
      if (i == target && k == axis) weight = rng.Uniform(0.55, 0.9);
      c.op_coeffs(i, k) = weight * c.totals[k] * share[i];
    }
  }
  for (size_t k = 0; dense && k < dims; ++k) {
    c.op_coeffs(n, k) = rng.Uniform(0.01, 0.1) * c.totals[k] * min_share;
  }
  constexpr double kBand = 0x1p-40;
  const double bound = 1.0 + kClassITolerance;
  double x = bound * c.totals[axis] * share[target];
  if (where == 1) x *= 1.0 - kBand;
  if (where == 2) x *= 1.0 + kBand;
  for (int u = 0; u < ulps; ++u) x = std::nextafter(x, 2 * x);
  for (int u = 0; u > ulps; --u) x = std::nextafter(x, 0.0);
  const double l = c.op_coeffs(target, axis);
  const double coeff = x - l;
  EXPECT_EQ(l + coeff, x) << "band seed " << seed;
  c.op_coeffs(n, axis) = coeff;
  c.neighbors.resize(m);
  for (size_t j = 1; j < m; ++j) {
    const size_t parent = rng.NextIndex(j);
    c.neighbors[j].push_back(parent);
    c.neighbors[parent].push_back(j);
  }
  c.label = "band seed " + std::to_string(seed) + " n " + std::to_string(n) +
            " D " + std::to_string(dims) + " where " + std::to_string(where) +
            " ulps " + std::to_string(ulps) + (dense ? " dense" : " one-axis") +
            (heterogeneous ? " hetero" : " homo");
  return c;
}

TEST(RodScanTest, MatchesRowMajorReferenceAtTheClassIBand) {
  OnBothScanWidths([] {
    constexpr uint64_t kCases = 1080;  // 2 x 2 x 3 x 9 shapes, 10 times
    for (uint64_t seed = 1; seed <= kCases; ++seed) {
      ExpectReferencePlans(BandCase(seed), seed);
    }
  });
}

TEST(RodScanTest, MatchesRowMajorReferenceOnPlaceScaleGraphs) {
  // The shape of the place_scale benchmark: 10 random trees of 1,000
  // operators each, on 256 homogeneous nodes. Every operator loads
  // exactly one stream. The second graph also runs with a lower bound.
  const SystemSpec system = SystemSpec::Homogeneous(256);
  for (const uint64_t seed : {1u, 2u}) {
    query::GraphGenOptions gen;
    gen.num_input_streams = 10;
    gen.ops_per_tree = 1000;
    Rng rng(seed);
    auto model = query::BuildLoadModel(query::GenerateRandomTrees(gen, rng));
    ASSERT_TRUE(model.ok());
    ASSERT_EQ(model->op_coeffs().rows(), 10000u);
    const Vector lb = seed == 2 ? Vector(10, 0.01) : Vector();
    const RodOptions options;
    const std::vector<size_t> reference =
        ReferenceRodPlaceMatrix(model->op_coeffs(), model->total_coeffs(),
                                system, options, lb, nullptr, nullptr);
    OnBothScanWidths([&] {
      auto plan = RodPlaceMatrix(model->op_coeffs(), model->total_coeffs(),
                                 system, options, lb);
      ASSERT_TRUE(plan.ok());
      EXPECT_EQ(plan->assignment(), reference) << "graph seed " << seed;
    });
  }
}

}  // namespace
}  // namespace rod::place
