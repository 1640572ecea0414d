// Copyright (c) the ROD reproduction authors.
//
// The Resilient Operator Distribution algorithm (paper §5, Figure 10), with
// the §6.1 lower-bound extension and the ablation switches DESIGN.md calls
// out (operator ordering, Class-I tie-break, MMAD-only / MMPD-only modes).

#ifndef ROD_PLACEMENT_ROD_H_
#define ROD_PLACEMENT_ROD_H_

#include <cstdint>

#include "common/matrix.h"
#include "common/status.h"
#include "geometry/feasible_set.h"
#include "placement/plan.h"
#include "query/load_model.h"
#include "query/query_graph.h"

namespace rod::place {

/// Configuration of one ROD run.
struct RodOptions {
  /// How to pick among Class I nodes (all of which leave the attainable
  /// feasible set untouched at this step — paper §5.2: "a random node can
  /// be selected or we can choose the destination node using some other
  /// criteria").
  enum class ClassITieBreak {
    kMaxPlaneDistance,  ///< Greedy-balanced: keep the largest candidate
                        ///< plane distance (deterministic default).
    kRandom,            ///< The paper's random choice (uses `seed`).
    kMinCrossArcs,      ///< Minimize new inter-node arcs (needs `graph`;
                        ///< the paper's data-communication criterion).
    kMinMaxWeight,      ///< Keep the candidate's largest per-stream weight
                        ///< smallest (pure MMAD balancing inside Class I).
    kFirst,             ///< Lowest node id (degenerate; for ablation).
  };

  /// Heuristic composition (ablation; the paper's algorithm is kCombined).
  enum class Mode {
    kCombined,  ///< Class I/II logic: MMAD while possible, then MMPD.
    kMmadOnly,  ///< Always minimize the candidate maximum weight
                ///< (pure axis-distance balancing, §4.1).
    kMmpdOnly,  ///< Always maximize the candidate plane distance (§4.2).
    kVolumeGreedy,  ///< Maximize the resulting feasible-set sample count
                    ///< directly (Monte-Carlo over `volume`'s sample set;
                    ///< ties fall back to plane distance). Candidate counts
                    ///< come from the DeltaVolumeContext; `delta_eval`
                    ///< switches incremental vs full scoring, which are
                    ///< bit-identical by construction.
  };

  ClassITieBreak tie_break = ClassITieBreak::kMaxPlaneDistance;
  Mode mode = Mode::kCombined;

  /// Sampling configuration of Mode::kVolumeGreedy (sample set, count,
  /// scoring parallelism). Ignored by the other modes.
  geom::VolumeOptions volume;

  /// Mode::kVolumeGreedy only: score candidates incrementally from the
  /// cached per-sample feasibility state (true) or by re-testing every
  /// node row per sample (false). Placements are identical either way;
  /// the toggle exists to prove it and to measure the speedup.
  bool delta_eval = true;

  /// Sort operators by ||l^o_j||_2 before assignment (phase 1). Disabling
  /// (or ascending order) is exposed for the ordering ablation.
  bool sort_operators = true;
  bool sort_ascending = false;

  /// Known lower bound B on the *physical* input stream rates (§6.1), size
  /// = number of system inputs; empty means B = 0 (no knowledge). Plane
  /// distances are then measured from the normalized image of B.
  Vector lower_bound;

  /// Seed for ClassITieBreak::kRandom.
  uint64_t seed = 0x20d5eedULL;
};

/// Runs ROD on raw matrices: `op_coeffs` is the (m x D) load-coefficient
/// matrix of the units to place (operators or clusters), `total_coeffs`
/// the per-variable totals l_k (must all be positive), `system` the
/// cluster. `normalized_lower_bound`, if non-empty, is the lower-bound
/// point already mapped into normalized coordinates. `fixed_assignment`,
/// if non-null, pins units whose entry is a valid node index and places
/// only the rest (incremental mode; see repair.h).
///
/// This is the building block; most callers use the LoadModel overload.
Result<Placement> RodPlaceMatrix(const Matrix& op_coeffs,
                                 std::span<const double> total_coeffs,
                                 const SystemSpec& system,
                                 const RodOptions& options = {},
                                 std::span<const double> normalized_lower_bound = {},
                                 const std::vector<std::vector<size_t>>*
                                     unit_neighbors = nullptr,
                                 const std::vector<size_t>* fixed_assignment =
                                     nullptr);

/// Runs ROD for a query graph's load model. `graph` is only required for
/// ClassITieBreak::kMinCrossArcs. `options.lower_bound`, when set, is given
/// in physical rates over the *system inputs*; auxiliary (linearized)
/// variables get lower bound 0.
Result<Placement> RodPlace(const query::LoadModel& model,
                           const SystemSpec& system,
                           const RodOptions& options = {},
                           const query::QueryGraph* graph = nullptr);

}  // namespace rod::place

#endif  // ROD_PLACEMENT_ROD_H_
