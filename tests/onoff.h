// Copyright (c) the ROD reproduction authors.
//
// Superposed Pareto ON/OFF sources: the classical construction of
// self-similar network traffic (Willinger et al., "Self-Similarity Through
// High-Variability"). Aggregating many sources whose ON/OFF period lengths
// are heavy-tailed (Pareto shape 1 < alpha < 2) yields long-range-dependent
// arrival series with Hurst parameter H = (3 - alpha) / 2. The traces of
// the benches come from the b-model (trace/bmodel.h); this generator lives
// with its tests (trace_test, hurst_test), where it is a second,
// independent self-similar source for the Hurst estimator.

#ifndef ROD_TESTS_ONOFF_H_
#define ROD_TESTS_ONOFF_H_

#include "common/random.h"
#include "trace/trace.h"

namespace rod::trace {

/// ON/OFF superposition parameters.
struct OnOffOptions {
  size_t num_sources = 32;   ///< Independent sources aggregated.
  size_t num_windows = 4096; ///< Output series length.
  double window_sec = 1.0;   ///< Output window width.

  /// Pareto shape of the ON / OFF period lengths; 1 < alpha < 2 gives
  /// self-similarity (H = (3 - alpha)/2, so alpha = 1.4 -> H = 0.8).
  double alpha_on = 1.4;
  double alpha_off = 1.4;

  /// Mean ON / OFF period lengths (seconds).
  double mean_on = 2.0;
  double mean_off = 6.0;

  /// Emission rate of one source while ON (tuples/second).
  double peak_rate = 1.0;
};

/// Generates the aggregate rate series of `options.num_sources` Pareto
/// ON/OFF sources. Deterministic given `rng`'s state.
RateTrace GenerateOnOff(const OnOffOptions& options, Rng& rng);

}  // namespace rod::trace

#endif  // ROD_TESTS_ONOFF_H_
