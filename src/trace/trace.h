// Copyright (c) the ROD reproduction authors.
//
// Rate traces: piecewise-constant input-rate time series. The paper drives
// its experiments with three real Internet Traffic Archive traces (PKT,
// TCP, HTTP; Figure 2). Those are not redistributable, so this module
// provides statistically equivalent synthetic stand-ins — self-similar,
// bursty at every time-scale — via the b-model cascade (bmodel.h), plus
// the named presets used by the benchmarks. (A Pareto ON/OFF
// superposition, tests/onoff.h, cross-checks the Hurst estimator.)

#ifndef ROD_TRACE_TRACE_H_
#define ROD_TRACE_TRACE_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace rod::trace {

/// A rate time series: `rates[w]` is the average arrival rate
/// (tuples/second) during window `w` of width `window_sec`.
struct RateTrace {
  double window_sec = 1.0;
  std::vector<double> rates;

  size_t num_windows() const { return rates.size(); }
  double duration() const {
    return window_sec * static_cast<double>(rates.size());
  }

  /// Mean rate over the whole trace.
  double MeanRate() const;

  /// Population standard deviation of the per-window rates.
  double StdDevRate() const;

  /// Coefficient of variation (stddev / mean; 0 for a zero-mean trace) —
  /// the "std" annotated on the paper's Figure 2 after normalization.
  double CoefficientOfVariation() const;

  /// Rate in effect at absolute time `t` (clamps beyond the end).
  double RateAt(double t) const;

  /// Copy rescaled so the mean rate equals `target_mean` (shape, and hence
  /// burstiness, preserved). A zero-mean trace is returned unchanged.
  RateTrace ScaledToMean(double target_mean) const;

  /// Copy with mean 1 (the normalization of Figure 2).
  RateTrace Normalized() const { return ScaledToMean(1.0); }
};

/// The named trace presets standing in for the paper's Figure 2 workloads.
/// All are normalized to mean rate 1; scale with `ScaledToMean`. The
/// burstiness ordering matches the figure: TCP (connection arrivals) is the
/// most variable, PKT (packet arrivals) the least.
enum class TracePreset {
  kPkt,   ///< Wide-area packet trace: mild burstiness (cv ~ 0.2).
  kTcp,   ///< Wide-area TCP connection trace: strong burstiness (cv ~ 0.5).
  kHttp,  ///< HTTP request trace: intermediate burstiness (cv ~ 0.35).
};

/// Returns the canonical name of a preset ("PKT", "TCP", "HTTP").
const char* TracePresetName(TracePreset preset);

/// Generates a normalized synthetic trace for `preset` with `num_windows`
/// windows of `window_sec` seconds (num_windows is rounded up to the next
/// power of two internally and truncated back). Deterministic given `rng`.
RateTrace GeneratePreset(TracePreset preset, size_t num_windows,
                         double window_sec, Rng& rng);

/// Deterministic sinusoidal rate series — the paper's medium/long-term
/// variations ("closing of a stock market at the end of a business day,
/// temperature dropping during night time"): rate(t) = mean * (1 +
/// relative_amplitude * sin(2 pi t / period + phase)), clamped at 0.
struct SinusoidOptions {
  size_t num_windows = 600;
  double window_sec = 1.0;
  double mean = 1.0;
  double relative_amplitude = 0.5;  ///< Fraction of mean; may exceed 1.
  double period = 300.0;            ///< Seconds per cycle.
  double phase = 0.0;               ///< Radians.
};

/// Generates the sinusoid described by `options`.
RateTrace GenerateSinusoid(const SinusoidOptions& options);

}  // namespace rod::trace

#endif  // ROD_TRACE_TRACE_H_
