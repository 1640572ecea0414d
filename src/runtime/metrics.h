// Copyright (c) the ROD reproduction authors.
//
// Runtime measurement: end-to-end tuple latencies, per-node utilization
// (overall and per fixed window — the paper's Borealis feasibility probe
// deems a rate point feasible "if none of the nodes experience 100%
// utilization"), and saturation indicators.
//
// Latency collection has two modes. The default (reservoir = 0) keeps
// every sample, so percentiles are exact and the raw (latency, time)
// series is available — what tests and incident analysis want. With a
// positive reservoir size, only exact mean/max (Welford) plus a
// fixed-size deterministic reservoir are kept, making RecordOutput O(1)
// in memory regardless of output volume — what the engine hot path wants.

#ifndef ROD_RUNTIME_METRICS_H_
#define ROD_RUNTIME_METRICS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/stats.h"

namespace rod::sim {

/// How latency samples are retained (see file comment).
struct LatencyStatsOptions {
  /// 0: store every sample (exact percentiles). > 0: keep a
  /// deterministic uniform reservoir of this many samples per series.
  size_t reservoir = 0;

  /// Seed of the reservoir-replacement stream; ignored in exact mode.
  /// The retained set is a pure function of (reservoir, seed, sample
  /// order), so identical runs summarize identically.
  uint64_t seed = 0;
};

/// Latency distribution summary of one output series.
struct LatencySummary {
  size_t count = 0;  ///< Outputs observed (not the retained sample size).
  double mean = 0.0;  ///< Exact (streaming) regardless of mode.
  double max = 0.0;   ///< Exact (streaming) regardless of mode.
  double p50 = 0.0;   ///< Exact, or reservoir estimate.
  double p95 = 0.0;
  double p99 = 0.0;
  bool exact = true;  ///< False when percentiles come from a reservoir.
};

/// Collects measurements during one simulation run.
class MetricsCollector {
 public:
  /// `num_nodes` nodes, per-window utilization buckets of `window_sec`
  /// seconds over `duration` seconds of virtual time.
  MetricsCollector(size_t num_nodes, double window_sec, double duration,
                   LatencyStatsOptions stats = {});

  /// Records one output of sink operator `sink_op` with end-to-end latency
  /// `latency` seconds, completing at virtual time `completion_time` (the
  /// timestamp lets incident reports split latencies into pre-failure /
  /// recovery / post-recovery phases; timestamps are retained only in
  /// exact mode). Inline — one call per sink output on the engine's -O3
  /// hot path (as is RecordService below, one call per task completion).
  void RecordOutput(uint32_t sink_op, double latency,
                    double completion_time = 0.0) {
    total_stats_.Add(latency);
    total_samples_.Add(latency);
    if (exact()) output_times_.push_back(completion_time);
    if (sink_op >= sinks_.size()) GrowSinks(sink_op + 1);
    SinkAccumulator& acc = sinks_[sink_op];
    acc.stats.Add(latency);
    acc.samples.Add(latency);
  }

  /// Records one external input tuple.
  void RecordInput() { ++inputs_; }

  /// Accounts a service interval [start, end) on `node`, splitting the
  /// busy time across utilization windows.
  void RecordService(size_t node, double start, double end) {
    assert(node < node_busy_.size());
    assert(end >= start);
    node_busy_[node] += end - start;
    // Fast path: the interval fits one utilization window (service times
    // are micro-seconds, windows are seconds). `min(end, w_end) - cursor`
    // evaluates to exactly `end - start` here, so this adds the same
    // value the general loop below would.
    size_t w = static_cast<size_t>(start / window_sec_);
    if (w < window_busy_.rows() &&
        end <= static_cast<double>(w + 1) * window_sec_) {
      window_busy_(w, node) += end - start;
      return;
    }
    // Split the interval across utilization windows, stepping the index
    // itself: for a width such as 0.1 s, `w_end / window_sec_` can round
    // below w + 1. Service past the horizon is not booked.
    for (double cursor = start; cursor < end && w < window_busy_.rows();
         ++w) {
      const double w_end = static_cast<double>(w + 1) * window_sec_;
      window_busy_(w, node) += std::min(end, w_end) - cursor;
      cursor = w_end;
    }
  }

  size_t inputs() const { return inputs_; }
  size_t outputs() const { return total_stats_.count(); }

  /// True when every latency sample is retained (reservoir disabled).
  bool exact() const { return stats_options_.reservoir == 0; }

  /// Every recorded latency in output order. Exact mode only.
  const std::vector<double>& latencies() const { return total_samples_.samples(); }

  /// Completion time of each latency sample, parallel to latencies().
  /// Exact mode only (empty otherwise).
  const std::vector<double>& output_times() const { return output_times_; }

  /// Summary of all sink outputs (percentiles selected once per call).
  LatencySummary TotalLatency() const;

  /// Per-sink summaries, ordered by sink operator id.
  std::vector<std::pair<uint32_t, LatencySummary>> SinkSummaries() const;

  /// Retained latency samples of one sink (all of them in exact mode);
  /// empty for an unknown sink.
  const std::vector<double>& SinkSamples(uint32_t sink_op) const;

  /// Busy fraction of `node` over the whole run.
  double NodeUtilization(size_t node, double capacity_duration) const;

  /// Per-(window, node) busy fraction matrix (rows = windows).
  const Matrix& window_busy() const { return window_busy_; }
  double window_sec() const { return window_sec_; }

  /// Number of windows where some node's busy fraction reached
  /// `threshold` (default: effectively pegged).
  size_t OverloadedWindows(double threshold = 0.99) const;

  /// Largest per-node busy fraction within window `w`.
  double WindowMaxBusyFraction(size_t w) const;

  size_t num_windows() const { return window_busy_.rows(); }

 private:
  struct SinkAccumulator {
    RunningStats stats;
    ReservoirSampler samples;
  };

  /// Selects the percentiles in a copy of the retained samples held in
  /// summary_scratch_.
  LatencySummary Summarize(const RunningStats& stats,
                           const ReservoirSampler& samples) const;

  /// Cold tail of RecordOutput: extends the sink table to `count`
  /// operator ids, each with its own reservoir seed.
  void GrowSinks(size_t count);

  size_t inputs_ = 0;
  LatencyStatsOptions stats_options_;
  RunningStats total_stats_;
  ReservoirSampler total_samples_;
  std::vector<double> output_times_;  ///< Exact mode only.
  /// Indexed by operator id, up to the largest sink seen; an id with no
  /// outputs (not a sink, or a sink that never emitted) has count 0.
  std::vector<SinkAccumulator> sinks_;
  /// Summarize's selection buffer, reused for every series.
  mutable std::vector<double> summary_scratch_;
  Vector node_busy_;      ///< total busy seconds per node
  Matrix window_busy_;    ///< busy seconds per (window, node)
  double window_sec_;
  double duration_;
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_METRICS_H_
