// Copyright (c) the ROD reproduction authors.
//
// The engine's incident phase summary before MetricsCollector's
// SummarizePhases, kept as a test oracle: each phase's latencies copied
// and std::sort-ed, the mean summed in ascending order, the percentiles
// by QuantileOfSorted. SummarizePhases radix-sorts the series in place
// instead and reads the run's percentiles off the sorted phases; its
// results must equal this path's bit for bit (metrics_test).

#ifndef ROD_TESTS_PHASE_ORACLE_H_
#define ROD_TESTS_PHASE_ORACLE_H_

#include <span>

#include "runtime/engine.h"

namespace rod::sim {

/// Percentile summary of one incident phase's latency samples, from a
/// sorted copy of them.
PhaseLatency OracleSummarizePhase(std::span<const double> samples);

}  // namespace rod::sim

#endif  // ROD_TESTS_PHASE_ORACLE_H_
