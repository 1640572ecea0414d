#include "phase_oracle.h"

#include <algorithm>
#include <vector>

#include "common/stats.h"

namespace rod::sim {

PhaseLatency OracleSummarizePhase(std::span<const double> samples) {
  PhaseLatency p;
  p.outputs = samples.size();
  if (samples.empty()) return p;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double x : sorted) sum += x;
  p.mean = sum / static_cast<double>(sorted.size());
  p.p50 = QuantileOfSorted(sorted, 0.50);
  p.p95 = QuantileOfSorted(sorted, 0.95);
  p.p99 = QuantileOfSorted(sorted, 0.99);
  return p;
}

}  // namespace rod::sim
