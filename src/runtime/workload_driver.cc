#include "runtime/workload_driver.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace rod::sim {

ArrivalGenerator::ArrivalGenerator(trace::RateTrace trace, bool poisson,
                                   Rng* rng)
    : trace_(std::move(trace)), poisson_(poisson), rng_(rng) {
  assert(rng_ != nullptr);
  assert(trace_.window_sec > 0.0);
}

double ArrivalGenerator::NextArrival(double now) {
  // Walk windows from `now`, drawing the next gap at each window's rate;
  // if the gap overruns the window, restart the draw from the next window
  // (memorylessness makes this exact for Poisson; for deterministic
  // spacing it yields evenly spaced arrivals within each window).
  // The walk steps the window index itself: for a width such as 0.04 s,
  // `w_end / window_sec` can round below w + 1 and would never leave w.
  double t = std::max(now, 0.0);
  if (!(t < trace_.duration())) return std::numeric_limits<double>::infinity();
  for (size_t w = static_cast<size_t>(t / trace_.window_sec);
       w < trace_.rates.size(); ++w) {
    const double w_end = static_cast<double>(w + 1) * trace_.window_sec;
    const double rate = trace_.rates[w] * rate_multiplier_;
    if (rate > 0.0) {
      const double gap = poisson_ ? rng_->Exponential(rate) : 1.0 / rate;
      if (t + gap < w_end) return t + gap;
    }
    t = w_end;
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<std::vector<double>> MaterializeArrivals(
    const std::vector<trace::RateTrace>& inputs, bool poisson, uint64_t seed,
    double duration) {
  // Mirror the engine's setup exactly: fork one RNG per stream first
  // (all forks), then build the generators, so each stream's random
  // stream is identical to the one the engine would hand it.
  Rng master(seed);
  std::vector<Rng> rngs;
  rngs.reserve(inputs.size());
  for (size_t k = 0; k < inputs.size(); ++k) rngs.push_back(master.Fork());

  std::vector<std::vector<double>> out(inputs.size());
  for (size_t k = 0; k < inputs.size(); ++k) {
    ArrivalGenerator gen(inputs[k], poisson, &rngs[k]);
    // The engine seeds at 0 and then redraws from each arrival's own
    // instant; replicate that call pattern, cutting at the horizon the
    // same way the event loop does (arrivals past `duration` are never
    // scheduled).
    for (double t = gen.NextArrival(0.0);
         std::isfinite(t) && t <= duration; t = gen.NextArrival(t)) {
      out[k].push_back(t);
    }
  }
  return out;
}

}  // namespace rod::sim
