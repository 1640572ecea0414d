#include "onoff.h"

#include <algorithm>
#include <cassert>

namespace rod::trace {

RateTrace GenerateOnOff(const OnOffOptions& options, Rng& rng) {
  assert(options.num_sources > 0 && options.num_windows > 0);
  assert(options.window_sec > 0 && options.peak_rate >= 0);
  assert(options.alpha_on > 1.0 && options.alpha_off > 1.0);
  assert(options.mean_on > 0 && options.mean_off > 0);

  // Pareto(xm, alpha) has mean xm * alpha / (alpha - 1).
  const double xm_on =
      options.mean_on * (options.alpha_on - 1.0) / options.alpha_on;
  const double xm_off =
      options.mean_off * (options.alpha_off - 1.0) / options.alpha_off;
  const double horizon =
      options.window_sec * static_cast<double>(options.num_windows);

  RateTrace trace;
  trace.window_sec = options.window_sec;
  trace.rates.assign(options.num_windows, 0.0);

  for (size_t s = 0; s < options.num_sources; ++s) {
    // Start each source at a random phase of its cycle so the aggregate is
    // stationary from the first window.
    double t = -rng.NextDouble() * (options.mean_on + options.mean_off);
    bool on = rng.Bernoulli(options.mean_on /
                            (options.mean_on + options.mean_off));
    while (t < horizon) {
      const double duration = on ? rng.Pareto(xm_on, options.alpha_on)
                                 : rng.Pareto(xm_off, options.alpha_off);
      if (on) {
        // Spread `peak_rate * overlap` tuples across the touched windows.
        const double begin = std::max(t, 0.0);
        const double end = std::min(t + duration, horizon);
        if (end > begin) {
          size_t w = static_cast<size_t>(begin / options.window_sec);
          double cursor = begin;
          while (cursor < end && w < trace.rates.size()) {
            const double w_end =
                static_cast<double>(w + 1) * options.window_sec;
            const double overlap = std::min(end, w_end) - cursor;
            trace.rates[w] += options.peak_rate * overlap / options.window_sec;
            cursor = w_end;
            ++w;
          }
        }
      }
      t += duration;
      on = !on;
    }
  }
  return trace;
}

}  // namespace rod::trace
