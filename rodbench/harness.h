// Shared pieces of the repository benchmark: run configuration, the
// benchmark's own span recorder, percentile helpers, and the per-workload
// entry points. Every workload measures the library from outside — it
// times calls into public functions and reads counters the library
// already keeps — and returns its figures as a name -> value map that
// main.cc checks against the metric tables and prints.

#ifndef RODBENCH_HARNESS_H_
#define RODBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace rodbench {

namespace telemetry = rod::telemetry;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Length of the measured phase.
  bool trace = false;     ///< Traced run: per-layer metrics and spans.
  std::string worker_path;  ///< rod_worker binary (cluster_failover).
  std::string work_dir;     ///< Working space for stores and traces.
};

/// What one run of a workload produced. `metrics` holds every metric the
/// workload measured in this mode; main.cc fills in and checks the rest.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;  ///< Why `correct` is false.

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

Outcome RunPlaceScale(const RunConfig& config);
Outcome RunSimSteady(const RunConfig& config);
Outcome RunSimBurstFailover(const RunConfig& config);
Outcome RunClusterFailover(const RunConfig& config);

/// Seconds on the steady clock.
double NowSeconds();

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// Decorrelated per-item seed: a pure function of (base, index).
uint64_t ItemSeed(uint64_t base, uint64_t index);

/// Percent by which `traced` exceeds `untraced` (both positive costs).
double OverheadPct(double traced, double untraced);

/// One finished span of the benchmark's own trace.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t request = 0;  ///< Shared by every span of one request/case/job.
  double begin_us = 0.0;
  double end_us = 0.0;
  uint32_t tid = 0;
};

/// The benchmark's span recorder. Spans always time their interval (the
/// untraced run uses the same timings); they are kept only when tracing
/// is on. Thread-safe: pool threads record supervisor spans.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }
  uint64_t NewSpanId() { return next_span_.fetch_add(1) + 1; }
  double NowUs() const;

  void Record(SpanRecord span);
  std::vector<SpanRecord> spans() const;

  /// Writes the benchmark's spans (pid 1) and the library's own telemetry
  /// spans (pid 2, aligned to the same clock) as one Chrome trace.
  /// Each span carries its request id and self time in `args`.
  bool WriteChromeTrace(const std::string& path,
                        const telemetry::Telemetry* program) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // Guarded by mu_.
};

/// A timed interval; recorded into the tracer on End() when tracing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t request,
       uint64_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its length in seconds.
  double End();
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t request_;
  uint64_t parent_;
  uint64_t id_;
  double begin_us_;
  double seconds_ = -1.0;
};

/// Self time of program spans, summed per "category.name": each span's
/// duration minus the part its nested spans on the same thread cover.
std::map<std::string, double> SelfMicrosByName(
    const std::vector<telemetry::TraceEventView>& events);

/// Telemetry options for a traced run: rings large enough that a run's
/// spans are all kept (drops still surface as telemetry.trace_dropped).
telemetry::TelemetryOptions TracedTelemetryOptions();

/// Path of this run's Chrome trace under the work directory.
std::string TracePath(const RunConfig& config);

}  // namespace rodbench

#endif  // RODBENCH_HARNESS_H_
