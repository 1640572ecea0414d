#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace rodbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t ItemSeed(uint64_t base, uint64_t index) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Record(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

namespace {

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
}

}  // namespace

bool Tracer::WriteChromeTrace(const std::string& path,
                              const telemetry::Telemetry* program) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRecord> spans = this->spans();
  std::map<uint64_t, double> child_us;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.begin_us;
  }
  char buf[512];
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"rodbench\"}}";
  for (const SpanRecord& s : spans) {
    const double dur = s.end_us - s.begin_us;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"span\":%llu,\"parent\":%llu,\"self_us\":%.3f}}",
                  s.tid, s.name.c_str(), s.begin_us, dur,
                  static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  dur - child_us[s.id]);
    out << buf;
  }
  if (program != nullptr) {
    const double offset = NowUs() - program->NowMicros();
    out << ",\n{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
           "\"args\":{\"name\":\"rod library telemetry\"}}";
    for (const telemetry::TraceEventView& e : program->SnapshotTrace()) {
      if (e.instant) {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":2,\"tid\":%u,"
                      "\"cat\":\"%s\",\"name\":\"%s\",\"ts\":%.3f}",
                      e.tid, e.category, e.name, e.ts_us + offset);
      } else {
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%u,\"cat\":\"%s\","
                      "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                      e.tid, e.category, e.name, e.ts_us + offset, e.dur_us);
      }
      out << buf;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const char* name, uint64_t request,
           uint64_t parent)
    : tracer_(tracer),
      name_(name),
      request_(request),
      parent_(parent),
      id_(tracer->NewSpanId()),
      begin_us_(tracer->NowUs()) {}

double Span::End() {
  if (seconds_ >= 0.0) return seconds_;
  const double end_us = tracer_->NowUs();
  seconds_ = (end_us - begin_us_) * 1e-6;
  if (tracer_->enabled()) {
    tracer_->Record(SpanRecord{name_, id_, parent_, request_, begin_us_,
                               end_us, ThreadTag()});
  }
  return seconds_;
}

namespace {

std::string FullName(const telemetry::TraceEventView& e) {
  return std::string(e.category) + "." + e.name;
}

}  // namespace

std::map<std::string, double> SelfMicrosByName(
    const std::vector<telemetry::TraceEventView>& events) {
  std::vector<const telemetry::TraceEventView*> spans;
  for (const auto& e : events) {
    if (!e.instant) spans.push_back(&e);
  }
  // Per thread, outer spans first: by start, then longest first.
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;
  });
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto* e = spans[i];
    while (!stack.empty()) {
      const auto* top = spans[stack.back()];
      if (top->tid == e->tid && e->ts_us < top->ts_us + top->dur_us) break;
      stack.pop_back();
    }
    if (!stack.empty()) covered[stack.back()] += e->dur_us;
    stack.push_back(i);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[FullName(*spans[i])] += std::max(0.0, spans[i]->dur_us - covered[i]);
  }
  return self;
}

telemetry::TelemetryOptions TracedTelemetryOptions() {
  telemetry::TelemetryOptions options;
  options.ring_capacity = 1 << 18;
  return options;
}

std::string TracePath(const RunConfig& config) {
  return config.work_dir + "/trace-" + config.workload + "-seed" +
         std::to_string(config.seed) + ".json";
}

}  // namespace rodbench
