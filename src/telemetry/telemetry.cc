#include "telemetry/telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "telemetry/json_writer.h"

namespace rod::telemetry {

namespace {

// Registry capacities. Fixed so a shard's slot arrays never reallocate
// (the snapshot thread reads them while recorders write); registration
// past the cap yields an inert handle.
constexpr size_t kMaxCounters = 256;
constexpr size_t kMaxGauges = 256;
constexpr size_t kMaxHistograms = 64;

// Log-bucketed histogram geometry: two buckets per octave. Bucket 0
// holds v <= 0; bucket b in [1, 127] holds
// 2^((b-1-kBucketBias)/2) < v <= 2^((b-kBucketBias)/2), covering
// ~2^-32 .. 2^31 with the extremes clamped into the end buckets.
constexpr int kNumBuckets = 128;
constexpr int kBucketBias = 65;

int BucketOf(double v) {
  if (!(v > 0.0)) return 0;  // also catches NaN
  const double raw = std::ceil(std::log2(v) * 2.0);
  if (raw < static_cast<double>(1 - kBucketBias)) return 1;
  if (raw > static_cast<double>(kNumBuckets - 1 - kBucketBias)) {
    return kNumBuckets - 1;
  }
  return static_cast<int>(raw) + kBucketBias;
}

double BucketUpperBound(int b) {
  if (b <= 0) return 0.0;
  return std::exp2(static_cast<double>(b - kBucketBias) / 2.0);
}

/// Per-(shard, histogram) state, allocated on first record.
struct HistShard {
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
  std::atomic<uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint64_t arg = 0;
  bool has_arg = false;
  bool instant = false;
};

/// One recording thread's private slice of a Telemetry instance. Only
/// the owning thread writes; the snapshot/export side reads counters and
/// drop totals through the atomics and the ring only at quiescence.
struct ThreadShard {
  ThreadShard(uint32_t tid_in, size_t ring_capacity)
      : tid(tid_in), capacity(std::max<size_t>(1, ring_capacity)) {
    ring.reserve(capacity);
  }
  ~ThreadShard() {
    for (auto& h : hists) delete h.load(std::memory_order_acquire);
  }

  const uint32_t tid;
  const size_t capacity;
  std::array<std::atomic<uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<HistShard*>, kMaxHistograms> hists{};
  std::vector<TraceEvent> ring;
  std::atomic<uint64_t> recorded{0};  ///< == ring.size(), readable anytime.
  std::atomic<uint64_t> dropped{0};
};

std::atomic<uint64_t> g_next_instance{1};

/// Thread-local shard directory: (instance id -> shard) for every
/// Telemetry this thread has recorded into. Instance ids are never
/// reused, so entries for destroyed instances are inert.
struct TlsRef {
  uint64_t instance = 0;
  ThreadShard* shard = nullptr;
};
thread_local std::vector<TlsRef> t_shard_refs;

}  // namespace

struct Telemetry::Impl {
  explicit Impl(const TelemetryOptions& opts)
      : instance_id(g_next_instance.fetch_add(1, std::memory_order_relaxed)),
        options(opts),
        t0(std::chrono::steady_clock::now()) {}

  ThreadShard& LocalShard() {
    for (const TlsRef& ref : t_shard_refs) {
      if (ref.instance == instance_id) return *ref.shard;
    }
    std::lock_guard<std::mutex> lock(mu);
    shards.push_back(std::make_unique<ThreadShard>(
        static_cast<uint32_t>(shards.size()), options.ring_capacity));
    ThreadShard* shard = shards.back().get();
    t_shard_refs.push_back(TlsRef{instance_id, shard});
    return *shard;
  }

  const uint64_t instance_id;
  const TelemetryOptions options;
  mutable std::mutex mu;
  std::vector<std::unique_ptr<ThreadShard>> shards;
  std::unordered_map<std::string, uint32_t> counter_ids;
  std::unordered_map<std::string, uint32_t> gauge_ids;
  std::unordered_map<std::string, uint32_t> hist_ids;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  uint64_t dropped_registrations = 0;  ///< Guarded by mu.
  // Fixed-size so Set() needs no lock: id-indexed, last write wins.
  std::array<std::atomic<double>, kMaxGauges> gauge_values{};
  const std::chrono::steady_clock::time_point t0;
  std::atomic<double> manual_now{0.0};
};

Telemetry::Telemetry(TelemetryOptions options)
    : options_(options), impl_(std::make_unique<Impl>(options)) {}

Telemetry::~Telemetry() = default;

Counter Telemetry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->counter_ids.find(std::string(name));
  if (it != impl_->counter_ids.end()) return Counter(this, it->second);
  if (impl_->counter_names.size() >= kMaxCounters) {
    ++impl_->dropped_registrations;
    return Counter();
  }
  const uint32_t id = static_cast<uint32_t>(impl_->counter_names.size());
  impl_->counter_names.emplace_back(name);
  impl_->counter_ids.emplace(std::string(name), id);
  return Counter(this, id);
}

Gauge Telemetry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->gauge_ids.find(std::string(name));
  if (it != impl_->gauge_ids.end()) return Gauge(this, it->second);
  if (impl_->gauge_names.size() >= kMaxGauges) {
    ++impl_->dropped_registrations;
    return Gauge();
  }
  const uint32_t id = static_cast<uint32_t>(impl_->gauge_names.size());
  impl_->gauge_names.emplace_back(name);
  impl_->gauge_ids.emplace(std::string(name), id);
  return Gauge(this, id);
}

Histogram Telemetry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->hist_ids.find(std::string(name));
  if (it != impl_->hist_ids.end()) return Histogram(this, it->second);
  if (impl_->hist_names.size() >= kMaxHistograms) {
    ++impl_->dropped_registrations;
    return Histogram();
  }
  const uint32_t id = static_cast<uint32_t>(impl_->hist_names.size());
  impl_->hist_names.emplace_back(name);
  impl_->hist_ids.emplace(std::string(name), id);
  return Histogram(this, id);
}

void Telemetry::CounterAdd(uint32_t id, uint64_t n) {
  if (id >= kMaxCounters) return;
  auto& slot = impl_->LocalShard().counters[id];
  // Owner-thread-only write: plain load/store through the atomic keeps
  // the snapshot reader race-free without an RMW.
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void Telemetry::GaugeSet(uint32_t id, double v) {
  if (id >= kMaxGauges) return;
  impl_->gauge_values[id].store(v, std::memory_order_relaxed);
}

void Telemetry::GaugeMax(uint32_t id, double v) {
  if (id >= kMaxGauges) return;
  auto& slot = impl_->gauge_values[id];
  double cur = slot.load(std::memory_order_relaxed);
  // CAS-max: typically one load (v below the high water) — cheap enough
  // for per-push hot paths like the event queue.
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Telemetry::HistogramRecord(uint32_t id, double v, uint64_t n) {
  if (id >= kMaxHistograms || n == 0) return;
  ThreadShard& shard = impl_->LocalShard();
  HistShard* h = shard.hists[id].load(std::memory_order_acquire);
  if (h == nullptr) {
    h = new HistShard();
    shard.hists[id].store(h, std::memory_order_release);
  }
  auto& bucket = h->buckets[static_cast<size_t>(BucketOf(v))];
  bucket.store(bucket.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  h->count.store(h->count.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  // v * 1.0 == v exactly, so single samples sum bit-identically.
  h->sum.store(h->sum.load(std::memory_order_relaxed) +
                   v * static_cast<double>(n),
               std::memory_order_relaxed);
  if (v < h->min.load(std::memory_order_relaxed)) {
    h->min.store(v, std::memory_order_relaxed);
  }
  if (v > h->max.load(std::memory_order_relaxed)) {
    h->max.store(v, std::memory_order_relaxed);
  }
}

double Telemetry::NowMicros() const {
  if (options_.manual_clock) {
    return impl_->manual_now.load(std::memory_order_relaxed);
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - impl_->t0)
      .count();
}

void Telemetry::AdvanceClock(double micros) {
  assert(options_.manual_clock && "AdvanceClock needs manual_clock");
  impl_->manual_now.store(
      impl_->manual_now.load(std::memory_order_relaxed) + micros,
      std::memory_order_relaxed);
}

void Telemetry::RecordSpan(const char* category, const char* name,
                           double begin_us, double end_us, uint64_t arg,
                           bool has_arg) {
  if (!options_.capture_traces) return;
  ThreadShard& shard = impl_->LocalShard();
  if (shard.ring.size() >= shard.capacity) {
    shard.dropped.store(shard.dropped.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    return;
  }
  shard.ring.push_back(TraceEvent{category, name, begin_us,
                                  std::max(0.0, end_us - begin_us), arg,
                                  has_arg, /*instant=*/false});
  // Release-publish: SnapshotTrace may read the ring from another thread
  // mid-run, bounded by an acquire load of `recorded` (the ring's storage
  // never reallocates — capacity is reserved up front).
  shard.recorded.store(shard.ring.size(), std::memory_order_release);
}

void Telemetry::RecordInstant(const char* category, const char* name,
                              uint64_t arg, bool has_arg) {
  if (!options_.capture_traces) return;
  ThreadShard& shard = impl_->LocalShard();
  if (shard.ring.size() >= shard.capacity) {
    shard.dropped.store(shard.dropped.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    return;
  }
  shard.ring.push_back(TraceEvent{category, name, NowMicros(), 0.0, arg,
                                  has_arg, /*instant=*/true});
  shard.recorded.store(shard.ring.size(), std::memory_order_release);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  const double clamped_q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(clamped_q * static_cast<double>(count))));
  uint64_t cumulative = 0;
  for (const auto& [upper, n] : buckets) {
    cumulative += n;
    if (cumulative >= rank) return std::clamp(upper, min, max);
  }
  return max;
}

MetricsSnapshot Telemetry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (size_t id = 0; id < impl_->counter_names.size(); ++id) {
    uint64_t total = 0;
    for (const auto& shard : impl_->shards) {
      total += shard->counters[id].load(std::memory_order_relaxed);
    }
    snap.counters[impl_->counter_names[id]] = total;
  }
  for (size_t id = 0; id < impl_->gauge_names.size(); ++id) {
    snap.gauges[impl_->gauge_names[id]] =
        impl_->gauge_values[id].load(std::memory_order_relaxed);
  }
  for (size_t id = 0; id < impl_->hist_names.size(); ++id) {
    HistogramSnapshot h;
    h.min = std::numeric_limits<double>::infinity();
    h.max = -std::numeric_limits<double>::infinity();
    std::array<uint64_t, kNumBuckets> merged{};
    for (const auto& shard : impl_->shards) {
      const HistShard* hs = shard->hists[id].load(std::memory_order_acquire);
      if (hs == nullptr) continue;
      h.count += hs->count.load(std::memory_order_relaxed);
      h.sum += hs->sum.load(std::memory_order_relaxed);
      h.min = std::min(h.min, hs->min.load(std::memory_order_relaxed));
      h.max = std::max(h.max, hs->max.load(std::memory_order_relaxed));
      for (int b = 0; b < kNumBuckets; ++b) {
        merged[static_cast<size_t>(b)] +=
            hs->buckets[static_cast<size_t>(b)].load(
                std::memory_order_relaxed);
      }
    }
    if (h.count == 0) {
      h.min = 0.0;
      h.max = 0.0;
    }
    for (int b = 0; b < kNumBuckets; ++b) {
      if (merged[static_cast<size_t>(b)] > 0) {
        h.buckets.emplace_back(BucketUpperBound(b),
                               merged[static_cast<size_t>(b)]);
      }
    }
    snap.histograms[impl_->hist_names[id]] = std::move(h);
  }
  for (const auto& shard : impl_->shards) {
    snap.trace_events_recorded +=
        shard->recorded.load(std::memory_order_relaxed);
    snap.trace_events_dropped += shard->dropped.load(std::memory_order_relaxed);
  }
  snap.dropped_registrations = impl_->dropped_registrations;
  return snap;
}

std::vector<TraceEventView> Telemetry::SnapshotTrace() const {
  std::vector<TraceEventView> events;
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& shard : impl_->shards) {
    // Acquire pairs with the recorder's release store: events at indices
    // < `published` are fully written even while the owner keeps
    // recording. Read through the data pointer (stable: capacity is
    // reserved up front, push_back never reallocates) rather than
    // vector::size(), which the owner mutates.
    const size_t published = static_cast<size_t>(
        shard->recorded.load(std::memory_order_acquire));
    const size_t n = std::min(published, shard->capacity);
    const TraceEvent* ring = shard->ring.data();
    for (size_t i = 0; i < n; ++i) {
      const TraceEvent& e = ring[i];
      events.push_back(TraceEventView{shard->tid, e.category, e.name, e.ts_us,
                                      e.dur_us, e.arg, e.has_arg, e.instant});
    }
  }
  return events;
}

void WriteSnapshotJson(const MetricsSnapshot& snap, JsonWriter& w) {
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snap.counters) w.Key(name).Uint(value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snap.gauges) w.Key(name).Double(value);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : snap.histograms) {
    w.Key(name).BeginObjectInline();
    w.Key("count").Uint(h.count);
    w.Key("sum").Double(h.sum);
    w.Key("min").Double(h.min);
    w.Key("max").Double(h.max);
    w.Key("mean").Double(h.mean());
    w.Key("p50").Double(h.Quantile(0.50));
    w.Key("p95").Double(h.Quantile(0.95));
    w.Key("p99").Double(h.Quantile(0.99));
    w.Key("buckets").BeginArrayInline();
    for (const auto& [upper, n] : h.buckets) {
      w.BeginArrayInline().Double(upper).Uint(n).EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.Key("trace").BeginObjectInline();
  w.Key("recorded").Uint(snap.trace_events_recorded);
  w.Key("dropped").Uint(snap.trace_events_dropped);
  w.EndObject();
  w.Key("registry").BeginObjectInline();
  w.Key("dropped_registrations").Uint(snap.dropped_registrations);
  w.EndObject();
  w.EndObject();
}

void Telemetry::WriteMetricsJson(std::ostream& out) const {
  JsonWriter w(out);
  WriteSnapshotJson(Snapshot(), w);
  out << "\n";
}

void Telemetry::WriteChromeTrace(std::ostream& out) const {
  WriteChromeTrace(out, ChromeTraceProcess{});
}

void Telemetry::WriteChromeTrace(std::ostream& out,
                                 const ChromeTraceProcess& process) const {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!process.name.empty()) {
    w.BeginObjectInline();
    w.Key("ph").String("M");
    w.Key("pid").Uint(process.pid);
    w.Key("tid").Uint(0);
    w.Key("name").String("process_name");
    w.Key("args").BeginObjectInline();
    w.Key("name").String(process.name);
    w.EndObject();
    w.EndObject();
  }
  for (const auto& shard : impl_->shards) {
    w.BeginObjectInline();
    w.Key("ph").String("M");
    w.Key("pid").Uint(process.pid);
    w.Key("tid").Uint(shard->tid);
    w.Key("name").String("thread_name");
    w.Key("args").BeginObjectInline();
    w.Key("name").String("rod-" + std::to_string(shard->tid));
    w.EndObject();
    w.EndObject();
  }
  for (const auto& shard : impl_->shards) {
    for (const TraceEvent& e : shard->ring) {
      w.BeginObjectInline();
      w.Key("ph").String(e.instant ? "i" : "X");
      w.Key("pid").Uint(process.pid);
      w.Key("tid").Uint(shard->tid);
      w.Key("cat").String(e.category);
      w.Key("name").String(e.name);
      w.Key("ts").Double(e.ts_us);
      if (e.instant) {
        w.Key("s").String("t");
      } else {
        w.Key("dur").Double(e.dur_us);
      }
      if (e.has_arg) {
        w.Key("args").BeginObjectInline();
        w.Key("v").Uint(e.arg);
        w.EndObject();
      }
      w.EndObject();
    }
  }
  w.EndArray();
  if (!process.name.empty() || !process.metadata.empty()) {
    w.Key("rod").BeginObjectInline();
    for (const auto& [key, value] : process.metadata) {
      w.Key(key).Double(value);
    }
    w.EndObject();
  }
  w.EndObject();
  out << "\n";
}

void MergeHistogramInto(HistogramSnapshot& dst, const HistogramSnapshot& src) {
  if (src.count == 0) return;
  if (dst.count == 0) {
    dst = src;
    return;
  }
  dst.sum += src.sum;
  dst.min = std::min(dst.min, src.min);
  dst.max = std::max(dst.max, src.max);
  dst.count += src.count;
  // Two-pointer merge on bucket upper bounds; both sides come from the
  // same log-bucket layout, so equal buckets have bit-identical bounds.
  std::vector<std::pair<double, uint64_t>> merged;
  merged.reserve(dst.buckets.size() + src.buckets.size());
  size_t i = 0;
  size_t j = 0;
  while (i < dst.buckets.size() || j < src.buckets.size()) {
    if (j >= src.buckets.size() ||
        (i < dst.buckets.size() &&
         dst.buckets[i].first < src.buckets[j].first)) {
      merged.push_back(dst.buckets[i++]);
    } else if (i >= dst.buckets.size() ||
               src.buckets[j].first < dst.buckets[i].first) {
      merged.push_back(src.buckets[j++]);
    } else {
      merged.emplace_back(dst.buckets[i].first,
                          dst.buckets[i].second + src.buckets[j].second);
      ++i;
      ++j;
    }
  }
  dst.buckets = std::move(merged);
}

TraceSpan::TraceSpan(Telemetry* telemetry, const char* category,
                     const char* name, uint64_t arg, bool has_arg)
    : telemetry_(telemetry != nullptr && telemetry->tracing() ? telemetry
                                                              : nullptr),
      category_(category),
      name_(name),
      arg_(arg),
      has_arg_(has_arg) {
  if (telemetry_ != nullptr) begin_us_ = telemetry_->NowMicros();
}

void TraceSpan::End() {
  if (telemetry_ == nullptr) return;
  telemetry_->RecordSpan(category_, name_, begin_us_, telemetry_->NowMicros(),
                         arg_, has_arg_);
  telemetry_ = nullptr;
}

}  // namespace rod::telemetry
