// Segmented trace store: on-disk format, writer/reader round trips,
// corruption rejection, the pin/unpin buffer-manager contract, and the
// replay bit-exactness gates — a run driven from a store file must equal
// a run driven from the same arrivals in memory bit for bit (Gate A, all
// configurations), and an in-memory replay of MaterializeArrivals must
// equal the generator-driven run (Gate B, configurations that do not
// re-time the generator's draws).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "runtime/chaos.h"
#include "runtime/engine.h"
#include "runtime/workload_driver.h"
#include "trace/store/format.h"
#include "trace/store/reader.h"
#include "trace/store/replay.h"
#include "trace/store/writer.h"

namespace rod::trace::store {
namespace {

using sim::FailureSchedule;
using sim::MaterializeArrivals;
using sim::SimulationOptions;
using sim::SimulationResult;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A store path that removes itself when the test ends.
class ScopedStore {
 public:
  explicit ScopedStore(const std::string& name) : path_(TempPath(name)) {}
  ~ScopedStore() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<double> Ramp(size_t n, double step = 0.25) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(static_cast<double>(i) * step);
  return out;
}

Status WriteRamp(const std::string& path, size_t n, uint32_t per_segment) {
  WriterOptions opts;
  opts.records_per_segment = per_segment;
  const std::vector<double> times = Ramp(n);
  return WriteTimestamps(times, /*stream=*/0, path, opts);
}

// ---------------------------------------------------------------------------
// Format layer.

TEST(TraceStoreFormatTest, Crc32MatchesKnownVector) {
  // The canonical IEEE-802.3 check value for "123456789".
  const char text[] = "123456789";
  const auto bytes = std::as_bytes(std::span(text, 9));
  EXPECT_EQ(Crc32(bytes), 0xCBF43926u);
  // Chaining: CRC(a+b) == CRC(b, seed=CRC(a)).
  EXPECT_EQ(Crc32(bytes.subspan(4), Crc32(bytes.first(4))), 0xCBF43926u);
}

/// The byte-at-a-time CRC-32 (reflected 0xEDB88320), bit by bit.
uint32_t BytewiseCrc32(std::span<const std::byte> bytes, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::byte b : bytes) {
    c ^= static_cast<uint8_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(TraceStoreFormatTest, Crc32EqualsBytewiseLoop) {
  // Lengths 0-4 KiB at every offset modulo 8 (the eight-byte steps read
  // unaligned words), with random seeds and split points chaining one
  // CRC into the next.
  Rng rng(0xc3c32);
  std::vector<std::byte> buf(4096 + 16);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng.NextIndex(256));
  for (int trial = 0; trial < 600; ++trial) {
    const size_t len = trial < 24 ? static_cast<size_t>(trial)
                                  : rng.NextIndex(4097);
    const size_t offset = static_cast<size_t>(trial) % 8;
    const auto bytes = std::span<const std::byte>(buf).subspan(offset, len);
    const auto seed = static_cast<uint32_t>(rng.NextU64());
    EXPECT_EQ(Crc32(bytes, seed), BytewiseCrc32(bytes, seed))
        << "len " << len << " offset " << offset;
    const size_t split = rng.NextIndex(len + 1);
    EXPECT_EQ(Crc32(bytes.subspan(split), Crc32(bytes.first(split))),
              BytewiseCrc32(bytes, 0))
        << "len " << len << " split " << split;
  }
}

TEST(TraceStoreFormatTest, FileHeaderRoundTrips) {
  StoreInfo info;
  info.records_per_segment = 1024;
  info.num_streams = 3;
  info.num_segments = 7;
  info.total_records = 6 * 1024 + 17;
  info.time_lo = 0.125;
  info.time_hi = 99.5;
  std::byte buf[kFileHeaderBytes];
  EncodeFileHeader(info, std::span<std::byte, kFileHeaderBytes>(buf));
  auto back = DecodeFileHeader(std::span<const std::byte>(buf));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->records_per_segment, info.records_per_segment);
  EXPECT_EQ(back->num_streams, info.num_streams);
  EXPECT_EQ(back->num_segments, info.num_segments);
  EXPECT_EQ(back->total_records, info.total_records);
  EXPECT_EQ(back->time_lo, info.time_lo);
  EXPECT_EQ(back->time_hi, info.time_hi);
  EXPECT_EQ(back->file_bytes(),
            kFileHeaderBytes + 7 * (kSegmentHeaderBytes + 1024 * 16));
}

TEST(TraceStoreFormatTest, CorruptHeadersAreRejected) {
  StoreInfo info;
  info.records_per_segment = 8;
  info.num_segments = 1;
  info.total_records = 5;
  info.num_streams = 1;
  std::byte buf[kFileHeaderBytes];
  EncodeFileHeader(info, std::span<std::byte, kFileHeaderBytes>(buf));

  {
    std::byte bad[kFileHeaderBytes];
    std::copy(std::begin(buf), std::end(buf), bad);
    bad[0] = std::byte{'X'};  // magic: "not a store file", not bit-rot
    EXPECT_EQ(DecodeFileHeader(std::span<const std::byte>(bad)).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::byte bad[kFileHeaderBytes];
    std::copy(std::begin(buf), std::end(buf), bad);
    bad[20] ^= std::byte{0x01};  // a manifest field; CRC must catch it
    EXPECT_EQ(DecodeFileHeader(std::span<const std::byte>(bad)).status().code(),
              StatusCode::kDataLoss);
  }
  // An empty trailing segment is inconsistent by construction.
  StoreInfo bad_counts = info;
  bad_counts.num_segments = 2;  // but total_records still fits in one
  std::byte buf2[kFileHeaderBytes];
  EncodeFileHeader(bad_counts, std::span<std::byte, kFileHeaderBytes>(buf2));
  EXPECT_FALSE(DecodeFileHeader(std::span<const std::byte>(buf2)).ok());
}

// ---------------------------------------------------------------------------
// Writer validation.

TEST(TraceStoreWriterTest, RejectsDisorderAndBadValues) {
  ScopedStore store("rod_store_writer_reject.rodtrc");
  auto writer = SegmentWriter::Open(store.path());
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer->Append({.time = 1.0}).ok());
  EXPECT_FALSE(writer->Append({.time = 0.5}).ok());  // time moved backwards
  EXPECT_FALSE(writer->Append({.time = -1.0}).ok());
  EXPECT_FALSE(
      writer->Append({.time = std::numeric_limits<double>::infinity()}).ok());
  EXPECT_TRUE(writer->Append({.time = 1.0}).ok());  // equal times are fine
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_FALSE(writer->Append({.time = 2.0}).ok());  // append after finish
}

TEST(TraceStoreWriterTest, AbandonedFileIsUnreadable) {
  ScopedStore store("rod_store_abandoned.rodtrc");
  {
    auto writer = SegmentWriter::Open(store.path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append({.time = 1.0}).ok());
    // No Finish(): the manifest slot stays zeroed.
  }
  EXPECT_FALSE(SegmentReader::Open(store.path()).ok());
}

// ---------------------------------------------------------------------------
// Reader round trips and the buffer-manager contract.

TEST(TraceStoreReaderTest, RoundTripsAcrossSegmentBoundaries) {
  ScopedStore store("rod_store_roundtrip.rodtrc");
  // 23 records at 7 per segment: two full segments + a partial tail.
  ASSERT_TRUE(WriteRamp(store.path(), 23, 7).ok());
  for (const bool use_mmap : {true, false}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "pread");
    ReaderOptions opts;
    opts.use_mmap = use_mmap;
    auto reader = SegmentReader::Open(store.path(), opts);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->info().total_records, 23u);
    EXPECT_EQ(reader->info().num_segments, 4u);
    EXPECT_EQ(reader->info().time_lo, 0.0);
    EXPECT_EQ(reader->info().time_hi, 22 * 0.25);
    size_t i = 0;
    for (uint64_t seg = 0; seg < reader->info().num_segments; ++seg) {
      auto span = reader->Pin(seg);
      ASSERT_TRUE(span.ok());
      EXPECT_EQ(span->size(), seg + 1 < reader->info().num_segments
                                  ? 7u
                                  : 23u - 7u * seg);
      for (const ArrivalRecord& r : *span) {
        EXPECT_EQ(r.time, static_cast<double>(i) * 0.25);
        EXPECT_EQ(r.stream, 0u);
        ++i;
      }
      reader->Unpin(seg);
    }
    EXPECT_EQ(i, 23u);
    EXPECT_TRUE(reader->VerifyAll().ok());
  }
}

TEST(TraceStoreReaderTest, ExactMultipleLeavesNoEmptyTailSegment) {
  ScopedStore store("rod_store_exact.rodtrc");
  ASSERT_TRUE(WriteRamp(store.path(), 14, 7).ok());
  auto reader = SegmentReader::Open(store.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->info().num_segments, 2u);
  EXPECT_EQ(reader->info().total_records, 14u);
}

TEST(TraceStoreReaderTest, EmptyStoreIsValid) {
  ScopedStore store("rod_store_empty.rodtrc");
  auto writer = SegmentWriter::Open(store.path());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto reader = SegmentReader::Open(store.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->info().num_segments, 0u);
  EXPECT_EQ(reader->info().total_records, 0u);
  EXPECT_TRUE(reader->VerifyAll().ok());
  BatchCursor cursor(&*reader);
  auto span = cursor.NextSpan();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(span->empty());
}

TEST(TraceStoreReaderTest, TruncatedFileIsRejectedAtOpen) {
  ScopedStore store("rod_store_truncated.rodtrc");
  ASSERT_TRUE(WriteRamp(store.path(), 23, 7).ok());
  std::filesystem::resize_file(
      store.path(), std::filesystem::file_size(store.path()) - 16);
  auto reader = SegmentReader::Open(store.path());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(TraceStoreReaderTest, PayloadCorruptionFailsTheSegmentPin) {
  ScopedStore store("rod_store_bitrot.rodtrc");
  ASSERT_TRUE(WriteRamp(store.path(), 23, 7).ok());
  {
    // Flip one payload byte in segment 1 (skip its header).
    std::fstream f(store.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    StoreInfo info;
    info.records_per_segment = 7;
    const auto offset = static_cast<std::streamoff>(
        info.segment_offset(1) + kSegmentHeaderBytes + 3);
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(offset);
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
  }
  auto reader = SegmentReader::Open(store.path());
  ASSERT_TRUE(reader.ok());  // manifest itself is intact
  EXPECT_TRUE(reader->Pin(0).ok());
  reader->Unpin(0);
  EXPECT_EQ(reader->Pin(1).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader->VerifyAll().code(), StatusCode::kDataLoss);
  // With verification off the corrupt bytes are served as-is (trusted
  // benchmark mode) — the pin itself succeeds.
  ReaderOptions trusting;
  trusting.verify_checksums = false;
  auto blind = SegmentReader::Open(store.path(), trusting);
  ASSERT_TRUE(blind.ok());
  EXPECT_TRUE(blind->Pin(1).ok());
  blind->Unpin(1);
}

TEST(TraceStoreReaderTest, BudgetExhaustionFailsPinAndLruEvicts) {
  ScopedStore store("rod_store_budget.rodtrc");
  ASSERT_TRUE(WriteRamp(store.path(), 28, 7).ok());  // 4 segments
  ReaderOptions opts;
  opts.resident_segments = 2;
  auto reader = SegmentReader::Open(store.path(), opts);
  ASSERT_TRUE(reader.ok());

  ASSERT_TRUE(reader->Pin(0).ok());
  ASSERT_TRUE(reader->Pin(1).ok());
  // Both frames pinned: a third distinct segment must fail, not grow.
  EXPECT_EQ(reader->Pin(2).status().code(), StatusCode::kFailedPrecondition);
  // Re-pinning a resident segment is a cache hit, not a new frame.
  EXPECT_TRUE(reader->Pin(0).ok());
  reader->Unpin(0);
  reader->Unpin(0);
  // With segment 0 unpinned the LRU frame can be recycled.
  EXPECT_TRUE(reader->Pin(2).ok());
  reader->Unpin(1);
  reader->Unpin(2);
  EXPECT_GE(reader->stats().evictions, 1u);
  EXPECT_GE(reader->stats().cache_hits, 1u);
  EXPECT_LE(reader->resident_segments(), 2u);
}

TEST(TraceStoreReaderTest, MmapAndPreadServeIdenticalBytes) {
  ScopedStore store("rod_store_paths.rodtrc");
  ASSERT_TRUE(WriteRamp(store.path(), 100, 16).ok());
  ReaderOptions mopts, popts;
  mopts.use_mmap = true;
  popts.use_mmap = false;
  auto ma = SegmentReader::Open(store.path(), mopts);
  auto pa = SegmentReader::Open(store.path(), popts);
  ASSERT_TRUE(ma.ok() && pa.ok());
  EXPECT_TRUE(ma->using_mmap());
  EXPECT_FALSE(pa->using_mmap());
  for (uint64_t seg = 0; seg < ma->info().num_segments; ++seg) {
    auto a = ma->Pin(seg);
    auto b = pa->Pin(seg);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_TRUE((*a)[i] == (*b)[i]);
    }
    ma->Unpin(seg);
    pa->Unpin(seg);
  }
}

TEST(TraceStoreReaderTest, BatchCursorWalksAndRewinds) {
  ScopedStore store("rod_store_cursor.rodtrc");
  ASSERT_TRUE(WriteRamp(store.path(), 23, 7).ok());
  ReaderOptions opts;
  opts.resident_segments = 1;  // the cursor holds at most one pin
  auto reader = SegmentReader::Open(store.path(), opts);
  ASSERT_TRUE(reader.ok());
  BatchCursor cursor(&*reader);
  size_t i = 0;
  for (;;) {
    auto span = cursor.NextSpan();
    ASSERT_TRUE(span.ok());
    if (span->empty()) break;
    // Consume in odd-sized chunks so spans split mid-segment too.
    const size_t take = std::min<size_t>(span->size(), 3);
    for (size_t j = 0; j < take; ++j) {
      EXPECT_EQ((*span)[j].time, static_cast<double>(i + j) * 0.25);
    }
    cursor.Advance(take);
    i += take;
  }
  EXPECT_EQ(i, 23u);
  EXPECT_TRUE(cursor.done());
  cursor.Rewind();
  auto again = cursor.NextSpan();
  ASSERT_TRUE(again.ok());
  ASSERT_FALSE(again->empty());
  EXPECT_EQ((*again)[0].time, 0.0);
}

// ---------------------------------------------------------------------------
// Replay bit-exactness gates.

using place::Placement;
using place::SystemSpec;
using query::InputStreamId;
using query::OperatorKind;
using query::QueryGraph;
using query::StreamRef;

trace::RateTrace ConstantTrace(double rate, double duration) {
  trace::RateTrace t;
  t.window_sec = duration;
  t.rates = {rate};
  return t;
}

/// Fan-out across a network hop (the engine_batch_test scenario): one
/// source on node 0 feeding three consumers on node 1.
struct FanOutScenario {
  QueryGraph graph;
  SystemSpec system = SystemSpec::Homogeneous(2);
  Placement plan{2, {0, 1, 1, 1}};

  explicit FanOutScenario(double src_cost = 2e-4, double leaf_cost = 4e-4) {
    const InputStreamId in = graph.AddInputStream("I");
    auto src = graph.AddOperator({.name = "src", .kind = OperatorKind::kMap,
                                  .cost = src_cost, .selectivity = 1.0},
                                 {StreamRef::Input(in)});
    EXPECT_TRUE(src.ok());
    for (const char* name : {"a", "b", "c"}) {
      EXPECT_TRUE(graph
                      .AddOperator({.name = name, .kind = OperatorKind::kMap,
                                    .cost = leaf_cost, .selectivity = 0.9},
                                   {StreamRef::Op(*src)})
                      .ok());
    }
  }
};

void ExpectBitExact(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.input_tuples, b.input_tuples);
  EXPECT_EQ(a.shed_tuples, b.shed_tuples);
  EXPECT_EQ(a.output_tuples, b.output_tuples);
  EXPECT_EQ(a.mean_latency, b.mean_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.max_latency, b.max_latency);
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_EQ(a.final_backlog, b.final_backlog);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.overloaded_windows, b.overloaded_windows);
  EXPECT_EQ(a.max_node_utilization, b.max_node_utilization);
  ASSERT_EQ(a.node_utilization.size(), b.node_utilization.size());
  for (size_t i = 0; i < a.node_utilization.size(); ++i) {
    EXPECT_EQ(a.node_utilization[i], b.node_utilization[i]) << "node " << i;
  }
  ASSERT_EQ(a.op_stats.size(), b.op_stats.size());
  for (size_t i = 0; i < a.op_stats.size(); ++i) {
    EXPECT_EQ(a.op_stats[i].tuples_processed, b.op_stats[i].tuples_processed);
    EXPECT_EQ(a.op_stats[i].tuples_emitted, b.op_stats[i].tuples_emitted);
    EXPECT_EQ(a.op_stats[i].cpu_seconds, b.op_stats[i].cpu_seconds);
  }
  EXPECT_EQ(a.overload.total_shed(), b.overload.total_shed());
  EXPECT_EQ(a.overload.backpressure_deferred, b.overload.backpressure_deferred);
  EXPECT_EQ(a.overload.source_stalls, b.overload.source_stalls);
  EXPECT_EQ(a.overload.source_stall_seconds, b.overload.source_stall_seconds);
}

SimulationResult RunReplay(const FanOutScenario& s,
                           const SimulationOptions& base, double rate,
                           ReplaySet* replay) {
  SimulationOptions options = base;
  options.replay = replay;
  auto r = sim::SimulatePlacement(s.graph, s.plan, s.system,
                                  {ConstantTrace(rate, base.duration)},
                                  options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : SimulationResult{};
}

/// Gate A: a store-backed replay equals an in-memory replay of the same
/// arrivals, in every configuration (the feeds are interchangeable by
/// construction — this catches any divergence in the store read path).
TEST(TraceStoreReplayTest, GateA_StoreEqualsInMemoryReplay) {
  const FanOutScenario s;
  SimulationOptions base;
  base.duration = 20.0;
  const auto arrivals =
      MaterializeArrivals({ConstantTrace(400.0, base.duration)},
                          base.poisson_arrivals, base.seed, base.duration);
  ASSERT_EQ(arrivals.size(), 1u);
  ASSERT_GT(arrivals[0].size(), 1000u);

  ScopedStore store("rod_store_gate_a.rodtrc");
  WriterOptions wopts;
  wopts.records_per_segment = 512;  // force many segment crossings
  ASSERT_TRUE(WriteTimestamps(arrivals[0], 0, store.path(), wopts).ok());

  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    SimulationOptions options = base;
    options.batch_size = batch;

    ReplaySet vec = ReplaySet::FromVectors({arrivals[0]});
    const SimulationResult from_memory = RunReplay(s, options, 400.0, &vec);

    for (const bool use_mmap : {true, false}) {
      ReaderOptions ropts;
      ropts.use_mmap = use_mmap;
      ropts.resident_segments = 2;
      auto from_store = ReplaySet::OpenStores({store.path()}, ropts);
      ASSERT_TRUE(from_store.ok());
      ExpectBitExact(from_memory, RunReplay(s, options, 400.0, &*from_store));
    }
  }
}

/// Gate A under live overload machinery (backpressure stalls re-time
/// *generator* draws, but replay feeds are position-based, so store and
/// in-memory replay must still match exactly).
TEST(TraceStoreReplayTest, GateA_HoldsUnderBackpressureAndShedding) {
  const FanOutScenario s(/*src_cost=*/1e-4, /*leaf_cost=*/1.2e-3);
  SimulationOptions base;
  base.duration = 20.0;
  base.queue_bound.capacity = 256;
  base.backpressure.enabled = true;
  base.backpressure.high_water = 96;
  const auto arrivals =
      MaterializeArrivals({ConstantTrace(1200.0, base.duration)},
                          base.poisson_arrivals, base.seed, base.duration);
  ScopedStore store("rod_store_gate_a_overload.rodtrc");
  WriterOptions wopts;
  wopts.records_per_segment = 1024;
  ASSERT_TRUE(WriteTimestamps(arrivals[0], 0, store.path(), wopts).ok());

  ReplaySet vec = ReplaySet::FromVectors({arrivals[0]});
  const SimulationResult from_memory = RunReplay(s, base, 1200.0, &vec);
  EXPECT_GT(from_memory.overload.total_shed() +
                from_memory.overload.backpressure_deferred,
            0u)
      << "scenario failed to engage the degradation machinery";

  auto from_store = ReplaySet::OpenStores({store.path()});
  ASSERT_TRUE(from_store.ok());
  ExpectBitExact(from_memory, RunReplay(s, base, 1200.0, &*from_store));
}

/// Gate B: replaying MaterializeArrivals reproduces the generator-driven
/// run exactly when nothing re-times the generator (no stalls/spikes) —
/// the bridge that lets recorded stores stand in for the synthetic
/// driver.
TEST(TraceStoreReplayTest, GateB_ReplayEqualsGeneratorRun) {
  const FanOutScenario s;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    SimulationOptions options;
    options.duration = 20.0;
    options.batch_size = batch;

    auto generated = sim::SimulatePlacement(
        s.graph, s.plan, s.system, {ConstantTrace(400.0, options.duration)},
        options);
    ASSERT_TRUE(generated.ok());

    const auto arrivals = MaterializeArrivals(
        {ConstantTrace(400.0, options.duration)}, options.poisson_arrivals,
        options.seed, options.duration);
    ReplaySet vec = ReplaySet::FromVectors(arrivals);
    ExpectBitExact(*generated, RunReplay(s, options, 400.0, &vec));
  }
}

TEST(TraceStoreReplayTest, RejectsStreamCountMismatch) {
  const FanOutScenario s;
  SimulationOptions options;
  options.duration = 1.0;
  ReplaySet vec = ReplaySet::FromVectors({{0.1}, {0.2}});  // two feeds
  options.replay = &vec;
  auto r = sim::SimulatePlacement(s.graph, s.plan, s.system,
                                  {ConstantTrace(10.0, 1.0)}, options);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceStoreReplayTest, RejectsLoadSpikeFaults) {
  const FanOutScenario s;
  FailureSchedule spikes;
  spikes.LoadSpikeAt(0.5, /*stream=*/0, /*factor=*/3.0);
  SimulationOptions options;
  options.duration = 1.0;
  options.failures = &spikes;
  ReplaySet vec = ReplaySet::FromVectors({{0.1, 0.2}});
  options.replay = &vec;
  auto r = sim::SimulatePlacement(s.graph, s.plan, s.system,
                                  {ConstantTrace(10.0, 1.0)}, options);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The same schedule without replay is accepted.
  options.replay = nullptr;
  EXPECT_TRUE(sim::SimulatePlacement(s.graph, s.plan, s.system,
                                     {ConstantTrace(10.0, 1.0)}, options)
                  .ok());
}

TEST(TraceStoreReplayTest, ReplaySetRewindDrivesASecondIdenticalRun) {
  const FanOutScenario s;
  SimulationOptions options;
  options.duration = 10.0;
  const auto arrivals =
      MaterializeArrivals({ConstantTrace(300.0, options.duration)},
                          options.poisson_arrivals, options.seed,
                          options.duration);
  ScopedStore store("rod_store_rewind.rodtrc");
  WriterOptions wopts;
  wopts.records_per_segment = 256;
  ASSERT_TRUE(WriteTimestamps(arrivals[0], 0, store.path(), wopts).ok());
  auto replay = ReplaySet::OpenStores({store.path()});
  ASSERT_TRUE(replay.ok());
  const SimulationResult first = RunReplay(s, options, 300.0, &*replay);
  replay->Rewind();
  ExpectBitExact(first, RunReplay(s, options, 300.0, &*replay));
}

}  // namespace
}  // namespace rod::trace::store
