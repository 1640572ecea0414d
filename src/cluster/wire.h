// Copyright (c) the ROD reproduction authors.
//
// Payload serialization for the cluster protocol: a little-endian
// bounds-checked reader/writer pair plus one struct per message type
// (frame.h owns the framing; this file owns what is inside each frame).
// The deployment plan ships the whole query graph, so a worker process
// needs no out-of-band configuration: everything it executes arrives
// from the coordinator over the wire.

#ifndef ROD_CLUSTER_WIRE_H_
#define ROD_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/query_graph.h"

namespace rod::cluster {

/// Little-endian append-only payload builder.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { AppendLe(v, 2); }
  void U32(uint32_t v) { AppendLe(v, 4); }
  void U64(uint64_t v) { AppendLe(v, 8); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view s);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void AppendLe(uint64_t v, int bytes);

  std::string out_;
};

/// Bounds-checked little-endian reader over one payload. Any under-read
/// latches a failure; callers check `status()` once after decoding
/// instead of after every field.
class WireReader {
 public:
  explicit WireReader(std::string_view in) : in_(in) {}

  uint8_t U8();
  uint16_t U16() { return static_cast<uint16_t>(ReadLe(2)); }
  uint32_t U32() { return static_cast<uint32_t>(ReadLe(4)); }
  uint64_t U64() { return ReadLe(8); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();

  /// True while every read so far stayed in bounds.
  bool ok() const { return !failed_; }

  /// All bytes consumed and no read failed.
  bool AtEnd() const { return ok() && pos_ == in_.size(); }

  /// OK, or kInvalidArgument naming the first out-of-bounds read.
  Status status() const;

 private:
  uint64_t ReadLe(int bytes);

  std::string_view in_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Message payloads. Each struct has Encode() and a static Decode that
// rejects truncated, oversized, or trailing-garbage payloads with
// kInvalidArgument.

/// worker -> coordinator registration.
struct HelloMsg {
  uint16_t data_port = 0;  ///< Where this worker accepts kTuples peers.
  uint16_t http_port = 0;  ///< Its observability plane (0: not serving).
  double capacity = 1.0;   ///< CPU-seconds of processing per second.
  std::string name;        ///< Diagnostic label (e.g. "worker-pid-1234").

  std::string Encode() const;
  static Result<HelloMsg> Decode(std::string_view payload);
};

/// coordinator -> worker registration reply.
struct WelcomeMsg {
  uint32_t worker_id = 0;        ///< This worker's node index.
  uint32_t num_workers = 0;      ///< Cluster size being assembled.
  double heartbeat_interval = 0.5;
  double heartbeat_timeout = 2.0;

  std::string Encode() const;
  static Result<WelcomeMsg> Decode(std::string_view payload);
};

/// One worker's data-plane endpoint, shipped inside the plan so peers
/// can dial each other without any local configuration.
struct WorkerEndpoint {
  uint32_t worker_id = 0;
  uint16_t data_port = 0;
};

/// coordinator -> worker: the full deployment. Shipping the graph keeps
/// workers configuration-free; shipping the assignment + endpoints gives
/// every worker the same routing view the coordinator planned.
struct PlanMsg {
  uint64_t version = 1;                  ///< Monotone per reassignment.
  query::QueryGraph graph;
  std::vector<uint32_t> assignment;      ///< operator -> worker id.
  std::vector<double> capacities;        ///< Per worker id.
  std::vector<WorkerEndpoint> endpoints; ///< One per live worker.
  std::vector<uint32_t> source_owner;    ///< input stream -> generating
                                         ///< worker id.

  std::string Encode() const;
  static Result<PlanMsg> Decode(std::string_view payload);
};

/// worker -> coordinator: plan (or diff) version installed.
struct PlanAckMsg {
  uint64_t version = 0;
  uint32_t worker_id = 0;

  std::string Encode() const;
  static Result<PlanAckMsg> Decode(std::string_view payload);
};

/// coordinator -> worker: begin generating/processing the workload.
struct StartMsg {
  double duration = 0.0;        ///< Seconds of source generation.
  double tick_seconds = 0.05;   ///< Source emission granularity.
  uint64_t seed = 1;            ///< Base seed for worker-local RNG.
  std::vector<double> rates;    ///< Tuples/sec per input stream.

  std::string Encode() const;
  static Result<StartMsg> Decode(std::string_view payload);
};

/// worker -> coordinator liveness + load report.
struct HeartbeatMsg {
  uint32_t worker_id = 0;
  uint64_t seq = 0;
  double uptime_seconds = 0.0;   ///< Since this worker's kStart.
  uint64_t plan_version = 0;     ///< Routing version it executes.
  size_t queue_depth = 0;        ///< Batches waiting in its loop.
  /// Per hosted operator: cumulative tuples processed and modeled busy
  /// CPU-seconds — the coordinator's live load estimate per operator.
  struct OpLoad {
    uint32_t op = 0;
    uint64_t processed = 0;
    double busy_seconds = 0.0;
  };
  std::vector<OpLoad> loads;

  std::string Encode() const;
  static Result<HeartbeatMsg> Decode(std::string_view payload);
};

/// worker -> worker: one batch of `count` tuples for operator `to_op`,
/// entering at input port `to_port`. Tuples are modeled (count + origin
/// timestamp), matching the simulator's rate-based semantics; the wire
/// cost of a real payload is modeled by `bytes_padding` in benchmarks.
struct TupleBatchMsg {
  uint32_t to_op = 0;
  uint32_t to_port = 0;
  uint32_t count = 0;
  uint32_t from_worker = 0;
  double create_time = 0.0;  ///< Batch origin time on the run clock.
  /// Send instant on the sender's telemetry clock (microseconds). The
  /// receiver rebases it with the coordinator-distributed clock offsets
  /// (kClockSync) to measure end-to-end ship latency; 0 means unstamped.
  double send_time_us = 0.0;

  std::string Encode() const;
  static Result<TupleBatchMsg> Decode(std::string_view payload);
};

/// coordinator -> worker: pause the listed operators (migration fence).
struct PauseMsg {
  uint64_t plan_version = 0;  ///< The diff these pauses fence.
  std::vector<uint32_t> ops;

  std::string Encode() const;
  static Result<PauseMsg> Decode(std::string_view payload);
};

/// One operator move of a plan diff.
struct OperatorMove {
  uint32_t op = 0;
  uint32_t from_worker = 0;
  uint32_t to_worker = 0;
};

/// coordinator -> worker: incremental reassignment (the plan-diff step of
/// pause -> drain -> reassign -> resume).
struct PlanDiffMsg {
  uint64_t version = 0;
  std::vector<OperatorMove> moves;

  std::string Encode() const;
  static Result<PlanDiffMsg> Decode(std::string_view payload);
};

/// coordinator -> worker clock-sync probe. `t1_us` is the coordinator's
/// telemetry clock at send; the worker echoes it back untouched.
struct PingMsg {
  uint64_t seq = 0;
  double t1_us = 0.0;

  std::string Encode() const;
  static Result<PingMsg> Decode(std::string_view payload);
};

/// worker -> coordinator probe echo. `t2_us`/`t3_us` are the worker's
/// telemetry clock at receive/reply; the coordinator stamps t4 on receipt
/// and feeds (t1, t2, t3, t4) to its ClockSyncEstimator.
struct PongMsg {
  uint64_t seq = 0;
  uint32_t worker_id = 0;
  double t1_us = 0.0;
  double t2_us = 0.0;
  double t3_us = 0.0;

  std::string Encode() const;
  static Result<PongMsg> Decode(std::string_view payload);
};

/// worker -> coordinator: the delta of this worker's metric registry
/// since its previous report — kStatsReport on the heartbeat cadence,
/// and once more as the kFinalStats reply to kFinish (sent even when
/// empty). Values are cumulative — the coordinator merges by overwrite,
/// so a lost report self-heals on the next one.
struct StatsReportMsg {
  struct HistogramState {
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Log-scale (upper_bound, count) pairs, cumulative counts not
    /// required: plain per-bucket tallies, matching HistogramSnapshot.
    std::vector<std::pair<double, uint64_t>> buckets;
  };

  uint32_t worker_id = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramState> histograms;

  std::string Encode() const;
  static Result<StatsReportMsg> Decode(std::string_view payload);
};

/// coordinator -> worker: the latest per-worker clock offsets, in
/// coordinator-clock terms (worker_time_us + offset_us = coordinator
/// time). Workers use their own and their peers' offsets to rebase
/// TupleBatchMsg::send_time_us into one shared timebase.
struct ClockSyncMsg {
  struct Entry {
    uint32_t worker_id = 0;
    double offset_us = 0.0;
    double rtt_us = 0.0;
  };
  std::vector<Entry> entries;

  std::string Encode() const;
  static Result<ClockSyncMsg> Decode(std::string_view payload);
};

/// coordinator -> worker: freeze your observability rings now. Sent on
/// failure detection so every survivor snapshots at (approximately) the
/// same aligned instant.
struct FreezeMsg {
  uint64_t incident_id = 0;
  std::string kind;    ///< e.g. "worker_failure".
  std::string detail;  ///< Human-readable cause.

  std::string Encode() const;
  static Result<FreezeMsg> Decode(std::string_view payload);
};

/// worker -> coordinator: the frozen flight-recorder incident, rendered
/// as a self-contained JSON object, to embed in the coordinator's
/// cluster-wide incident report.
struct FrozenReportMsg {
  uint64_t incident_id = 0;
  uint32_t worker_id = 0;
  std::string incident_json;

  std::string Encode() const;
  static Result<FrozenReportMsg> Decode(std::string_view payload);
};

// Serialization of a query graph (inside PlanMsg; exposed for tests).
void EncodeQueryGraph(const query::QueryGraph& graph, WireWriter& w);
Result<query::QueryGraph> DecodeQueryGraph(WireReader& r);

}  // namespace rod::cluster

#endif  // ROD_CLUSTER_WIRE_H_
