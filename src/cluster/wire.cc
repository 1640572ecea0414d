#include "cluster/wire.h"

#include <bit>
#include <cstring>

namespace rod::cluster {

namespace {

/// Per-message cap on repeated-field counts: far above any legitimate
/// cluster (the simulator's biggest graphs are a few hundred operators)
/// and small enough that a corrupt count cannot drive a giant resize.
constexpr uint32_t kMaxWireCount = 1u << 20;

Status FinishDecode(const WireReader& r, const char* what) {
  if (!r.ok()) return r.status();
  if (!r.AtEnd()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace

void WireWriter::AppendLe(uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

uint8_t WireReader::U8() {
  if (failed_ || pos_ + 1 > in_.size()) {
    failed_ = true;
    return 0;
  }
  return static_cast<uint8_t>(in_[pos_++]);
}

uint64_t WireReader::ReadLe(int bytes) {
  if (failed_ || pos_ + static_cast<size_t>(bytes) > in_.size()) {
    failed_ = true;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in_[pos_ + i]))
         << (8 * i);
  }
  pos_ += static_cast<size_t>(bytes);
  return v;
}

double WireReader::F64() { return std::bit_cast<double>(U64()); }

std::string WireReader::Str() {
  const uint32_t len = U32();
  if (failed_ || len > kMaxWireCount || pos_ + len > in_.size()) {
    failed_ = true;
    return {};
  }
  std::string s(in_.substr(pos_, len));
  pos_ += len;
  return s;
}

Status WireReader::status() const {
  if (!failed_) return Status::OK();
  return Status::InvalidArgument("payload truncated or field out of bounds");
}

// ---------------------------------------------------------------------------

std::string HelloMsg::Encode() const {
  WireWriter w;
  w.U16(data_port);
  w.U16(http_port);
  w.F64(capacity);
  w.Str(name);
  return w.Take();
}

Result<HelloMsg> HelloMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  HelloMsg m;
  m.data_port = r.U16();
  m.http_port = r.U16();
  m.capacity = r.F64();
  m.name = r.Str();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "hello"));
  return m;
}

std::string WelcomeMsg::Encode() const {
  WireWriter w;
  w.U32(worker_id);
  w.U32(num_workers);
  w.F64(heartbeat_interval);
  w.F64(heartbeat_timeout);
  return w.Take();
}

Result<WelcomeMsg> WelcomeMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  WelcomeMsg m;
  m.worker_id = r.U32();
  m.num_workers = r.U32();
  m.heartbeat_interval = r.F64();
  m.heartbeat_timeout = r.F64();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "welcome"));
  return m;
}

void EncodeQueryGraph(const query::QueryGraph& graph, WireWriter& w) {
  w.U32(static_cast<uint32_t>(graph.num_input_streams()));
  for (size_t k = 0; k < graph.num_input_streams(); ++k) {
    w.Str(graph.input_name(k));
  }
  w.U32(static_cast<uint32_t>(graph.num_operators()));
  for (size_t j = 0; j < graph.num_operators(); ++j) {
    const query::OperatorSpec& spec = graph.spec(j);
    w.Str(spec.name);
    w.U8(static_cast<uint8_t>(spec.kind));
    w.F64(spec.cost);
    w.F64(spec.selectivity);
    w.F64(spec.window);
    w.Bool(spec.variable_selectivity);
    w.F64(spec.qos_weight);
    const auto& arcs = graph.inputs_of(j);
    w.U32(static_cast<uint32_t>(arcs.size()));
    for (const query::Arc& arc : arcs) {
      w.U8(arc.from.kind == query::StreamRef::Kind::kInput ? 0 : 1);
      w.U32(static_cast<uint32_t>(arc.from.index));
      w.F64(arc.comm_cost);
    }
  }
}

Result<query::QueryGraph> DecodeQueryGraph(WireReader& r) {
  query::QueryGraph graph;
  const uint32_t num_inputs = r.U32();
  if (!r.ok() || num_inputs > kMaxWireCount) {
    return Status::InvalidArgument("graph: bad input-stream count");
  }
  for (uint32_t k = 0; k < num_inputs; ++k) {
    graph.AddInputStream(r.Str());
    if (!r.ok()) return r.status();
  }
  const uint32_t num_ops = r.U32();
  if (!r.ok() || num_ops > kMaxWireCount) {
    return Status::InvalidArgument("graph: bad operator count");
  }
  for (uint32_t j = 0; j < num_ops; ++j) {
    query::OperatorSpec spec;
    spec.name = r.Str();
    const uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(query::OperatorKind::kJoin)) {
      return Status::InvalidArgument("graph: unknown operator kind");
    }
    spec.kind = static_cast<query::OperatorKind>(kind);
    spec.cost = r.F64();
    spec.selectivity = r.F64();
    spec.window = r.F64();
    spec.variable_selectivity = r.Bool();
    spec.qos_weight = r.F64();
    const uint32_t num_arcs = r.U32();
    if (!r.ok() || num_arcs > kMaxWireCount) {
      return Status::InvalidArgument("graph: bad arc count");
    }
    std::vector<query::StreamRef> inputs;
    std::vector<double> comm_costs;
    inputs.reserve(num_arcs);
    comm_costs.reserve(num_arcs);
    for (uint32_t a = 0; a < num_arcs; ++a) {
      const uint8_t ref_kind = r.U8();
      const uint32_t index = r.U32();
      const double comm = r.F64();
      inputs.push_back(ref_kind == 0
                           ? query::StreamRef::Input(index)
                           : query::StreamRef::Op(index));
      comm_costs.push_back(comm);
    }
    if (!r.ok()) return r.status();
    auto added = graph.AddOperator(spec, inputs, comm_costs);
    if (!added.ok()) return added.status();
  }
  return graph;
}

std::string PlanMsg::Encode() const {
  WireWriter w;
  w.U64(version);
  EncodeQueryGraph(graph, w);
  w.U32(static_cast<uint32_t>(assignment.size()));
  for (uint32_t node : assignment) w.U32(node);
  w.U32(static_cast<uint32_t>(capacities.size()));
  for (double c : capacities) w.F64(c);
  w.U32(static_cast<uint32_t>(endpoints.size()));
  for (const WorkerEndpoint& e : endpoints) {
    w.U32(e.worker_id);
    w.U16(e.data_port);
  }
  w.U32(static_cast<uint32_t>(source_owner.size()));
  for (uint32_t owner : source_owner) w.U32(owner);
  return w.Take();
}

Result<PlanMsg> PlanMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  PlanMsg m;
  m.version = r.U64();
  auto graph = DecodeQueryGraph(r);
  if (!graph.ok()) return graph.status();
  m.graph = std::move(graph.value());
  const uint32_t num_assign = r.U32();
  if (!r.ok() || num_assign > kMaxWireCount) {
    return Status::InvalidArgument("plan: bad assignment count");
  }
  m.assignment.resize(num_assign);
  for (uint32_t& node : m.assignment) node = r.U32();
  const uint32_t num_caps = r.U32();
  if (!r.ok() || num_caps > kMaxWireCount) {
    return Status::InvalidArgument("plan: bad capacity count");
  }
  m.capacities.resize(num_caps);
  for (double& c : m.capacities) c = r.F64();
  const uint32_t num_eps = r.U32();
  if (!r.ok() || num_eps > kMaxWireCount) {
    return Status::InvalidArgument("plan: bad endpoint count");
  }
  m.endpoints.resize(num_eps);
  for (WorkerEndpoint& e : m.endpoints) {
    e.worker_id = r.U32();
    e.data_port = r.U16();
  }
  const uint32_t num_sources = r.U32();
  if (!r.ok() || num_sources > kMaxWireCount) {
    return Status::InvalidArgument("plan: bad source-owner count");
  }
  m.source_owner.resize(num_sources);
  for (uint32_t& owner : m.source_owner) owner = r.U32();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "plan"));
  if (m.assignment.size() != m.graph.num_operators()) {
    return Status::InvalidArgument("plan: assignment size != operators");
  }
  if (m.source_owner.size() != m.graph.num_input_streams()) {
    return Status::InvalidArgument("plan: source owners != input streams");
  }
  return m;
}

std::string PlanAckMsg::Encode() const {
  WireWriter w;
  w.U64(version);
  w.U32(worker_id);
  return w.Take();
}

Result<PlanAckMsg> PlanAckMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  PlanAckMsg m;
  m.version = r.U64();
  m.worker_id = r.U32();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "plan_ack"));
  return m;
}

std::string StartMsg::Encode() const {
  WireWriter w;
  w.F64(duration);
  w.F64(tick_seconds);
  w.U64(seed);
  w.U32(static_cast<uint32_t>(rates.size()));
  for (double rate : rates) w.F64(rate);
  return w.Take();
}

Result<StartMsg> StartMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  StartMsg m;
  m.duration = r.F64();
  m.tick_seconds = r.F64();
  m.seed = r.U64();
  const uint32_t num_rates = r.U32();
  if (!r.ok() || num_rates > kMaxWireCount) {
    return Status::InvalidArgument("start: bad rate count");
  }
  m.rates.resize(num_rates);
  for (double& rate : m.rates) rate = r.F64();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "start"));
  return m;
}

std::string HeartbeatMsg::Encode() const {
  WireWriter w;
  w.U32(worker_id);
  w.U64(seq);
  w.F64(uptime_seconds);
  w.U64(plan_version);
  w.U64(static_cast<uint64_t>(queue_depth));
  w.U32(static_cast<uint32_t>(loads.size()));
  for (const OpLoad& load : loads) {
    w.U32(load.op);
    w.U64(load.processed);
    w.F64(load.busy_seconds);
  }
  return w.Take();
}

Result<HeartbeatMsg> HeartbeatMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  HeartbeatMsg m;
  m.worker_id = r.U32();
  m.seq = r.U64();
  m.uptime_seconds = r.F64();
  m.plan_version = r.U64();
  m.queue_depth = static_cast<size_t>(r.U64());
  const uint32_t num_loads = r.U32();
  if (!r.ok() || num_loads > kMaxWireCount) {
    return Status::InvalidArgument("heartbeat: bad load count");
  }
  m.loads.resize(num_loads);
  for (OpLoad& load : m.loads) {
    load.op = r.U32();
    load.processed = r.U64();
    load.busy_seconds = r.F64();
  }
  ROD_RETURN_IF_ERROR(FinishDecode(r, "heartbeat"));
  return m;
}

std::string TupleBatchMsg::Encode() const {
  WireWriter w;
  w.U32(to_op);
  w.U32(to_port);
  w.U32(count);
  w.U32(from_worker);
  w.F64(create_time);
  w.F64(send_time_us);
  return w.Take();
}

Result<TupleBatchMsg> TupleBatchMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  TupleBatchMsg m;
  m.to_op = r.U32();
  m.to_port = r.U32();
  m.count = r.U32();
  m.from_worker = r.U32();
  m.create_time = r.F64();
  m.send_time_us = r.F64();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "tuples"));
  return m;
}

std::string PauseMsg::Encode() const {
  WireWriter w;
  w.U64(plan_version);
  w.U32(static_cast<uint32_t>(ops.size()));
  for (uint32_t op : ops) w.U32(op);
  return w.Take();
}

Result<PauseMsg> PauseMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  PauseMsg m;
  m.plan_version = r.U64();
  const uint32_t num_ops = r.U32();
  if (!r.ok() || num_ops > kMaxWireCount) {
    return Status::InvalidArgument("pause: bad op count");
  }
  m.ops.resize(num_ops);
  for (uint32_t& op : m.ops) op = r.U32();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "pause"));
  return m;
}

std::string PlanDiffMsg::Encode() const {
  WireWriter w;
  w.U64(version);
  w.U32(static_cast<uint32_t>(moves.size()));
  for (const OperatorMove& move : moves) {
    w.U32(move.op);
    w.U32(move.from_worker);
    w.U32(move.to_worker);
  }
  return w.Take();
}

Result<PlanDiffMsg> PlanDiffMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  PlanDiffMsg m;
  m.version = r.U64();
  const uint32_t num_moves = r.U32();
  if (!r.ok() || num_moves > kMaxWireCount) {
    return Status::InvalidArgument("plan_diff: bad move count");
  }
  m.moves.resize(num_moves);
  for (OperatorMove& move : m.moves) {
    move.op = r.U32();
    move.from_worker = r.U32();
    move.to_worker = r.U32();
  }
  ROD_RETURN_IF_ERROR(FinishDecode(r, "plan_diff"));
  return m;
}

std::string PingMsg::Encode() const {
  WireWriter w;
  w.U64(seq);
  w.F64(t1_us);
  return w.Take();
}

Result<PingMsg> PingMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  PingMsg m;
  m.seq = r.U64();
  m.t1_us = r.F64();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "ping"));
  return m;
}

std::string PongMsg::Encode() const {
  WireWriter w;
  w.U64(seq);
  w.U32(worker_id);
  w.F64(t1_us);
  w.F64(t2_us);
  w.F64(t3_us);
  return w.Take();
}

Result<PongMsg> PongMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  PongMsg m;
  m.seq = r.U64();
  m.worker_id = r.U32();
  m.t1_us = r.F64();
  m.t2_us = r.F64();
  m.t3_us = r.F64();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "pong"));
  return m;
}

std::string StatsReportMsg::Encode() const {
  WireWriter w;
  w.U32(worker_id);
  w.U32(static_cast<uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    w.Str(name);
    w.U64(value);
  }
  w.U32(static_cast<uint32_t>(gauges.size()));
  for (const auto& [name, value] : gauges) {
    w.Str(name);
    w.F64(value);
  }
  w.U32(static_cast<uint32_t>(histograms.size()));
  for (const HistogramState& h : histograms) {
    w.Str(h.name);
    w.U64(h.count);
    w.F64(h.sum);
    w.F64(h.min);
    w.F64(h.max);
    w.U32(static_cast<uint32_t>(h.buckets.size()));
    for (const auto& [bound, n] : h.buckets) {
      w.F64(bound);
      w.U64(n);
    }
  }
  return w.Take();
}

Result<StatsReportMsg> StatsReportMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  StatsReportMsg m;
  m.worker_id = r.U32();
  const uint32_t num_counters = r.U32();
  if (!r.ok() || num_counters > kMaxWireCount) {
    return Status::InvalidArgument("stats_report: bad counter count");
  }
  m.counters.resize(num_counters);
  for (auto& [name, value] : m.counters) {
    name = r.Str();
    value = r.U64();
  }
  const uint32_t num_gauges = r.U32();
  if (!r.ok() || num_gauges > kMaxWireCount) {
    return Status::InvalidArgument("stats_report: bad gauge count");
  }
  m.gauges.resize(num_gauges);
  for (auto& [name, value] : m.gauges) {
    name = r.Str();
    value = r.F64();
  }
  const uint32_t num_hists = r.U32();
  if (!r.ok() || num_hists > kMaxWireCount) {
    return Status::InvalidArgument("stats_report: bad histogram count");
  }
  m.histograms.resize(num_hists);
  for (HistogramState& h : m.histograms) {
    h.name = r.Str();
    h.count = r.U64();
    h.sum = r.F64();
    h.min = r.F64();
    h.max = r.F64();
    const uint32_t num_buckets = r.U32();
    if (!r.ok() || num_buckets > kMaxWireCount) {
      return Status::InvalidArgument("stats_report: bad bucket count");
    }
    h.buckets.resize(num_buckets);
    for (auto& [bound, n] : h.buckets) {
      bound = r.F64();
      n = r.U64();
    }
  }
  ROD_RETURN_IF_ERROR(FinishDecode(r, "stats_report"));
  return m;
}

std::string ClockSyncMsg::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(entries.size()));
  for (const Entry& e : entries) {
    w.U32(e.worker_id);
    w.F64(e.offset_us);
    w.F64(e.rtt_us);
  }
  return w.Take();
}

Result<ClockSyncMsg> ClockSyncMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  ClockSyncMsg m;
  const uint32_t num_entries = r.U32();
  if (!r.ok() || num_entries > kMaxWireCount) {
    return Status::InvalidArgument("clock_sync: bad entry count");
  }
  m.entries.resize(num_entries);
  for (Entry& e : m.entries) {
    e.worker_id = r.U32();
    e.offset_us = r.F64();
    e.rtt_us = r.F64();
  }
  ROD_RETURN_IF_ERROR(FinishDecode(r, "clock_sync"));
  return m;
}

std::string FreezeMsg::Encode() const {
  WireWriter w;
  w.U64(incident_id);
  w.Str(kind);
  w.Str(detail);
  return w.Take();
}

Result<FreezeMsg> FreezeMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  FreezeMsg m;
  m.incident_id = r.U64();
  m.kind = r.Str();
  m.detail = r.Str();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "freeze"));
  return m;
}

std::string FrozenReportMsg::Encode() const {
  WireWriter w;
  w.U64(incident_id);
  w.U32(worker_id);
  w.Str(incident_json);
  return w.Take();
}

Result<FrozenReportMsg> FrozenReportMsg::Decode(std::string_view payload) {
  WireReader r(payload);
  FrozenReportMsg m;
  m.incident_id = r.U64();
  m.worker_id = r.U32();
  m.incident_json = r.Str();
  ROD_RETURN_IF_ERROR(FinishDecode(r, "frozen_report"));
  return m;
}

}  // namespace rod::cluster
