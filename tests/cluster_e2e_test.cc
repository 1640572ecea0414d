// End-to-end cluster tests with real processes: the coordinator runs in
// the test process, and each worker is a rod_worker process started with
// posix_spawn (never fork(): the test process has live threads). The
// chaos cases assert the full recovery pipeline — detection,
// supervisor-driven plan diff (pause -> drain -> reassign -> resume),
// survivor completion, and a populated IncidentReport — for both kinds
// of evidence: a kill -9 loses the control connection, a SIGSTOP leaves
// it open and only the heartbeat deadline catches it. Fake workers on
// raw control connections send what a real worker never would, and a
// scripted coordinator drives an in-process Worker frame by frame to pin
// the order of its replies.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/worker.h"
#include "common/random.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"
#include "runtime/engine.h"
#include "runtime/supervisor.h"
#include "telemetry/json_reader.h"

extern char** environ;

namespace rod::cluster {
namespace {

using namespace std::chrono_literals;

/// Workload length of the four-worker chaos runs.
constexpr double kFourWorkerDuration = 3.0;

query::QueryGraph TestGraph() {
  query::GraphGenOptions options;
  options.num_input_streams = 3;
  options.ops_per_tree = 6;
  Rng rng(7);
  return query::GenerateRandomTrees(options, rng);
}

CoordinatorOptions FastOptions() {
  CoordinatorOptions options;
  options.expected_workers = 3;
  options.heartbeat_interval = 0.1;
  options.heartbeat_timeout = 0.5;
  options.duration = 2.0;
  options.default_rate = 200.0;
  options.finish_grace = 0.4;
  options.register_timeout = 20.0;
  return options;
}

std::string WorkerName(size_t k) { return "e2e-" + std::to_string(k); }

/// Starts `n` rod_worker processes against `port`, named WorkerName(k),
/// and returns their pids; none if one failed to start (so no caller
/// ever signals pid -1, which means every process).
std::vector<pid_t> SpawnWorkers(uint16_t port, size_t n,
                                bool serve_http = false) {
  std::vector<pid_t> pids;
  for (size_t k = 0; k < n; ++k) {
    std::vector<std::string> args = {ROD_WORKER_PATH, "--coordinator",
                                     std::to_string(port), "--name",
                                     WorkerName(k)};
    if (!serve_http) args.push_back("--no-http");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, ROD_WORKER_PATH, nullptr, nullptr,
                                 argv.data(), environ);
    if (rc != 0) {
      ADD_FAILURE() << "posix_spawn " << ROD_WORKER_PATH << ": "
                    << std::strerror(rc);
      for (const pid_t started : pids) ::kill(started, SIGKILL);
      return {};
    }
    pids.push_back(pid);
  }
  return pids;
}

/// One raw loopback HTTP GET; returns the whole response (or "").
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Body of a 200 response; empty on any other status (or no response).
std::string HttpBody(const std::string& response) {
  if (response.find("HTTP/1.1 200") != 0) return "";
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

/// The value text of one exposition series (exact name + labels match),
/// or "" if the series is absent.
std::string SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos;
  if (text.rfind(needle, 0) == 0) {
    pos = 0;
  } else {
    pos = text.find("\n" + needle);
    if (pos == std::string::npos) return "";
    ++pos;
  }
  const size_t start = pos + needle.size();
  return text.substr(start, text.find('\n', start) - start);
}

int WaitFor(pid_t pid) {
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

uint64_t CounterValue(Coordinator& coordinator, const char* name) {
  const telemetry::MetricsSnapshot snap = coordinator.telemetry().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

uint64_t FailuresDetected(Coordinator& coordinator) {
  return CounterValue(coordinator, "cluster.failures_detected");
}

/// The coordinator-assigned id of the worker that registered as `name`.
uint32_t IdOf(const ClusterReport& report, const std::string& name) {
  for (const ClusterReport::WorkerSummary& worker : report.workers) {
    if (worker.name == name) return worker.worker_id;
  }
  ADD_FAILURE() << "no worker named " << name;
  return 0;
}

void ExpectSurvivorsReported(const ClusterReport& report, size_t survivors) {
  size_t alive = 0, finals = 0;
  for (const auto& worker : report.workers) {
    alive += worker.alive ? 1 : 0;
    finals += worker.final_stats ? 1 : 0;
  }
  EXPECT_EQ(alive, survivors);
  EXPECT_EQ(finals, survivors);
}

struct LossOutcome {
  std::string incident;      ///< The run's one incident, as JSON.
  double run_seconds = 0.0;  ///< Wall time of Coordinator::Run().
};

/// Runs a four-worker cluster while `lose_two`, on its own thread 1.2 s
/// into the run, takes out workers[0] and workers[1]; once Run() returns
/// both are SIGKILLed, in case one was only stopped. Both losses must
/// end up in one recovered incident whose plan went live less than
/// `heartbeat_timeout + slack` after detection, with the other two
/// workers finishing cleanly.
LossOutcome RunLosingTwoOfFour(
    const std::function<void(const std::vector<pid_t>&, Coordinator&)>&
        lose_two,
    double slack = 0.0) {
  CoordinatorOptions options = FastOptions();
  options.expected_workers = 4;
  options.duration = kFourWorkerDuration;
  Coordinator coordinator(TestGraph(), options);
  if (!coordinator.Listen().ok()) {
    ADD_FAILURE() << "coordinator could not listen";
    return {};
  }

  const std::vector<pid_t> workers = SpawnWorkers(coordinator.port(), 4);
  if (workers.size() != 4) return {};
  std::thread killer([&] {
    std::this_thread::sleep_for(1200ms);
    lose_two(workers, coordinator);
  });
  LossOutcome outcome;
  const auto begin = std::chrono::steady_clock::now();
  const Status run = coordinator.Run();
  outcome.run_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
  killer.join();
  ::kill(workers[0], SIGKILL);
  ::kill(workers[1], SIGKILL);
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (size_t k = 0; k < workers.size(); ++k) {
    const int wstatus = WaitFor(workers[k]);
    if (k < 2) {
      EXPECT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);
    } else {
      EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
    }
  }

  // A diff counts only once it leaves no operator on either dead worker,
  // whichever failure triggered it.
  const ClusterReport& report = coordinator.report();
  EXPECT_TRUE(report.had_incident);
  EXPECT_TRUE(report.incident.recovered);
  EXPECT_LT(report.incident.plan_applied_time - report.incident.detect_time,
            options.heartbeat_timeout + slack);
  EXPECT_EQ(FailuresDetected(coordinator), 2u);
  ExpectSurvivorsReported(report, 2);
  const std::vector<std::string> incidents =
      coordinator.flight_recorder().IncidentJsons();
  EXPECT_EQ(incidents.size(), 1u);
  if (!incidents.empty()) outcome.incident = incidents[0];
  return outcome;
}

/// A stand-in worker on a raw control connection. It registers, acks the
/// plan and answers clock-sync pings until a `last` frame arrives, which
/// it leaves unanswered; after that it sends only what the test writes
/// to `conn`.
struct FakeWorker {
  FrameConn conn;
  uint32_t id = 0;

  Status RunUntil(MsgType last, uint16_t port, const std::string& name) {
    auto dialed = FrameConn::DialLoopback(port, 10.0);
    if (!dialed.ok()) return dialed.status();
    conn = std::move(dialed.value());
    HelloMsg hello;
    hello.name = name;
    ROD_RETURN_IF_ERROR(conn.Send(MsgType::kHello, hello.Encode()));
    for (;;) {
      Frame frame;
      ROD_RETURN_IF_ERROR(conn.Recv(&frame));
      if (frame.type == last) return Status::OK();
      if (frame.type == MsgType::kWelcome) {
        auto welcome = WelcomeMsg::Decode(frame.payload);
        if (!welcome.ok()) return welcome.status();
        id = welcome->worker_id;
      } else if (frame.type == MsgType::kPlan) {
        auto plan = PlanMsg::Decode(frame.payload);
        if (!plan.ok()) return plan.status();
        const PlanAckMsg ack{plan->version, id};
        ROD_RETURN_IF_ERROR(conn.Send(MsgType::kPlanAck, ack.Encode()));
      } else if (frame.type == MsgType::kPing) {
        auto ping = PingMsg::Decode(frame.payload);
        if (!ping.ok()) return ping.status();
        PongMsg pong;
        pong.seq = ping->seq;
        pong.worker_id = id;
        pong.t1_us = pong.t2_us = pong.t3_us = ping->t1_us;
        ROD_RETURN_IF_ERROR(conn.Send(MsgType::kPong, pong.Encode()));
      }
    }
  }
};

/// The coordinator's side of one in-process Worker's control connection,
/// played by the test. It registers the worker as worker 0 of two and
/// installs plan version 1, which leaves every odd operator on worker 1,
/// a worker that exists only on paper. The run starts with its sources
/// off, so the worker sends only replies and its heartbeat-tick frames.
class ScriptedCoordinator {
 public:
  static constexpr double kHeartbeatInterval = 0.1;

  ScriptedCoordinator() {
    EXPECT_TRUE(listener_.Listen(0).ok());
    WorkerOptions options;
    options.coordinator_port = listener_.port();
    options.serve_http = false;
    options.name = "scripted";
    worker_ = std::make_unique<Worker>(options);
    runner_ = std::thread([this] { (void)worker_->Run(); });
  }

  ~ScriptedCoordinator() {
    (void)conn_.Send(MsgType::kShutdown, "");
    worker_->RequestStop();
    runner_.join();
  }

  ScriptedCoordinator(const ScriptedCoordinator&) = delete;
  ScriptedCoordinator& operator=(const ScriptedCoordinator&) = delete;

  /// Accepts the worker, welcomes it, installs the plan and starts the
  /// run.
  Status Register() {
    pollfd dial{listener_.fd(), POLLIN, 0};
    if (::poll(&dial, 1, 10000) != 1) {
      return Status::Unavailable("the worker never dialed");
    }
    auto accepted = listener_.Accept(10.0);
    if (!accepted.ok()) return accepted.status();
    conn_ = std::move(accepted.value());
    ROD_RETURN_IF_ERROR(Expect(MsgType::kHello).status());

    WelcomeMsg welcome;
    welcome.worker_id = 0;
    welcome.num_workers = 2;
    welcome.heartbeat_interval = kHeartbeatInterval;
    ROD_RETURN_IF_ERROR(Send(MsgType::kWelcome, welcome.Encode()));

    PlanMsg plan;
    plan.version = 1;
    plan.graph = TestGraph();
    for (uint32_t op = 0; op < plan.graph.num_operators(); ++op) {
      plan.assignment.push_back(op % 2);
      if (op % 2 == 1) moves_.push_back({op, 1, 0});
    }
    plan.capacities = {1.0, 1.0};
    plan.endpoints = {{0, 0}};
    plan.source_owner.assign(plan.graph.num_input_streams(), 0);
    ROD_RETURN_IF_ERROR(Send(MsgType::kPlan, plan.Encode()));
    ROD_RETURN_IF_ERROR(Expect(MsgType::kPlanAck).status());

    StartMsg start;
    start.duration = 0.0;  // Sources off.
    return Send(MsgType::kStart, start.Encode());
  }

  Status Send(MsgType type, std::string_view payload) {
    return conn_.Send(type, payload);
  }

  /// The worker's next frame other than a heartbeat or a stats report;
  /// kUnavailable if none arrives within `timeout` seconds.
  Result<Frame> Next(double timeout = 10.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout);
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      pollfd readable{conn_.fd(), POLLIN, 0};
      if (left <= 0 || ::poll(&readable, 1, static_cast<int>(left)) != 1) {
        return Status::Unavailable("no frame from the worker in time");
      }
      Frame frame;
      ROD_RETURN_IF_ERROR(conn_.Recv(&frame));
      if (frame.type != MsgType::kHeartbeat &&
          frame.type != MsgType::kStatsReport) {
        return frame;
      }
    }
  }

  /// Next(), which must be a `type` frame.
  Result<Frame> Expect(MsgType type) {
    auto frame = Next();
    if (frame.ok() && frame->type != type) {
      return Status::InvalidArgument(std::string("expected ") +
                                     MsgTypeName(type) + ", got " +
                                     MsgTypeName(frame->type));
    }
    return frame;
  }

  /// The moves that re-home worker 1's operators on worker 0.
  const std::vector<OperatorMove>& moves() const { return moves_; }

 private:
  FrameListener listener_;
  FrameConn conn_;
  std::vector<OperatorMove> moves_;
  std::unique_ptr<Worker> worker_;
  std::thread runner_;
};

FreezeMsg ScriptedFreeze() {
  FreezeMsg freeze;
  freeze.incident_id = 7;
  freeze.kind = "cluster.worker_failure";
  freeze.detail = "scripted";
  return freeze;
}

/// Forwards to a Supervisor and keeps the last plan it returned.
class RecordingAgent : public sim::ControlAgent {
 public:
  explicit RecordingAgent(sim::Supervisor* supervisor)
      : supervisor_(supervisor) {}

  double detection_delay() const override {
    return supervisor_->detection_delay();
  }
  std::optional<sim::PlanUpdate> OnFailureDetected(
      double now, uint32_t failed_node, const std::vector<bool>& node_up,
      const sim::Deployment& deployment) override {
    auto update =
        supervisor_->OnFailureDetected(now, failed_node, node_up, deployment);
    if (update.has_value()) last_update = update;
    return update;
  }
  double RepairRetryDelay() override {
    return supervisor_->RepairRetryDelay();
  }

  std::optional<sim::PlanUpdate> last_update;

 private:
  sim::Supervisor* supervisor_;
};

TEST(ClusterE2eTest, ThreeWorkerRunCompletesAndAggregates) {
  Coordinator coordinator(TestGraph(), FastOptions());
  ASSERT_TRUE(coordinator.Listen().ok());

  const std::vector<pid_t> workers = SpawnWorkers(coordinator.port(), 3);
  ASSERT_EQ(workers.size(), 3u);

  const Status run = coordinator.Run();
  EXPECT_TRUE(run.ok()) << run.ToString();

  for (const pid_t pid : workers) {
    const int wstatus = WaitFor(pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }

  const ClusterReport& report = coordinator.report();
  EXPECT_EQ(report.num_workers, 3u);
  EXPECT_EQ(report.plan_version, 1u);
  EXPECT_FALSE(report.had_incident);
  EXPECT_GT(report.plan_ship_seconds, 0.0);
  EXPECT_LT(report.plan_ship_seconds, 5.0);
  // ~3 streams * 200/s * 2s of generation, minus tick rounding.
  EXPECT_GT(report.totals.generated, 600u);
  EXPECT_GT(report.totals.delivered, 0u);
  EXPECT_EQ(report.totals.lost_tuples, 0u);
  // Placement spreads operators, so tuples really crossed processes, and
  // every shipped batch was received by a peer.
  EXPECT_GT(report.totals.shipped, 0u);
  EXPECT_EQ(report.totals.shipped, report.totals.received);
  ASSERT_EQ(report.workers.size(), 3u);
  for (const auto& worker : report.workers) {
    EXPECT_TRUE(worker.alive);
    EXPECT_TRUE(worker.final_stats);
    // Every worker's clock got aligned during the sync burst. All three
    // processes share this machine's clock, so the estimated offset is
    // bounded by scheduling noise, not real skew.
    EXPECT_TRUE(worker.clock_synced);
    EXPECT_GT(worker.clock_rtt_us, 0.0);
    EXPECT_LT(std::abs(worker.clock_offset_us), 1e6);
  }
  // Tuples crossed processes, so the federated offset-corrected ship
  // latency histogram is populated and internally consistent.
  EXPECT_GT(report.ship_latency.count, 0u);
  EXPECT_GT(report.ship_latency.mean_us, 0.0);
  EXPECT_LE(report.ship_latency.p50_us, report.ship_latency.p99_us);
  EXPECT_LE(report.ship_latency.p99_us, report.ship_latency.max_us);
}

TEST(ClusterE2eTest, FederatedMetricsAgreeWithWorkerPlanes) {
  CoordinatorOptions options = FastOptions();
  options.serve_http = true;
  options.duration = 3.0;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());
  const uint16_t http_port = coordinator.http_port();
  ASSERT_NE(http_port, 0);
  const std::vector<pid_t> workers =
      SpawnWorkers(coordinator.port(), 3, /*serve_http=*/true);
  ASSERT_EQ(workers.size(), 3u);

  // Mid-run scraper: once the coordinator is ready, poll until one
  // consistent scrape where every worker's own /metrics plane agrees
  // with its worker-labeled series in the federated /metrics. Counters
  // lag by at most one heartbeat, so disagreement is retried, not fatal.
  bool agreed = false;
  std::string failure = "scrape loop never saw a ready coordinator";
  std::thread scraper([&] {
    for (int attempt = 0; attempt < 200 && !agreed; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      if (HttpBody(HttpGet(http_port, "/readyz")).empty()) continue;
      const std::string summary = HttpBody(HttpGet(http_port, "/cluster.json"));
      auto cluster = telemetry::ParseJson(summary);
      if (!cluster.ok()) continue;
      const telemetry::JsonValue* members = cluster->Find("workers");
      if (members == nullptr || !members->is_array() ||
          members->items().size() != 3) {
        failure = "cluster.json missing 3 workers: " + summary;
        continue;
      }
      const std::string fed = HttpBody(HttpGet(http_port, "/metrics"));
      bool all = true;
      for (const telemetry::JsonValue& w : members->items()) {
        const int wid = static_cast<int>(w.NumberOr("worker_id", -1.0));
        const std::string name = w.StringOr("name", "");
        const auto wport = static_cast<uint16_t>(w.NumberOr("http_port", 0.0));
        const telemetry::JsonValue* clock = w.Find("clock");
        if (wport == 0 || clock == nullptr ||
            !clock->Find("synced")->boolean()) {
          failure = "worker not scrapeable/synced yet: " + summary;
          all = false;
          break;
        }
        const std::string plane = HttpBody(HttpGet(wport, "/metrics"));
        const std::string label =
            "{name=\"" + name + "\",worker=\"" + std::to_string(wid) + "\"}";
        // Exact agreement: the coordinator's clock estimate vs the last
        // kClockSync the worker installed, and the kStatsReport-federated
        // sync counter vs the worker's live one.
        for (const char* family :
             {"cluster_clock_offset_us", "cluster_clock_syncs"}) {
          const std::string fed_value = SeriesValue(fed, family + label);
          const std::string plane_value = SeriesValue(plane, family);
          if (fed_value.empty() || fed_value != plane_value) {
            failure = std::string(family) + label + ": federated=\"" +
                      fed_value + "\" plane=\"" + plane_value + "\"";
            all = false;
            break;
          }
        }
        if (!all) break;
        // Monotone counter: the federated cumulative is a recent snapshot
        // of the live series — positive and never ahead of it.
        const std::string fed_tuples =
            SeriesValue(fed, "cluster_tuples_processed" + label);
        const std::string plane_tuples =
            SeriesValue(plane, "cluster_tuples_processed");
        if (fed_tuples.empty() || plane_tuples.empty() ||
            std::strtod(fed_tuples.c_str(), nullptr) <= 0.0 ||
            std::strtod(fed_tuples.c_str(), nullptr) >
                std::strtod(plane_tuples.c_str(), nullptr)) {
          failure = "cluster_tuples_processed" + label + ": federated=\"" +
                    fed_tuples + "\" plane=\"" + plane_tuples + "\"";
          all = false;
          break;
        }
      }
      if (all) agreed = true;
    }
  });

  const Status run = coordinator.Run();
  scraper.join();
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (const pid_t pid : workers) {
    const int wstatus = WaitFor(pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }
  EXPECT_TRUE(agreed) << failure;

  // Single source: the HTTP plane outlives Run(), and one final scrape
  // agrees exactly with the report, because both read the same federated
  // registries (each ending with the worker's kFinalStats delta).
  const std::string fed = HttpBody(HttpGet(http_port, "/metrics"));
  const ClusterReport& report = coordinator.report();
  EXPECT_GT(report.totals.delivered, 0u);
  ASSERT_EQ(report.workers.size(), 3u);
  uint64_t batches_received = 0;
  for (const ClusterReport::WorkerSummary& worker : report.workers) {
    const std::string label = "{name=\"" + worker.name + "\",worker=\"" +
                              std::to_string(worker.worker_id) + "\"}";
    const auto series = [&](const std::string& family) -> uint64_t {
      const std::string value = SeriesValue(fed, family + label);
      EXPECT_FALSE(value.empty()) << family << label;
      return std::strtoull(value.c_str(), nullptr, 10);
    };
    const WorkerCounters& c = worker.counters;
    EXPECT_TRUE(worker.final_stats);
    EXPECT_EQ(c.generated, series("cluster_tuples_generated"));
    EXPECT_EQ(c.processed, series("cluster_tuples_processed"));
    EXPECT_EQ(c.emitted, series("cluster_tuples_emitted"));
    EXPECT_EQ(c.delivered, series("cluster_tuples_delivered"));
    EXPECT_EQ(c.shipped, series("cluster_tuples_shipped"));
    EXPECT_EQ(c.received, series("cluster_tuples_received"));
    EXPECT_EQ(c.lost_tuples, series("cluster_tuples_lost"));
    EXPECT_EQ(c.ship_failures, series("cluster_ship_failures"));
    // One sink-latency record per delivered batch, weighted by its size.
    EXPECT_EQ(c.latency_count, c.delivered);
    batches_received += series("cluster_batches_received");
  }
  // Ship latency is weighted the same way. At 200 tuples/s per stream
  // and 50 ms ticks a batch carries several tuples, so a histogram that
  // counted batches would hold at most `batches_received` samples. Only
  // tuples received after both ends' clocks synced are measured.
  EXPECT_GT(batches_received, 0u);
  EXPECT_GT(report.ship_latency.count, batches_received);
  EXPECT_LE(report.ship_latency.count, report.totals.received);
}

TEST(ClusterE2eTest, KillNineMidRunDetectsRepairsAndCompletes) {
  CoordinatorOptions options = FastOptions();
  options.duration = 3.0;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());

  const std::vector<pid_t> workers = SpawnWorkers(coordinator.port(), 3);
  ASSERT_EQ(workers.size(), 3u);

  // Real-process chaos: SIGKILL one worker mid-run — no cleanup, no
  // goodbye frame, exactly like an OOM kill or machine loss.
  std::thread killer([&workers] {
    std::this_thread::sleep_for(1200ms);
    ::kill(workers[0], SIGKILL);
  });

  const Status run = coordinator.Run();
  killer.join();
  EXPECT_TRUE(run.ok()) << run.ToString();

  const int victim_status = WaitFor(workers[0]);
  EXPECT_TRUE(WIFSIGNALED(victim_status) &&
              WTERMSIG(victim_status) == SIGKILL);
  EXPECT_TRUE(WIFEXITED(WaitFor(workers[1])));
  EXPECT_TRUE(WIFEXITED(WaitFor(workers[2])));

  const ClusterReport& report = coordinator.report();
  ASSERT_TRUE(report.had_incident);
  const sim::IncidentReport& incident = report.incident;

  // Detection came from the lost control connection: the kernel closes
  // a killed process's sockets, so the verdict lands before the
  // heartbeat deadline could have lapsed.
  EXPECT_GE(incident.detect_time, incident.crash_time);
  const double detection_delay = incident.detect_time - incident.crash_time;
  EXPECT_LT(detection_delay, options.heartbeat_timeout);

  // The supervisor re-homed the victim's operators via the plan-diff
  // protocol and the plan version advanced.
  EXPECT_TRUE(incident.recovered);
  EXPECT_GT(incident.operators_moved, 0u);
  EXPECT_GE(incident.plan_applied_time, incident.detect_time);
  EXPECT_GE(report.plan_version, 2u);

  // Exactly one worker died; the survivors reported final stats.
  ExpectSurvivorsReported(report, 2);

  // The cluster kept delivering after repair, and the loss breakdown is
  // populated consistently (ships to the dead peer during the detection
  // window are network loss).
  EXPECT_GT(report.totals.delivered, 0u);
  EXPECT_EQ(incident.lost_tuples,
            incident.lost_queued + incident.lost_inflight +
                incident.lost_network + incident.rejected_inputs);
  EXPECT_GE(incident.availability, 0.0);
  EXPECT_LE(incident.availability, 1.0);

  // The repair's phase clocks were captured: detection delay matches the
  // incident's, and every phase has a sane duration.
  ASSERT_TRUE(report.phases.valid);
  EXPECT_NEAR(report.phases.detect_seconds, detection_delay, 1e-9);
  EXPECT_GE(report.phases.pause_drain_seconds, 0.0);
  EXPECT_GE(report.phases.reassign_seconds, 0.0);
  EXPECT_GE(report.phases.resume_seconds, 0.0);
  EXPECT_GT(report.phases.pause_drain_seconds + report.phases.reassign_seconds +
                report.phases.resume_seconds,
            0.0);

  // Both survivors (and only they — the victim cannot answer) responded
  // to the kFreeze broadcast with a frozen flight-recorder snapshot.
  std::vector<uint32_t> survivors;
  for (const auto& worker : report.workers) {
    if (worker.alive) survivors.push_back(worker.worker_id);
  }
  EXPECT_EQ(report.frozen_workers, survivors);

  // The incident landed in the coordinator's flight recorder as the
  // distributed composite: engine-schema incident + repair phases +
  // embedded per-worker frozen snapshots.
  EXPECT_EQ(coordinator.flight_recorder().incident_count(), 1u);
  const std::vector<std::string> incidents =
      coordinator.flight_recorder().IncidentJsons();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_NE(incidents[0].find("\"phases\""), std::string::npos);
  EXPECT_NE(incidents[0].find("\"worker_snapshots\""), std::string::npos);
  EXPECT_NE(incidents[0].find("control connection lost"), std::string::npos);

  // Each embedded snapshot predates the repair: taken at the freeze, it
  // holds the plan the run started with and no pause yet.
  auto parsed = telemetry::ParseJson(incidents[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const telemetry::JsonValue* composite = parsed->Find("report");
  ASSERT_NE(composite, nullptr);
  const telemetry::JsonValue* snapshots = composite->Find("worker_snapshots");
  ASSERT_NE(snapshots, nullptr);
  ASSERT_EQ(snapshots->items().size(), survivors.size());
  for (const telemetry::JsonValue& snapshot : snapshots->items()) {
    const telemetry::JsonValue* frozen = snapshot.Find("incident");
    ASSERT_NE(frozen, nullptr);
    const telemetry::JsonValue* worker_report = frozen->Find("report");
    ASSERT_NE(worker_report, nullptr);
    EXPECT_EQ(worker_report->NumberOr("plan_version", 0.0), 1.0);
    const telemetry::JsonValue* metrics = frozen->Find("metrics");
    ASSERT_NE(metrics, nullptr);
    const telemetry::JsonValue* counters = metrics->Find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->NumberOr("cluster.pauses", -1.0), 0.0);
  }
}

TEST(ClusterE2eTest, SigstopMidRunDetectedByHeartbeatDeadline) {
  CoordinatorOptions options = FastOptions();
  options.duration = 3.0;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());

  const std::vector<pid_t> workers = SpawnWorkers(coordinator.port(), 3);
  ASSERT_EQ(workers.size(), 3u);

  // A stopped process keeps its sockets open, so no EOF reaches the
  // coordinator: only the heartbeat deadline can catch it.
  std::thread stopper([&workers] {
    std::this_thread::sleep_for(1200ms);
    ::kill(workers[0], SIGSTOP);
  });

  const Status run = coordinator.Run();
  stopper.join();
  ::kill(workers[0], SIGKILL);
  const int victim_status = WaitFor(workers[0]);
  EXPECT_TRUE(run.ok()) << run.ToString();
  EXPECT_TRUE(WIFSIGNALED(victim_status) &&
              WTERMSIG(victim_status) == SIGKILL);
  for (size_t k = 1; k < workers.size(); ++k) {
    const int wstatus = WaitFor(workers[k]);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }

  const ClusterReport& report = coordinator.report();
  ASSERT_TRUE(report.had_incident);
  const sim::IncidentReport& incident = report.incident;
  // The deadline, not the socket, issued the verdict: the gap between
  // the last proof of life and detection is at least the timeout and not
  // wildly more (generous slack for loaded CI machines).
  const double detection_delay = incident.detect_time - incident.crash_time;
  EXPECT_GE(detection_delay, options.heartbeat_timeout * 0.9);
  EXPECT_LT(detection_delay, options.heartbeat_timeout + 5.0);
  EXPECT_TRUE(incident.recovered);
  EXPECT_GT(incident.operators_moved, 0u);
  ExpectSurvivorsReported(report, 2);

  const std::vector<std::string> incidents =
      coordinator.flight_recorder().IncidentJsons();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_NE(incidents[0].find("missed heartbeats"), std::string::npos);
}

TEST(ClusterE2eTest, TwoWorkersKilledAtOnceRecoverInOneIncident) {
  RunLosingTwoOfFour([](const std::vector<pid_t>& workers, Coordinator&) {
    ::kill(workers[0], SIGKILL);
    ::kill(workers[1], SIGKILL);
  });
}

TEST(ClusterE2eTest, LossDuringRepairIsRepairedInTheSameIncident) {
  // The second loss lands inside the first repair: workers[1] is stopped
  // before workers[0] dies, so the repair's diff waits on its pause ack,
  // and it is killed only once the first failure has been declared.
  const std::string incident =
      RunLosingTwoOfFour(
          [](const std::vector<pid_t>& workers, Coordinator& coordinator) {
            ::kill(workers[1], SIGSTOP);
            ::kill(workers[0], SIGKILL);
            for (int waited_ms = 0; waited_ms < 5000; ++waited_ms) {
              if (FailuresDetected(coordinator) > 0) break;
              std::this_thread::sleep_for(1ms);
            }
            ::kill(workers[1], SIGKILL);
          })
          .incident;
  // The first diff failed on the second loss; the next one re-homed the
  // operators of both and ended the incident.
  EXPECT_NE(incident.find("plan diff failed"), std::string::npos);
}

TEST(ClusterE2eTest, WorkerStoppedMidDiffIsFailedAtItsDeadline) {
  // workers[1] is stopped and stays stopped; workers[0] is killed. The
  // kill's repair pauses the stopped worker too, which never acks. Its
  // heartbeat deadline fails it, that diff aborts, and the next diff
  // re-homes the operators of both in the same incident.
  const LossOutcome outcome = RunLosingTwoOfFour(
      [](const std::vector<pid_t>& workers, Coordinator&) {
        ::kill(workers[1], SIGSTOP);
        ::kill(workers[0], SIGKILL);
      },
      /*slack=*/1.0);
  EXPECT_NE(outcome.incident.find("missed heartbeats"), std::string::npos);
  EXPECT_NE(outcome.incident.find("plan diff failed"), std::string::npos);
  EXPECT_LT(outcome.run_seconds,
            kFourWorkerDuration + FastOptions().finish_grace + 2.0);
}

TEST(ClusterE2eTest, WorkerResumedAfterItsVerdictStaysFailed) {
  CoordinatorOptions options = FastOptions();
  options.duration = 3.0;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());
  const std::vector<pid_t> workers = SpawnWorkers(coordinator.port(), 3);
  ASSERT_EQ(workers.size(), 3u);

  // Stop workers[0] until its verdict, then let it run again: it must find
  // its control connection closed and exit while the run goes on.
  std::atomic<bool> run_returned{false};
  bool exited_during_run = false;
  int resumed_status = 0;
  std::thread stopper([&] {
    std::this_thread::sleep_for(1200ms);
    ::kill(workers[0], SIGSTOP);
    for (int waited_ms = 0; waited_ms < 5000; ++waited_ms) {
      if (FailuresDetected(coordinator) > 0) break;
      std::this_thread::sleep_for(1ms);
    }
    ::kill(workers[0], SIGCONT);
    pid_t reaped = 0;
    for (int waited_ms = 0; waited_ms < 10000 && reaped == 0; ++waited_ms) {
      reaped = ::waitpid(workers[0], &resumed_status, WNOHANG);
      if (reaped == 0) std::this_thread::sleep_for(1ms);
    }
    exited_during_run = reaped == workers[0] && !run_returned.load();
    if (reaped == 0) {
      ::kill(workers[0], SIGKILL);
      WaitFor(workers[0]);
    }
  });
  const Status run = coordinator.Run();
  run_returned.store(true);
  stopper.join();
  EXPECT_TRUE(run.ok()) << run.ToString();
  EXPECT_TRUE(exited_during_run);
  EXPECT_TRUE(WIFEXITED(resumed_status) && WEXITSTATUS(resumed_status) != 0);
  for (size_t k = 1; k < workers.size(); ++k) {
    const int wstatus = WaitFor(workers[k]);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  }

  // Failed once and never counted alive again.
  const ClusterReport& report = coordinator.report();
  EXPECT_EQ(FailuresDetected(coordinator), 1u);
  ASSERT_EQ(report.workers.size(), 3u);
  EXPECT_FALSE(report.workers[IdOf(report, WorkerName(0))].alive);
  EXPECT_EQ(coordinator.telemetry().Snapshot().gauges.at(
                "cluster.workers_alive"),
            2.0);
  EXPECT_TRUE(report.incident.recovered);
  ExpectSurvivorsReported(report, 2);
}

TEST(ClusterE2eTest, FrameNamingAnotherWorkerIsDropped) {
  // After kStart `silent` sends nothing, while `forger` heartbeats under
  // its own id and under silent's. A frame speaks only for the worker
  // whose connection carried it, so silent fails at its deadline.
  CoordinatorOptions options = FastOptions();
  options.expected_workers = 2;
  options.duration = 1.5;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());
  Status run;
  std::thread runner([&] { run = coordinator.Run(); });

  FakeWorker silent, forger;
  Status silent_up, forger_up;
  std::thread a([&] {
    silent_up = silent.RunUntil(MsgType::kStart, coordinator.port(), "silent");
  });
  std::thread b([&] {
    forger_up = forger.RunUntil(MsgType::kStart, coordinator.port(), "forger");
  });
  a.join();
  b.join();
  EXPECT_TRUE(silent_up.ok()) << silent_up.ToString();
  EXPECT_TRUE(forger_up.ok()) << forger_up.ToString();

  bool failed_while_forging = false;
  for (int tick = 0; tick < 60 && silent_up.ok() && forger_up.ok(); ++tick) {
    for (const uint32_t named : {forger.id, silent.id}) {
      HeartbeatMsg hb;
      hb.worker_id = named;
      (void)forger.conn.Send(MsgType::kHeartbeat, hb.Encode());
    }
    std::this_thread::sleep_for(50ms);
    failed_while_forging = FailuresDetected(coordinator) > 0;
    if (failed_while_forging) break;
  }
  forger.conn.Close();
  runner.join();
  silent.conn.Close();

  EXPECT_TRUE(run.ok()) << run.ToString();
  EXPECT_TRUE(failed_while_forging);
  EXPECT_GT(CounterValue(coordinator, "cluster.unexpected_frames"), 0u);
  const ClusterReport& report = coordinator.report();
  ASSERT_TRUE(report.had_incident);
  EXPECT_EQ(report.incident.failed_node, silent.id);
  const std::vector<std::string> incidents =
      coordinator.flight_recorder().IncidentJsons();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_NE(incidents[0].find("silent: missed heartbeats"), std::string::npos);
}

TEST(ClusterE2eTest, WorkerReportsItsFreezeAfterTheRepair) {
  ScriptedCoordinator coordinator;
  ASSERT_TRUE(coordinator.Register().ok());

  // A verdict sends kFreeze and kPause back to back. The worker snapshots
  // at the freeze but acks the pause before it renders any report.
  PauseMsg pause;
  pause.plan_version = 2;
  for (const OperatorMove& move : coordinator.moves()) {
    pause.ops.push_back(move.op);
  }
  ASSERT_TRUE(
      coordinator.Send(MsgType::kFreeze, ScriptedFreeze().Encode()).ok());
  ASSERT_TRUE(coordinator.Send(MsgType::kPause, pause.Encode()).ok());
  auto acked = coordinator.Expect(MsgType::kPauseAck);
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();

  PlanDiffMsg diff;
  diff.version = 2;
  diff.moves = coordinator.moves();
  ASSERT_TRUE(coordinator.Send(MsgType::kPlanDiff, diff.Encode()).ok());
  auto installed = coordinator.Expect(MsgType::kPlanAck);
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();

  // The report follows at the first heartbeat tick after the resume.
  ASSERT_TRUE(coordinator.Send(MsgType::kResume, "").ok());
  auto frame =
      coordinator.Next(3 * ScriptedCoordinator::kHeartbeatInterval);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->type, MsgType::kFrozenReport)
      << MsgTypeName(frame->type);
  auto report = FrozenReportMsg::Decode(frame->payload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->incident_id, 7u);
  EXPECT_EQ(report->worker_id, 0u);

  // It holds the state of the freeze: plan version 1 and no pause, though
  // the worker has since paused and installed version 2.
  auto incident = telemetry::ParseJson(report->incident_json);
  ASSERT_TRUE(incident.ok()) << incident.status().ToString();
  const telemetry::JsonValue* fields = incident->Find("report");
  ASSERT_NE(fields, nullptr);
  EXPECT_EQ(fields->NumberOr("plan_version", 0.0), 1.0);
  EXPECT_EQ(fields->StringOr("name", ""), "scripted");
  const telemetry::JsonValue* metrics = incident->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const telemetry::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("cluster.pauses", -1.0), 0.0);
  EXPECT_EQ(incident->StringOr("detail", ""), "scripted");
}

TEST(ClusterE2eTest, WorkerFinishedBeforeAResumeReportsBeforeFinalStats) {
  // A freeze with no resume after it (the repair never completed): the
  // report still goes out, ahead of the worker's final stats.
  ScriptedCoordinator coordinator;
  ASSERT_TRUE(coordinator.Register().ok());
  ASSERT_TRUE(
      coordinator.Send(MsgType::kFreeze, ScriptedFreeze().Encode()).ok());
  ASSERT_TRUE(coordinator.Send(MsgType::kFinish, "").ok());
  auto report = coordinator.Expect(MsgType::kFrozenReport);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto final_stats = coordinator.Expect(MsgType::kFinalStats);
  ASSERT_TRUE(final_stats.ok()) << final_stats.status().ToString();
}

TEST(ClusterE2eTest, SimulatorAndClusterAgreeOnAFailover) {
  const query::QueryGraph graph = TestGraph();
  CoordinatorOptions options = FastOptions();
  options.duration = 3.0;
  Coordinator coordinator(graph, options);
  ASSERT_TRUE(coordinator.Listen().ok());
  const std::vector<pid_t> workers = SpawnWorkers(coordinator.port(), 3);
  ASSERT_EQ(workers.size(), 3u);
  std::thread killer([&workers] {
    std::this_thread::sleep_for(1200ms);
    ::kill(workers[0], SIGKILL);
  });
  const Status run = coordinator.Run();
  killer.join();
  for (const pid_t pid : workers) WaitFor(pid);
  ASSERT_TRUE(run.ok()) << run.ToString();
  const ClusterReport& report = coordinator.report();
  ASSERT_TRUE(report.incident.recovered);
  const uint32_t victim = IdOf(report, WorkerName(0));

  // The coordinator's plan: ROD over the three workers' advertised
  // capacity of 1, from the same load model.
  auto model = query::BuildLinearizedLoadModel(graph);
  ASSERT_TRUE(model.ok());
  const place::SystemSpec system = place::SystemSpec::Homogeneous(3);
  auto plan = place::RodPlace(*model, system, options.rod, &graph);
  ASSERT_TRUE(plan.ok());
  ASSERT_GT(std::count(plan->assignment().begin(), plan->assignment().end(),
                       size_t{victim}),
            0);
  auto deployment = sim::CompileDeployment(graph, *plan, system);
  ASSERT_TRUE(deployment.ok());

  // The same crash in the simulator, repaired by a supervisor with the
  // coordinator's options.
  sim::Supervisor supervisor(*model, options.supervisor);
  RecordingAgent agent(&supervisor);
  sim::FailureSchedule crash;
  crash.CrashAt(1.0, victim);
  sim::SimulationOptions sim_options;
  sim_options.duration = options.duration;
  sim_options.failures = &crash;
  sim_options.recovery = &agent;
  std::vector<trace::RateTrace> rates(graph.num_input_streams());
  for (trace::RateTrace& trace : rates) {
    trace.window_sec = options.duration;
    trace.rates = {options.default_rate};
  }
  auto simulated = sim::Simulate(*deployment, rates, sim_options);
  ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
  ASSERT_TRUE(agent.last_update.has_value());
  ASSERT_TRUE(simulated->incident.has_value());
  EXPECT_EQ(agent.last_update->assignment, report.assignment);
  EXPECT_EQ(simulated->incident->operators_moved,
            report.incident.operators_moved);
}

TEST(ClusterE2eTest, WorkerLostBeforeStartFailsRun) {
  // The only worker hangs up instead of acking its plan. Before kStart no
  // repair is possible, so Run() fails, without waiting out the 20 s
  // registration timeout that bounds the plan ship.
  CoordinatorOptions options = FastOptions();
  options.expected_workers = 1;
  Coordinator coordinator(TestGraph(), options);
  ASSERT_TRUE(coordinator.Listen().ok());
  FakeWorker quitter;
  std::thread worker([&] {
    EXPECT_TRUE(
        quitter.RunUntil(MsgType::kPlan, coordinator.port(), "quitter").ok());
    quitter.conn.Close();
  });
  const auto begin = std::chrono::steady_clock::now();
  const Status run = coordinator.Run();
  worker.join();
  EXPECT_EQ(run.code(), StatusCode::kUnavailable) << run.ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 5s);
}

TEST(ClusterE2eTest, CoordinatorTimesOutWhenWorkersNeverRegister) {
  CoordinatorOptions options = FastOptions();
  options.register_timeout = 0.3;
  Coordinator coordinator(TestGraph(), options);
  const Status run = coordinator.Run();
  EXPECT_EQ(run.code(), StatusCode::kUnavailable) << run.ToString();
}

}  // namespace
}  // namespace rod::cluster
