#include "cluster/transport.h"

#include <string>

#include "common/net.h"

namespace rod::cluster {

FrameMetrics::FrameMetrics(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) return;
  for (uint8_t t = 1; t <= kMaxMsgType; ++t) {
    const char* name = MsgTypeName(static_cast<MsgType>(t));
    const std::string base = std::string("cluster.frame.");
    per_type_[t].tx = telemetry->counter(base + "tx." + name);
    per_type_[t].tx_bytes = telemetry->counter(base + "tx_bytes." + name);
    per_type_[t].rx = telemetry->counter(base + "rx." + name);
    per_type_[t].rx_bytes = telemetry->counter(base + "rx_bytes." + name);
  }
}

void FrameMetrics::RecordTx(MsgType type, size_t frame_bytes) const {
  const uint8_t t = static_cast<uint8_t>(type);
  if (t == 0 || t > kMaxMsgType) return;
  telemetry::Counter frames = per_type_[t].tx;
  telemetry::Counter bytes = per_type_[t].tx_bytes;
  frames.Add(1);
  bytes.Add(frame_bytes);
}

void FrameMetrics::RecordRx(MsgType type, size_t frame_bytes) const {
  const uint8_t t = static_cast<uint8_t>(type);
  if (t == 0 || t > kMaxMsgType) return;
  telemetry::Counter frames = per_type_[t].rx;
  telemetry::Counter bytes = per_type_[t].rx_bytes;
  frames.Add(1);
  bytes.Add(frame_bytes);
}

Result<FrameConn> FrameConn::DialLoopback(uint16_t port,
                                          double timeout_seconds) {
  std::string error;
  const int fd = net::ConnectLoopback(port, &error);
  if (fd < 0) {
    return Status::Unavailable("dial 127.0.0.1:" + std::to_string(port) +
                               ": " + error);
  }
  if (timeout_seconds > 0.0) net::SetSocketTimeouts(fd, timeout_seconds);
  net::SetNoDelay(fd);
  return FrameConn(fd);
}

void FrameConn::Close() { net::CloseFd(&fd_); }

Status FrameListener::Listen(uint16_t port) {
  if (listening()) return Status::FailedPrecondition("already listening");
  std::string error;
  fd_ = net::ListenLoopback(port, &error);
  if (fd_ < 0) {
    return Status::Unavailable("listen 127.0.0.1:" + std::to_string(port) +
                               ": " + error);
  }
  port_ = net::BoundPort(fd_);
  return Status::OK();
}

Result<FrameConn> FrameListener::Accept(double timeout_seconds) const {
  if (!listening()) return Status::FailedPrecondition("not listening");
  const int client = net::AcceptConnection(fd_);
  if (client < 0) return Status::Unavailable("accept failed");
  if (timeout_seconds > 0.0) net::SetSocketTimeouts(client, timeout_seconds);
  net::SetNoDelay(client);
  FrameConn conn(client);
  conn.set_metrics(metrics_);
  return conn;
}

void FrameListener::Close() {
  net::CloseFd(&fd_);
  port_ = 0;
}

}  // namespace rod::cluster
