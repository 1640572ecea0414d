// Copyright (c) the ROD reproduction authors.
//
// Connection-level transport for the cluster: a move-only framed TCP
// connection (FrameConn) and a listener (FrameListener), grown from the
// dependency-free socket layer shared with the telemetry HTTP server
// (common/net). Blocking I/O with per-socket timeouts; the worker and
// coordinator event loops multiplex connections with poll() over the
// exposed fds and only call Recv() on a readable connection, so the
// blocking reads never stall the loop beyond one frame. Every dialed and
// accepted connection sets TCP_NODELAY: a frame is already one write, so
// Nagle's algorithm has nothing to merge and would only hold the second
// of two back-to-back frames until the peer's delayed ACK.

#ifndef ROD_CLUSTER_TRANSPORT_H_
#define ROD_CLUSTER_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <utility>

#include "cluster/frame.h"
#include "common/status.h"
#include "telemetry/telemetry.h"

namespace rod::cluster {

/// Per-frame-type traffic counters: four families per message type
/// (frames and bytes, each direction), all registered at zero so the
/// full protocol surface is visible on /metrics before any traffic
/// flows. One instance is shared by every FrameConn of a process (the
/// counters are thread-safe); bytes include the 20-byte frame header.
class FrameMetrics {
 public:
  FrameMetrics() = default;

  /// Registers all families ("cluster.frame.tx.<type>", ".tx_bytes.",
  /// ".rx.", ".rx_bytes.") in `telemetry`'s registry at zero.
  explicit FrameMetrics(telemetry::Telemetry* telemetry);

  void RecordTx(MsgType type, size_t frame_bytes) const;
  void RecordRx(MsgType type, size_t frame_bytes) const;

 private:
  struct PerType {
    telemetry::Counter tx;
    telemetry::Counter tx_bytes;
    telemetry::Counter rx;
    telemetry::Counter rx_bytes;
  };

  /// Indexed by raw MsgType byte; slot 0 unused.
  std::array<PerType, kMaxMsgType + 1> per_type_{};
};

/// A connected, framed, blocking TCP stream. Owns the fd.
class FrameConn {
 public:
  FrameConn() = default;
  /// Takes ownership of a connected `fd`.
  explicit FrameConn(int fd) : fd_(fd) {}
  ~FrameConn() { Close(); }

  FrameConn(FrameConn&& other) noexcept
      : fd_(other.fd_), metrics_(other.metrics_) {
    other.fd_ = -1;
    other.metrics_ = nullptr;
  }
  FrameConn& operator=(FrameConn&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      metrics_ = other.metrics_;
      other.fd_ = -1;
      other.metrics_ = nullptr;
    }
    return *this;
  }
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  /// Connects to 127.0.0.1:`port`. `timeout_seconds` > 0 arms both socket
  /// timeouts so a wedged peer surfaces as kUnavailable instead of a
  /// hang. Returns kUnavailable when the peer refuses.
  static Result<FrameConn> DialLoopback(uint16_t port,
                                        double timeout_seconds = 0.0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Attaches per-frame-type traffic counters; `metrics` must outlive
  /// this connection (nullptr detaches).
  void set_metrics(const FrameMetrics* metrics) { metrics_ = metrics; }

  /// Writes one frame; kUnavailable when the peer is gone.
  Status Send(MsgType type, std::string_view payload) const {
    if (!valid()) return Status::FailedPrecondition("connection closed");
    Status s = WriteFrame(fd_, type, payload);
    if (s.ok() && metrics_ != nullptr) {
      metrics_->RecordTx(type, kFrameHeaderBytes + payload.size());
    }
    return s;
  }

  /// Reads one frame (blocking up to the socket timeout). Error codes as
  /// ReadFrame; on any error the connection should be Closed.
  Status Recv(Frame* out) const {
    if (!valid()) return Status::FailedPrecondition("connection closed");
    Status s = ReadFrame(fd_, out);
    if (s.ok() && metrics_ != nullptr) {
      metrics_->RecordRx(out->type, kFrameHeaderBytes + out->payload.size());
    }
    return s;
  }

  void Close();

 private:
  int fd_ = -1;
  const FrameMetrics* metrics_ = nullptr;
};

/// A loopback TCP listener producing FrameConns.
class FrameListener {
 public:
  FrameListener() = default;
  ~FrameListener() { Close(); }

  FrameListener(FrameListener&& other) noexcept
      : fd_(other.fd_), port_(other.port_), metrics_(other.metrics_) {
    other.fd_ = -1;
    other.port_ = 0;
    other.metrics_ = nullptr;
  }
  FrameListener& operator=(FrameListener&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      port_ = other.port_;
      metrics_ = other.metrics_;
      other.fd_ = -1;
      other.port_ = 0;
      other.metrics_ = nullptr;
    }
    return *this;
  }
  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0: ephemeral, see port()).
  Status Listen(uint16_t port);

  /// Accepts one connection (blocking; poll the fd first in event loops).
  /// `timeout_seconds` > 0 arms the accepted socket's timeouts.
  Result<FrameConn> Accept(double timeout_seconds = 0.0) const;

  bool listening() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

  /// Traffic counters stamped onto every subsequently accepted
  /// connection; `metrics` must outlive them (nullptr detaches).
  void set_metrics(const FrameMetrics* metrics) { metrics_ = metrics; }

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  const FrameMetrics* metrics_ = nullptr;
};

}  // namespace rod::cluster

#endif  // ROD_CLUSTER_TRANSPORT_H_
