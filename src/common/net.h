// Copyright (c) the ROD reproduction authors.
//
// Raw POSIX socket helpers shared by the telemetry HTTP server and the
// cluster transport: loopback listen/connect, exact-length reads, full
// writes, socket timeouts, and a self-pipe for waking poll() loops.
//
// This layer sits below rod_common (the telemetry library uses it), so it
// reports errors as bool + optional errno-derived message instead of
// rod::Status; the cluster transport wraps these into Status codes one
// layer up. All helpers are loopback-IPv4 only by design: both users
// observe or coordinate processes on one machine, and fronting them for
// remote peers is a proxy's job.

#ifndef ROD_COMMON_NET_H_
#define ROD_COMMON_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace rod::net {

/// Appends ": strerror(errno)" to `what` into `*error` (when non-null).
/// Always returns false so call sites can `return FillError(...)`.
bool FillErrno(std::string* error, const char* what);

/// Creates a TCP listener bound to 127.0.0.1:`port` (0 picks an ephemeral
/// port) with SO_REUSEADDR and a backlog of 16. Returns the listening fd,
/// or -1 (with `*error` filled when given).
int ListenLoopback(uint16_t port, std::string* error = nullptr);

/// The locally bound port of `fd` (getsockname), or 0 on failure.
uint16_t BoundPort(int fd);

/// Accepts one pending connection; retries EINTR. Returns the connected
/// fd or -1.
int AcceptConnection(int listen_fd);

/// Connects to 127.0.0.1:`port`. Returns the connected fd, or -1 (with
/// `*error` filled when given).
int ConnectLoopback(uint16_t port, std::string* error = nullptr);

/// Sets both SO_RCVTIMEO and SO_SNDTIMEO to `seconds` (0 disables).
void SetSocketTimeouts(int fd, double seconds);

/// Sets TCP_NODELAY, so a small write goes out at once instead of
/// waiting, under Nagle's algorithm, for the ACK of the previous one.
void SetNoDelay(int fd);

/// Reads exactly `len` bytes into `buf`, retrying EINTR and short reads.
/// Returns true on success; false on EOF, timeout, or error (errno is
/// preserved from the failing read; EOF sets errno to 0).
bool ReadExactly(int fd, void* buf, size_t len);

/// Writes the whole buffer, retrying EINTR and short writes. Returns
/// false on error (e.g. the peer is gone; errno preserved).
bool WriteAll(int fd, const void* data, size_t len);

/// Closes `*fd` if it is >= 0 and resets it to -1. Idempotent.
void CloseFd(int* fd);

/// A pipe whose read end is polled alongside sockets so another thread
/// can wake (and terminate) a poll loop: the event-loop owner polls
/// `read_fd()` for POLLIN, any thread calls Notify().
class SelfPipe {
 public:
  SelfPipe() = default;
  ~SelfPipe() { Close(); }

  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  /// Creates the pipe. Returns false (filling `*error`) on failure.
  bool Open(std::string* error = nullptr);

  /// Best-effort single-byte write to the pipe; wakes a blocked poll().
  void Notify();

  /// Drains any pending wake bytes (call after poll reports readable when
  /// the loop keeps running instead of exiting).
  void Drain();

  /// The pollable read end; -1 before Open().
  int read_fd() const { return fds_[0]; }

  bool open() const { return fds_[0] >= 0; }

  /// Closes both ends. Idempotent; called by the destructor.
  void Close();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace rod::net

#endif  // ROD_COMMON_NET_H_
