#include "common/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace rod::net {

bool FillErrno(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + std::strerror(errno);
  }
  return false;
}

int ListenLoopback(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    FillErrno(error, "socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    FillErrno(error, "bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, /*backlog=*/16) != 0) {
    FillErrno(error, "listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

int AcceptConnection(int listen_fd) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client >= 0) return client;
    if (errno != EINTR) return -1;
  }
}

int ConnectLoopback(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    FillErrno(error, "socket");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    FillErrno(error, "connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

void SetSocketTimeouts(int fd, double seconds) {
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(seconds);
  timeout.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(timeout.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool ReadExactly(int fd, void* buf, size_t len) {
  char* out = static_cast<char*>(buf);
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::read(fd, out + off, len - off);
    if (n == 0) {
      errno = 0;  // Clean EOF, not an errno failure.
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool WriteAll(int fd, const void* data, size_t len) {
  const char* in = static_cast<const char*>(data);
  size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: writing to a peer that died must fail with EPIPE, not
    // raise SIGPIPE and kill the process (a cluster worker shipping to a
    // crashed peer is a survivable error, not a fatal one). Falls back to
    // write() for non-socket fds (send sets ENOTSOCK).
    ssize_t n = ::send(fd, in + off, len - off, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, in + off, len - off);
    }
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

void CloseFd(int* fd) {
  if (fd != nullptr && *fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

bool SelfPipe::Open(std::string* error) {
  if (open()) return true;
  if (::pipe(fds_) != 0) return FillErrno(error, "pipe");
  // Non-blocking read end: Drain() must never wedge the event loop when
  // another thread's wake byte was already consumed.
  const int flags = ::fcntl(fds_[0], F_GETFL, 0);
  if (flags >= 0) ::fcntl(fds_[0], F_SETFL, flags | O_NONBLOCK);
  return true;
}

void SelfPipe::Notify() {
  if (fds_[1] < 0) return;
  const char byte = 'w';
  (void)!::write(fds_[1], &byte, 1);
}

void SelfPipe::Drain() {
  if (fds_[0] < 0) return;
  char buf[64];
  while (::read(fds_[0], buf, sizeof(buf)) > 0) {
  }
}

void SelfPipe::Close() {
  CloseFd(&fds_[0]);
  CloseFd(&fds_[1]);
}

}  // namespace rod::net
