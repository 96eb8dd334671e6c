// Thin RAII wrappers over POSIX TCP sockets (loopback-oriented).
//
// The paper's experiments ran MPICH over Ethernet; the mpilite runtime
// (src/mpilite) rebuilds that stack on real kernel TCP sockets over the
// loopback device, so flow control, buffering and backpressure are the
// genuine article rather than a simulation.
//
// Robustness seams (src/robust):
//  * deadline-aware I/O — set_io_timeout_ms() arms a poll() before every
//    send/recv/accept syscall, so a stalled peer raises TimeoutError
//    instead of blocking the rank forever. The deadline is an idle
//    timeout: a slow but progressing transfer never trips it.
//  * fault injection — every connect/send/recv operation consults the
//    process-wide robust::FaultInjector (nullptr = off, the default) and
//    applies its plan: refused connections, mid-transfer resets, stalls,
//    short writes, corrupted bytes. Compiled in always; one branch off.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/contract_annotations.hpp"
#include "common/error.hpp"

REDIST_LAYER("net");

namespace redist {

/// Owning file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Connected TCP byte stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Socket socket) : socket_(std::move(socket)) {}

  /// Connects to 127.0.0.1:port (throws on failure).
  static TcpStream connect_loopback(std::uint16_t port);

  bool valid() const { return socket_.valid(); }

  /// Full-buffer send/recv; throw on error or peer close. With a deadline
  /// armed (set_io_timeout_ms), each syscall waits at most that long for
  /// the socket to become ready before throwing TimeoutError.
  void send_all(const void* data, std::size_t size);
  void recv_all(void* data, std::size_t size);

  /// Disables Nagle's algorithm (small barrier tokens should not wait).
  void set_nodelay(bool on);

  /// Shuts down both directions (shutdown(2)); the descriptor stays open,
  /// so a thread blocked on it wakes with an error, not a reused fd.
  void shutdown();

  /// Arms an idle deadline on every subsequent send/recv syscall;
  /// <= 0 restores the blocking-forever seed behavior (the default).
  void set_io_timeout_ms(int timeout_ms) { io_timeout_ms_ = timeout_ms; }
  int io_timeout_ms() const { return io_timeout_ms_; }

 private:
  /// poll()s for `events` under the armed deadline; throws TimeoutError on
  /// expiry. No-op when no deadline is armed.
  void wait_ready(short events, const char* what) const;

  Socket socket_;
  int io_timeout_ms_ = 0;
};

/// Listening TCP socket bound to the loopback device.
class TcpListener {
 public:
  /// Binds 127.0.0.1 on an ephemeral port (port 0) with the given backlog.
  static TcpListener bind_loopback(int backlog = 128);

  std::uint16_t port() const { return port_; }

  /// Accepts one connection; waits at most the armed accept deadline
  /// (TimeoutError on expiry), forever when none is armed.
  TcpStream accept();

  /// Arms a deadline on accept(); <= 0 (default) blocks forever.
  void set_accept_timeout_ms(int timeout_ms) {
    accept_timeout_ms_ = timeout_ms;
  }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
  int accept_timeout_ms_ = 0;
};

}  // namespace redist
