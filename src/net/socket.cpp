#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "robust/fault_injector.hpp"
#include "robust/retry.hpp"

namespace redist {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// One fault plan per guarded operation (nullptr injector = no faults).
robust::FaultPlan plan_for(robust::FaultSite site) {
  robust::FaultInjector* const injector = robust::injector();
  if (injector == nullptr) return robust::FaultPlan{};
  return injector->plan_op(site);
}

// Failure paths: their error strings are all a stream's I/O allocates.
[[noreturn]] REDIST_ALLOW_ALLOC("error string of an expired deadline")
void throw_timeout(const char* what, int timeout_ms) {
  throw TimeoutError(std::string(what) + " timed out after " +
                     std::to_string(timeout_ms) + " ms");
}

[[noreturn]] REDIST_ALLOW_ALLOC("error string of an injected reset")
void inject_reset(int fd, const char* op, Bytes moved) {
  ::shutdown(fd, SHUT_RDWR);
  throw Error(std::string("injected connection reset (") + op + ", after " +
              std::to_string(moved) + " bytes)");
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream TcpStream::connect_loopback(std::uint16_t port) {
  if (plan_for(robust::FaultSite::kConnect).refuse) {
    throw Error("injected connection refusal (port " + std::to_string(port) +
                ")");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket socket(fd);
  const sockaddr_in addr = loopback_address(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect");
  }
  return TcpStream(std::move(socket));
}

void TcpStream::wait_ready(short events, const char* what) const {
  if (io_timeout_ms_ <= 0) return;
  pollfd pfd{};
  pfd.fd = socket_.fd();
  pfd.events = events;
  for (;;) {
    const int ready = ::poll(&pfd, 1, io_timeout_ms_);
    // Error/hangup conditions fall through to the syscall, which reports
    // the real failure.
    if (ready > 0) return;
    if (ready == 0) throw_timeout(what, io_timeout_ms_);
    if (errno != EINTR) throw_errno("poll");
  }
}

void TcpStream::send_all(const void* data, std::size_t size) {
  REDIST_CHECK_MSG(valid(), "send on invalid stream");
  const robust::FaultPlan plan = plan_for(robust::FaultSite::kSend);
  if (plan.stall_ms > 0) robust::sleep_ms(plan.stall_ms);
  const char* p = static_cast<const char*>(data);
  Bytes moved = 0;
  while (size > 0) {
    if (plan.reset && moved >= plan.reset_after) {
      inject_reset(socket_.fd(), "send", moved);
    }
    std::size_t piece = size;
    if (plan.chunk_cap > 0) {
      piece = std::min(piece, static_cast<std::size_t>(plan.chunk_cap));
    }
    if (plan.reset) {
      piece = std::min(piece,
                       static_cast<std::size_t>(plan.reset_after - moved));
      piece = std::max<std::size_t>(piece, 1);
    }
    wait_ready(POLLOUT, "send");
    // With a deadline armed the syscall must not block either: a blocking
    // send() of a large remainder queues the *whole* buffer before
    // returning, so a non-draining peer would hang it forever no matter
    // what poll() said. MSG_DONTWAIT takes what fits; EAGAIN loops back
    // into the deadline poll.
    int flags = MSG_NOSIGNAL;
    if (io_timeout_ms_ > 0) flags |= MSG_DONTWAIT;
    const ssize_t n = ::send(socket_.fd(), p, piece, flags);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_errno("send");
    }
    REDIST_CHECK_MSG(n > 0, "send returned 0");
    p += n;
    moved += n;
    size -= static_cast<std::size_t>(n);
  }
}

void TcpStream::recv_all(void* data, std::size_t size) {
  REDIST_CHECK_MSG(valid(), "recv on invalid stream");
  const robust::FaultPlan plan = plan_for(robust::FaultSite::kRecv);
  if (plan.stall_ms > 0) robust::sleep_ms(plan.stall_ms);
  char* p = static_cast<char*>(data);
  Bytes moved = 0;
  while (size > 0) {
    if (plan.reset && moved >= plan.reset_after) {
      inject_reset(socket_.fd(), "recv", moved);
    }
    std::size_t piece = size;
    if (plan.chunk_cap > 0) {
      piece = std::min(piece, static_cast<std::size_t>(plan.chunk_cap));
    }
    wait_ready(POLLIN, "recv");
    // Same non-blocking discipline as send_all: the poll above owns the
    // deadline, the syscall itself must never park the thread.
    const int flags = io_timeout_ms_ > 0 ? MSG_DONTWAIT : 0;
    const ssize_t n = ::recv(socket_.fd(), p, piece, flags);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      throw_errno("recv");
    }
    REDIST_CHECK_MSG(n > 0, "peer closed the connection mid-message");
    p += n;
    moved += n;
    size -= static_cast<std::size_t>(n);
  }
  if (plan.corrupt && plan.corrupt_at < moved) {
    static_cast<char*>(data)[plan.corrupt_at] ^= 0x5A;
  }
}

void TcpStream::set_nodelay(bool on) {
  const int value = on ? 1 : 0;
  if (::setsockopt(socket_.fd(), IPPROTO_TCP, TCP_NODELAY, &value,
                   sizeof(value)) != 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

void TcpStream::shutdown() { ::shutdown(socket_.fd(), SHUT_RDWR); }

TcpListener TcpListener::bind_loopback(int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  TcpListener listener;
  listener.socket_ = Socket(fd);
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr = loopback_address(0);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  listener.port_ = ntohs(addr.sin_port);
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  return listener;
}

TcpStream TcpListener::accept() {
  REDIST_CHECK_MSG(socket_.valid(), "accept on invalid listener");
  for (;;) {
    if (accept_timeout_ms_ > 0) {
      pollfd pfd{};
      pfd.fd = socket_.fd();
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, accept_timeout_ms_);
      if (ready == 0) {
        throw TimeoutError("accept timed out after " +
                           std::to_string(accept_timeout_ms_) + " ms");
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll");
      }
    }
    const int fd = ::accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) return TcpStream(Socket(fd));
    if (errno != EINTR) throw_errno("accept");
  }
}

}  // namespace redist
