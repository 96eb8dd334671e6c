// SchedulerService — the long-lived scheduler daemon (ROADMAP north star).
//
// Accepts rpc.v4 connections (net/rpc.hpp) on an ephemeral loopback port
// and serves K-PBS solves from a cache, plus introspection of itself:
//
//   accept thread ──► ThreadPool ──► per-connection handler
//                                      │  Hello/HelloAck version handshake
//                                      │  per solve request:
//                                      │    SolveCache lookup by canonical
//                                      │    fingerprint (service/fingerprint)
//                                      │      hit   → cached bytes, no solve
//                                      │      miss  → admission TokenBucket
//                                      │              (lock-free CAS,
//                                      │              runtime/token_bucket),
//                                      │              solve_kpbs, insert
//                                      │  per introspection request:
//                                      │    healthz/statusz/metricsz/journalz
//                                      │    rendered from the installed obs
//                                      │    sinks (obs/introspect.hpp)
//
// Threading: the accept loop polls accept() with a timeout so it sees the
// stop flag, and hands each connection to the pool; a handler occupies its
// worker for the connection's lifetime, so at most `threads` connections
// are served concurrently and the rest queue in accept backlog + pool
// queue. All per-connection I/O is deadline-armed: a stalled or idle
// client trips TimeoutError and the handler closes the connection, which
// also bounds stop() latency to roughly io_timeout_ms.
//
// Admission control is a single lock-free global TokenBucket in solver
// runs (1 token = 1 cache miss solved): a hit costs no token and is never
// refused, and an over-rate miss gets the typed
// ErrorResponse{kRateLimited} after its decode, canonicalization and
// lookup; the connection stays usable — clients back off and retry rather
// than redial. Introspection requests skip the bucket and are not counted
// as solve requests, so an overloaded daemon can still be inspected.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/contract_annotations.hpp"
#include "common/error.hpp"
#include "net/rpc.hpp"
#include "net/socket.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/token_bucket.hpp"
#include "service/solve_cache.hpp"

REDIST_LAYER("service");

namespace redist::service {

struct SchedulerServiceOptions {
  int threads = 2;                  ///< concurrent connections served
  std::size_t cache_capacity = 64;  ///< SolveCache entries retained
  int io_timeout_ms = 5000;         ///< per-connection idle deadline
  int accept_poll_ms = 100;         ///< accept wake-up; bounds stop latency
  double admission_rate_rps = 512;  ///< sustained requests/second, global
  Bytes admission_burst = 64;       ///< burst requests before limiting
  bool allow_remote_shutdown = true;  ///< honor rpc kShutdown frames
};

/// serve_solve found a cache miss while the admission bucket was empty; the
/// socket handler answers it with kRateLimited.
class AdmissionRefused : public Error {
 public:
  explicit AdmissionRefused(const std::string& what) : Error(what) {}
};

class SchedulerService {
 public:
  explicit SchedulerService(SchedulerServiceOptions options = {});
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// The bound loopback port (ephemeral; valid from construction).
  std::uint16_t port() const { return listener_.port(); }

  /// Stops accepting and joins the accept thread; in-flight connection
  /// handlers drain when the pool destructs (or finish their current
  /// request and observe the stop flag). Idempotent.
  void stop();

  /// True once stop() ran or a remote kShutdown frame was honored.
  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Solve requests received (all provenances, including rejected ones).
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  const SolveCache& cache() const { return cache_; }

  /// Serves one already-decoded request — cache lookup, possibly an
  /// admitted solve, cache fill. Exposed for in-process tests (the socket
  /// handler calls exactly this); throws AdmissionRefused on a miss over
  /// the admission rate, redist::Error on an invalid instance (see
  /// canonicalize and demand_graph) or a solver failure.
  rpc::SolveResponse serve_solve(const rpc::SolveRequest& request);

 private:
  void serve();
  void handle_connection(TcpStream stream);

  SchedulerServiceOptions options_;
  SolveCache cache_;
  TokenBucket admission_;
  TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::uint64_t start_ns_;  ///< construction time; statusz/healthz uptime
  ThreadPool pool_;      // destructs after the accept thread is joined
  std::thread accept_thread_;  // joined by stop(); started last in the ctor
};

}  // namespace redist::service
