#include "service/scheduler_service.hpp"

#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "net/message.hpp"
#include "obs/introspect.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace redist::service {

namespace {

void send_rpc(TcpStream& stream, rpc::RpcTag tag,
              const std::vector<char>& payload) {
  send_message(stream, static_cast<std::uint32_t>(tag), payload.data(),
               payload.size());
}

void send_rpc_error(TcpStream& stream, std::uint64_t request_id,
                    rpc::RpcErrorCode code, const std::string& message) {
  rpc::ErrorResponse error;
  error.request_id = request_id;
  error.code = code;
  error.message = message;
  std::vector<char> payload;
  rpc::encode_error_response(payload, error);
  send_rpc(stream, rpc::RpcTag::kError, payload);
  obs::MetricsRegistry* const metrics = obs::metrics();
  if (metrics != nullptr) {
    metrics->counter(std::string("service.error.") +
                     rpc::rpc_error_code_name(code))
        .add();
  }
}

/// request_id is the leading u64 of every SolveRequest payload; peeking it
/// lets pre-decode rejections (rate limit, draining) echo the id without
/// paying for a full decode of a request that will not be served.
std::uint64_t peek_request_id(const std::vector<char>& payload) {
  if (payload.size() < sizeof(std::uint64_t)) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < sizeof(std::uint64_t); ++i) {
    id |= static_cast<std::uint64_t>(static_cast<unsigned char>(payload[i]))
          << (8 * i);
  }
  return id;
}

}  // namespace

SchedulerService::SchedulerService(SchedulerServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      admission_(options.admission_rate_rps, options.admission_burst),
      listener_(TcpListener::bind_loopback()),
      start_ns_(Stopwatch::now_ns()),
      pool_(options.threads) {
  listener_.set_accept_timeout_ms(options_.accept_poll_ms);
  accept_thread_ = std::thread([this] { serve(); });
}

SchedulerService::~SchedulerService() { stop(); }

void SchedulerService::stop() {
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  // In-flight connection handlers observe stopping_ after their current
  // request (or their next idle timeout) and return; the pool member's
  // destructor waits for exactly that, bounded by io_timeout_ms.
}

void SchedulerService::serve() {
  while (!stopping_.load(std::memory_order_acquire)) {
    TcpStream stream;
    try {
      stream = listener_.accept();
    } catch (const TimeoutError&) {
      continue;  // poll tick: re-check the stop flag
    } catch (const Error&) {
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;
    }
    stream.set_nodelay(true);
    stream.set_io_timeout_ms(options_.io_timeout_ms);
    // shared_ptr because std::function requires a copyable closure.
    auto conn = std::make_shared<TcpStream>(std::move(stream));
    pool_.submit([this, conn] { handle_connection(std::move(*conn)); });
  }
}

void SchedulerService::handle_connection(TcpStream stream) {
  try {
    std::vector<char> payload;
    // Version handshake first: anything else on a fresh connection is a
    // protocol violation worth a typed reply before closing.
    const std::uint32_t hello_tag = recv_message(stream, payload);
    if (hello_tag != static_cast<std::uint32_t>(rpc::RpcTag::kHello)) {
      send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest,
                     "expected Hello frame, got tag " +
                         std::to_string(hello_tag));
      return;
    }
    const std::uint32_t version = rpc::decode_hello(payload);
    if (version != rpc::kRpcProtocolVersion) {
      send_rpc_error(stream, 0, rpc::RpcErrorCode::kVersionMismatch,
                     "server speaks rpc.v" +
                         std::to_string(rpc::kRpcProtocolVersion) +
                         ", client sent v" + std::to_string(version));
      return;
    }
    std::vector<char> ack;
    rpc::encode_hello(ack, rpc::kRpcProtocolVersion);
    send_rpc(stream, rpc::RpcTag::kHelloAck, ack);

    while (!stopping_.load(std::memory_order_acquire)) {
      std::uint32_t tag = 0;
      try {
        tag = recv_message(stream, payload);
      } catch (const Error&) {
        return;  // peer closed, or idled past the deadline
      }
      obs::journal_record(obs::JournalEventKind::kRpcRequest,
                          static_cast<std::int64_t>(tag),
                          static_cast<std::int64_t>(payload.size()));
      if (tag == static_cast<std::uint32_t>(rpc::RpcTag::kShutdown)) {
        if (options_.allow_remote_shutdown) {
          stopping_.store(true, std::memory_order_release);
          return;
        }
        // Policy says no: the fire-and-forget frame is dropped and the
        // connection keeps serving (a reply here would desynchronize the
        // client's request/response pairing).
        continue;
      }
      if (tag == static_cast<std::uint32_t>(rpc::RpcTag::kIntrospectRequest)) {
        // No admission token and no solve count: inspecting an overloaded
        // daemon must still work, and must not skew what it reports.
        std::string body;
        try {
          body = obs::render_introspection(
              rpc::decode_introspect_request(payload), obs::metrics(),
              obs::journal(),
              static_cast<double>(Stopwatch::now_ns() - start_ns_) / 1e6,
              requests_served());
        } catch (const Error& e) {
          send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest, e.what());
          continue;
        }
        std::vector<char> reply;
        rpc::encode_introspect_response(reply, body);
        send_rpc(stream, rpc::RpcTag::kIntrospectResponse, reply);
        continue;
      }
      if (tag != static_cast<std::uint32_t>(rpc::RpcTag::kSolveRequest)) {
        send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest,
                       "unexpected tag " + std::to_string(tag));
        continue;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry* const metrics = obs::metrics();
      if (metrics != nullptr) metrics->counter("service.requests").add();
      const std::uint64_t request_id = peek_request_id(payload);
      if (stopping_.load(std::memory_order_acquire)) {
        send_rpc_error(stream, request_id, rpc::RpcErrorCode::kShuttingDown,
                       "daemon is draining");
        return;
      }
      rpc::SolveRequest request;
      try {
        request = rpc::decode_solve_request(payload);
      } catch (const Error& e) {
        send_rpc_error(stream, 0, rpc::RpcErrorCode::kBadRequest, e.what());
        continue;
      }
      try {
        const rpc::SolveResponse response = serve_solve(request);
        std::vector<char> body;
        rpc::encode_solve_response(body, response);
        send_rpc(stream, rpc::RpcTag::kSolveResponse, body);
      } catch (const AdmissionRefused& e) {
        // The connection stays alive: the client backs off and retries
        // without redialing.
        send_rpc_error(stream, request.request_id,
                       rpc::RpcErrorCode::kRateLimited, e.what());
      } catch (const std::exception& e) {
        // Not only redist::Error: a request the decoder accepts can still
        // be too large to allocate (std::length_error, std::bad_alloc),
        // and an exception escaping a pool job terminates the daemon.
        send_rpc_error(stream, request.request_id,
                       rpc::RpcErrorCode::kInternal, e.what());
      }
    }
  } catch (const Error&) {
    // Connection-level failure (send to a vanished peer): drop it; the
    // daemon itself is unaffected.
  }
}

rpc::SolveResponse SchedulerService::serve_solve(
    const rpc::SolveRequest& request) {
  const Stopwatch timer;
  const SolverOptions options{request.k, request.beta, request.algorithm};
  CanonicalInstance instance = canonicalize(
      request.senders, request.receivers, request.entries, options);
  const InstanceFingerprint fp = fingerprint_instance(instance);
  std::optional<CachedSolve> cached = cache_.lookup(fp, instance);

  rpc::SolveResponse response;
  response.request_id = request.request_id;
  response.served_from = rpc::ServedFrom::kCacheHit;
  if (!cached) {
    // Admission control: one token per solver run from the global
    // lock-free bucket. A hit costs no token and is never refused.
    if (!admission_.try_acquire(1)) {
      if (obs::MetricsRegistry* const metrics = obs::metrics()) {
        metrics->counter("service.rate_limited").add();
      }
      throw AdmissionRefused("admission rate exceeded; retry later");
    }
    const SolveResult solved = solve_kpbs(demand_graph(instance), options);
    cached = CachedSolve{
        .schedule_text = schedule_to_string(solved.schedule),
        .lb_min_steps = solved.lower_bound.min_steps,
        .lb_num = solved.lower_bound.min_transmission.num(),
        .lb_den = solved.lower_bound.min_transmission.den(),
        .evaluation_ratio = solved.evaluation_ratio,
        .solve_id = solved.solve_id};
    cache_.insert_solve(fp, std::move(instance), *cached);
    response.served_from = rpc::ServedFrom::kCold;
  }
  response.solve_id = cached->solve_id;
  response.lb_min_steps = cached->lb_min_steps;
  response.lb_num = cached->lb_num;
  response.lb_den = cached->lb_den;
  response.evaluation_ratio = cached->evaluation_ratio;
  response.schedule_text = std::move(cached->schedule_text);
  response.solve_ms = timer.elapsed_ms();
  return response;
}

}  // namespace redist::service
