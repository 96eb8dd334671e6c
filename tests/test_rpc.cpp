// rpc.v4 over real loopback sockets: the Hello/HelloAck version handshake,
// typed solve round-trips through ClientSession, first-class error
// responses (bad requests, version mismatches) that keep the connection
// usable, and the remote shutdown frame. Codec domain validation is also
// covered here; byte-level mutation fuzzing lives in test_fuzz_parsers.
#include "net/rpc.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/schedule_validator.hpp"
#include "kpbs/solver.hpp"
#include "net/client_session.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "robust/retry.hpp"
#include "service/scheduler_service.hpp"

namespace redist {
namespace {

/// A small 3x3 instance with enough structure to need several steps.
rpc::SolveRequest small_request(std::uint64_t request_id) {
  rpc::SolveRequest req;
  req.request_id = request_id;
  req.k = 2;
  req.beta = 1;
  req.senders = 3;
  req.receivers = 3;
  req.entries = {{0, 0, 10}, {0, 1, 4}, {1, 1, 7},
                 {1, 2, 3},  {2, 0, 5}, {2, 2, 8}};
  return req;
}

TEST(Rpc, AlgorithmCodesRoundTrip) {
  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    rpc::SolveRequest req = small_request(7);
    req.algorithm = algo;
    std::vector<char> wire;
    rpc::encode_solve_request(wire, req);
    EXPECT_EQ(rpc::decode_solve_request(wire).algorithm, algo);
  }
}

TEST(Rpc, DecoderRejectsOutOfDomainRequests) {
  const auto reject = [](rpc::SolveRequest req) {
    std::vector<char> wire;
    rpc::encode_solve_request(wire, req);
    EXPECT_THROW((void)rpc::decode_solve_request(wire), Error);
  };
  {
    rpc::SolveRequest req = small_request(1);
    req.k = 0;  // k must be >= 1
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(2);
    req.beta = -1;  // negative setup cost
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(3);
    req.senders = 0;  // empty cluster
    req.entries.clear();
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(4);
    req.entries.push_back({3, 0, 5});  // sender id == senders (out of range)
    reject(req);
  }
  {
    rpc::SolveRequest req = small_request(5);
    req.entries.push_back({0, 0, 0});  // zero-byte transfer is not an entry
    reject(req);
  }
  // rpc.v3 retired algorithm code 2 (GGP-MW) and served_from code 2 (warm
  // near miss). Neither encodes, so patch the byte (layout as pinned below).
  std::vector<char> request;
  rpc::encode_solve_request(request, small_request(6));
  request[8 + 4 + 8] = 2;  // request_id | k | beta | algorithm
  EXPECT_THROW((void)rpc::decode_solve_request(request), Error);
  std::vector<char> response;
  rpc::encode_solve_response(response, rpc::SolveResponse{});
  response[8 + 8] = 2;  // request_id | solve_id | served_from
  EXPECT_THROW((void)rpc::decode_solve_response(response), Error);
}

TEST(Rpc, ErrorCodeNamesAreStable) {
  // Wire contract: these names appear in metrics (service.error.<name>)
  // and docs/SERVICE.md; renaming one is a breaking change.
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kBadRequest),
               "bad_request");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kVersionMismatch),
               "version_mismatch");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kRateLimited),
               "rate_limited");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(rpc::rpc_error_code_name(rpc::RpcErrorCode::kInternal),
               "internal");
  EXPECT_STREQ(rpc::served_from_name(rpc::ServedFrom::kCold), "cold");
  EXPECT_STREQ(rpc::served_from_name(rpc::ServedFrom::kCacheHit),
               "cache_hit");
  EXPECT_STREQ(rpc::served_from_name(rpc::ServedFrom::kWarmNearMiss),
               "warm_near_miss");
}

/// Lower-case hex of an encoding, for comparing with pinned bytes.
std::string hex(const std::vector<char>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(Rpc, WireBytesArePinned) {
  // rpc.v4 is a wire contract: these encodings must not change without a
  // kRpcProtocolVersion bump. Each encoder appends to what `out` holds.
  rpc::SolveRequest req;
  req.request_id = 0x0102030405060708ULL;
  req.k = 3;
  req.beta = 5;
  req.algorithm = Algorithm::kGGP;
  req.senders = 3;
  req.receivers = 4;
  req.entries = {{0, 1, 10}, {2, 3, 0x1122334455667788LL}, {1, 0, 1}};
  std::vector<char> request;
  rpc::encode_solve_request(request, req);
  EXPECT_EQ(hex(request),
            "0807060504030201"  // request_id
            "03000000"          // k
            "0500000000000000"  // beta
            "00"                // algorithm (GGP)
            "03000000"          // senders
            "04000000"          // receivers
            "03000000"          // entry count
            "00000000" "01000000" "0a00000000000000"
            "02000000" "03000000" "8877665544332211"
            "01000000" "00000000" "0100000000000000");

  rpc::SolveResponse resp;
  resp.request_id = 42;
  resp.solve_id = 0xdeadbeefULL;
  resp.served_from = rpc::ServedFrom::kCacheHit;
  resp.solve_ms = 1.5;
  resp.lb_min_steps = 3;
  resp.lb_num = 7;
  resp.lb_den = 2;
  resp.evaluation_ratio = 1.25;
  resp.schedule_text = "schedule 1\n";
  std::vector<char> response;
  rpc::encode_solve_response(response, resp);
  EXPECT_EQ(hex(response),
            "2a00000000000000"  // request_id
            "efbeadde00000000"  // solve_id
            "01"                // served_from (cache_hit)
            "000000000000f83f"  // solve_ms 1.5
            "0300000000000000"  // lb_min_steps
            "0700000000000000"  // lb_num
            "0200000000000000"  // lb_den
            "000000000000f43f"  // evaluation_ratio 1.25
            "0b000000"          // schedule_text length
            "7363686564756c6520310a");

  rpc::ErrorResponse err;
  err.request_id = 9;
  err.code = rpc::RpcErrorCode::kRateLimited;
  err.message = "retry later";
  std::vector<char> error;
  rpc::encode_error_response(error, err);
  EXPECT_EQ(hex(error),
            "0900000000000000"  // request_id
            "03000000"          // code (rate_limited)
            "0b000000"          // message length
            "7265747279206c61746572");

  std::vector<char> hello{'x'};
  rpc::encode_hello(hello, rpc::kRpcProtocolVersion);
  EXPECT_EQ(hex(hello), "78" "04000000");

  std::vector<char> introspect;
  rpc::encode_introspect_request(introspect, "statusz");
  EXPECT_EQ(hex(introspect),
            "07000000"  // target length
            "7374617475737a");
  std::vector<char> body;
  rpc::encode_introspect_response(body, "ok\n");
  EXPECT_EQ(hex(body),
            "03000000"  // body length
            "6f6b0a");
  EXPECT_EQ(static_cast<std::uint32_t>(rpc::RpcTag::kIntrospectRequest),
            0x5207u);
  EXPECT_EQ(static_cast<std::uint32_t>(rpc::RpcTag::kIntrospectResponse),
            0x5208u);
}

TEST(Rpc, HandshakeAndSolveRoundTripOverSocket) {
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  const rpc::SolveRequest request = small_request(42);
  const rpc::SolveResponse response = session.solve(request);
  EXPECT_EQ(response.request_id, 42u);
  EXPECT_EQ(response.served_from, rpc::ServedFrom::kCold);
  EXPECT_GE(response.evaluation_ratio, 1.0);
  EXPECT_GT(response.lb_den, 0);

  // The shipped schedule must parse and validate against the instance.
  const Schedule schedule = schedule_from_string(response.schedule_text);
  BipartiteGraph g(3, 3);
  for (const rpc::TrafficEntry& e : request.entries) {
    g.add_edge(e.sender, e.receiver, e.bytes);
  }
  ScheduleValidatorOptions options;
  options.k = 2;
  options.beta = 1;
  EXPECT_TRUE(ScheduleValidator(options).validate(g, schedule).ok());
  daemon.stop();
}

TEST(Rpc, VersionMismatchAnswersTypedErrorAtConnectTime) {
  service::SchedulerService daemon;
  // Version 1 carried a matching-engine byte; version 2 accepted the GGP-MW
  // algorithm code; version 3 had no introspection frames. All are turned
  // away, as is a client from the future.
  ASSERT_EQ(rpc::kRpcProtocolVersion, 4u);
  for (const std::uint32_t version :
       {1u, 2u, 3u, rpc::kRpcProtocolVersion + 41}) {
    TcpStream stream = TcpStream::connect_loopback(daemon.port());
    stream.set_io_timeout_ms(5000);

    std::vector<char> hello;
    rpc::encode_hello(hello, version);
    send_message(stream, static_cast<std::uint32_t>(rpc::RpcTag::kHello),
                 hello.data(), hello.size());

    std::vector<char> payload;
    const std::uint32_t tag = recv_message(stream, payload);
    ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError))
        << "version " << version;
    const rpc::ErrorResponse err = rpc::decode_error_response(payload);
    EXPECT_EQ(err.code, rpc::RpcErrorCode::kVersionMismatch)
        << "version " << version;
  }
  daemon.stop();
}

TEST(Rpc, DialRpcSurfacesVersionMismatchAfterRetryBudget) {
  service::SchedulerService daemon;
  // A client pinned to a version the server cannot speak fails loudly —
  // the handshake error survives the (small) retry budget.
  ClientSessionOptions options;
  options.retry.max_attempts = 2;
  options.retry.base_delay_ms = 1;
  options.retry.max_delay_ms = 2;
  TcpStream probe = TcpStream::connect_loopback(daemon.port());  // sanity
  probe.set_io_timeout_ms(1000);
  EXPECT_THROW(
      {
        ClientSession session = ClientSession::dial(
            daemon.port(), options, [](TcpStream& stream) {
              std::vector<char> hello;
              rpc::encode_hello(hello, rpc::kRpcProtocolVersion + 1);
              send_message(stream,
                           static_cast<std::uint32_t>(rpc::RpcTag::kHello),
                           hello.data(), hello.size());
              std::vector<char> payload;
              const std::uint32_t tag = recv_message(stream, payload);
              if (tag != static_cast<std::uint32_t>(rpc::RpcTag::kHelloAck)) {
                throw RpcRemoteError(rpc::decode_error_response(payload));
              }
            });
      },
      Error);
  daemon.stop();
}

TEST(Rpc, MalformedSolvePayloadGetsBadRequestAndConnectionSurvives) {
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  // Garbage payload under the solve tag: typed kBadRequest, not a hangup.
  const char garbage[] = "definitely not a solve request";
  send_message(session.stream(),
               static_cast<std::uint32_t>(rpc::RpcTag::kSolveRequest),
               garbage, sizeof(garbage));
  std::vector<char> payload;
  const std::uint32_t tag = recv_message(session.stream(), payload);
  ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError));
  EXPECT_EQ(rpc::decode_error_response(payload).code,
            rpc::RpcErrorCode::kBadRequest);

  // The same connection then serves a well-formed request.
  const rpc::SolveResponse response = session.solve(small_request(8));
  EXPECT_EQ(response.request_id, 8u);
  daemon.stop();
}

TEST(Rpc, UnknownTagGetsBadRequest) {
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  send_message(session.stream(), 0x9999, nullptr, 0);
  std::vector<char> payload;
  const std::uint32_t tag = recv_message(session.stream(), payload);
  ASSERT_EQ(tag, static_cast<std::uint32_t>(rpc::RpcTag::kError));
  EXPECT_EQ(rpc::decode_error_response(payload).code,
            rpc::RpcErrorCode::kBadRequest);
  daemon.stop();
}

TEST(Rpc, RemoteShutdownStopsTheDaemon) {
  service::SchedulerService daemon;
  ASSERT_FALSE(daemon.stopping());
  {
    ClientSession session = ClientSession::dial_rpc(daemon.port());
    session.shutdown_server();
  }
  // The shutdown frame is processed by the connection handler; the stop
  // flag must flip without any client-side join handle.
  for (int spin = 0; spin < 200 && !daemon.stopping(); ++spin) {
    robust::sleep_ms(10);
  }
  EXPECT_TRUE(daemon.stopping());
  daemon.stop();
}

TEST(Rpc, ShutdownCanBeDisabledByPolicy) {
  service::SchedulerServiceOptions options;
  options.allow_remote_shutdown = false;
  service::SchedulerService daemon(options);
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  session.shutdown_server();
  // Frame is ignored; the daemon keeps serving on the same connection.
  const rpc::SolveResponse response = session.solve(small_request(9));
  EXPECT_EQ(response.request_id, 9u);
  EXPECT_FALSE(daemon.stopping());
  daemon.stop();
}

TEST(Rpc, SolveValidatesRequestIdEcho) {
  // ClientSession::solve rejects a response whose request_id does not echo
  // the request — catching daemon-side bookkeeping bugs at the client.
  service::SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  const rpc::SolveResponse first = session.solve(small_request(1001));
  EXPECT_EQ(first.request_id, 1001u);
  const rpc::SolveResponse second = session.solve(small_request(1002));
  EXPECT_EQ(second.request_id, 1002u);
  daemon.stop();
}

}  // namespace
}  // namespace redist
