#include "net/client_session.hpp"

#include <string>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace redist {

namespace {

/// One request/response exchange on an rpc session: sends `payload` under
/// `tag` and returns the reply payload, which must carry `reply_tag`. A
/// typed ErrorResponse is rethrown as RpcRemoteError.
std::vector<char> exchange(TcpStream& stream, rpc::RpcTag tag,
                           const std::vector<char>& payload,
                           rpc::RpcTag reply_tag) {
  send_message(stream, static_cast<std::uint32_t>(tag), payload.data(),
               payload.size());
  std::vector<char> reply;
  const std::uint32_t got = recv_message(stream, reply);
  if (got == static_cast<std::uint32_t>(rpc::RpcTag::kError)) {
    throw RpcRemoteError(rpc::decode_error_response(reply));
  }
  if (got != static_cast<std::uint32_t>(reply_tag)) {
    throw Error("rpc: unexpected reply tag " + std::to_string(got));
  }
  return reply;
}

}  // namespace

ClientSession ClientSession::dial(std::uint16_t port,
                                  const ClientSessionOptions& options,
                                  const Handshake& handshake,
                                  int* retries_out) {
  robust::Retrier retrier(options.retry);
  TcpStream stream = retrier.run([&]() {
    TcpStream fresh = TcpStream::connect_loopback(port);
    fresh.set_nodelay(true);
    fresh.set_io_timeout_ms(options.io_timeout_ms);
    // The handshake runs inside the attempt: a stream that connected but
    // failed its application handshake is discarded and redialed whole.
    if (handshake) handshake(fresh);
    return fresh;
  });
  if (retries_out != nullptr) *retries_out = retrier.retries();
  return ClientSession(std::move(stream));
}

ClientSession ClientSession::dial_rpc(std::uint16_t port,
                                      const ClientSessionOptions& options,
                                      int* retries_out) {
  return dial(
      port, options,
      [](TcpStream& stream) {
        std::vector<char> payload;
        rpc::encode_hello(payload, rpc::kRpcProtocolVersion);
        const std::uint32_t version = rpc::decode_hello(exchange(
            stream, rpc::RpcTag::kHello, payload, rpc::RpcTag::kHelloAck));
        if (version != rpc::kRpcProtocolVersion) {
          throw Error("rpc handshake: server acked version " +
                      std::to_string(version) + ", want " +
                      std::to_string(rpc::kRpcProtocolVersion));
        }
      },
      retries_out);
}

rpc::SolveResponse ClientSession::solve(const rpc::SolveRequest& request) {
  std::vector<char> payload;
  rpc::encode_solve_request(payload, request);
  rpc::SolveResponse response = rpc::decode_solve_response(
      exchange(stream_, rpc::RpcTag::kSolveRequest, payload,
               rpc::RpcTag::kSolveResponse));
  if (response.request_id != request.request_id) {
    throw Error("rpc solve: response echoes request " +
                std::to_string(response.request_id) + ", want " +
                std::to_string(request.request_id));
  }
  return response;
}

std::string ClientSession::introspect(const std::string& target) {
  std::vector<char> payload;
  rpc::encode_introspect_request(payload, target);
  return rpc::decode_introspect_response(
      exchange(stream_, rpc::RpcTag::kIntrospectRequest, payload,
               rpc::RpcTag::kIntrospectResponse));
}

void ClientSession::shutdown_server() {
  send_message(stream_, static_cast<std::uint32_t>(rpc::RpcTag::kShutdown),
               nullptr, 0);
}

}  // namespace redist
