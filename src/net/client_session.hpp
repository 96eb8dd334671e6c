// ClientSession — the one way client code dials a redist loopback service.
//
// Before this class existed the repo had three hand-rolled client dial
// paths, each with its own connect/retry/deadline policy: the mpilite mesh
// wiring loop (retrier around connect + rank handshake), the CLI's
// introspection fetch (no retry at all) and the sweep harness's socket
// runs. ClientSession centralizes the policy:
//
//  * dial() covers connect + optional application handshake under one
//    robust::Retrier — a failed handshake redials from scratch, exactly
//    the mesh's semantics (a half-handshaken connection is useless);
//  * every dialed stream comes back with nodelay and the idle deadline
//    already armed, so no call site can forget either;
//  * the retry count is observable (retries_out) for the metrics the mesh
//    exports.
//
// On top of the raw dial it speaks the two application protocols:
//  * rpc.v2 (net/rpc.hpp) — dial_rpc() performs the Hello/HelloAck version
//    handshake inside the retry budget; solve()/shutdown() frame and
//    decode typed messages, surfacing server-side ErrorResponses as
//    RpcRemoteError;
//  * the introspection endpoint's HTTP/1.0 form — fetch() sends one GET
//    and returns the body (used by `redist_cli inspect` and smoke tests).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/contract_annotations.hpp"
#include "common/error.hpp"
#include "net/rpc.hpp"
#include "net/socket.hpp"
#include "robust/retry.hpp"

REDIST_LAYER("net");

namespace redist {

/// The single connect/retry/deadline policy shared by every client.
struct ClientSessionOptions {
  robust::RetryPolicy retry;  ///< covers connect + handshake per attempt
  int io_timeout_ms = 2000;   ///< idle deadline armed on the dialed stream
  bool nodelay = true;        ///< disable Nagle (request/response traffic)
};

/// A server-side rpc.v2 failure, rethrown client-side with the typed
/// ErrorResponse attached (code + request echo survive the wire).
class RpcRemoteError : public Error {
 public:
  explicit RpcRemoteError(rpc::ErrorResponse response)
      : Error(std::string("rpc remote error [") +
              rpc::rpc_error_code_name(response.code) +
              "]: " + response.message),
        response_(std::move(response)) {}

  const rpc::ErrorResponse& response() const { return response_; }

 private:
  rpc::ErrorResponse response_;
};

class ClientSession {
 public:
  /// Application handshake run on the freshly connected stream inside the
  /// retry budget; throw redist::Error to trigger a redial from scratch.
  using Handshake = std::function<void(TcpStream&)>;

  /// Dials 127.0.0.1:port under `options.retry`; each attempt is
  /// connect + nodelay + deadline + `handshake` (when given). Reports the
  /// retries performed into `retries_out` when non-null.
  static ClientSession dial(std::uint16_t port,
                            const ClientSessionOptions& options = {},
                            const Handshake& handshake = {},
                            int* retries_out = nullptr);

  /// dial() plus the rpc.v2 Hello/HelloAck version handshake (handshake
  /// failures — including a server ErrorResponse{kVersionMismatch} — count
  /// against the retry budget like refused connections).
  static ClientSession dial_rpc(std::uint16_t port,
                                const ClientSessionOptions& options = {},
                                int* retries_out = nullptr);

  /// One-shot introspection fetch: dial, send "GET /<target> HTTP/1.0",
  /// read to server close, return the body after the header blank line.
  static std::string fetch(std::uint16_t port, const std::string& target,
                           const ClientSessionOptions& options = {});

  ClientSession(ClientSession&&) = default;
  ClientSession& operator=(ClientSession&&) = default;

  /// The dialed stream, for protocols layered above this class.
  TcpStream& stream() { return stream_; }

  /// Sends one rpc.v2 SolveRequest and decodes the reply. Throws
  /// RpcRemoteError when the server answers a typed ErrorResponse, plain
  /// Error on framing violations. Valid on dial_rpc() sessions.
  rpc::SolveResponse solve(const rpc::SolveRequest& request);

  /// Asks the daemon to stop accepting and drain (fire-and-forget frame).
  void shutdown_server();

 private:
  explicit ClientSession(TcpStream stream) : stream_(std::move(stream)) {}

  TcpStream stream_;
};

}  // namespace redist
