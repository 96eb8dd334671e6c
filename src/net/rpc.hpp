// redist.rpc.v2 — the versioned wire schema of the scheduler daemon.
//
// Before this schema the repo's socket entry points each improvised their
// own ad-hoc line or struct format (the introspection endpoint's bare
// lines, the mpilite mesh's raw rank integers). rpc.v2 gives solve traffic
// a typed, versioned contract instead:
//
//  * every payload rides the existing length-prefixed frame of
//    net/message.hpp (u32 tag | u64 size | payload, little-endian), with
//    the frame tag doubling as the RpcTag;
//  * a connection opens with a Hello/HelloAck version handshake. A server
//    that cannot speak the client's version answers ErrorResponse
//    {kVersionMismatch} and closes, so mismatches fail loudly at connect
//    time instead of corrupting mid-stream;
//  * requests and responses are plain structs encoded by bounds-checked
//    little-endian codecs that throw redist::Error on malformed input
//    (truncated payloads, absurd counts, unknown enum values) — the same
//    functions the malformed-frame fuzzer drives (tests/test_fuzz_parsers);
//  * error replies are first-class typed responses with stable numeric
//    codes, not free-text lines.
//
// Deprecation path for the bare-line forms: the introspection endpoint
// (obs/introspect.hpp) keeps accepting its one-line "statusz" requests —
// they are a human/debug surface, not solve traffic — but new machine
// clients must speak rpc.v2; docs/SERVICE.md documents the window after
// which bare-line solve submission (never shipped) stays unsupported and
// any future introspection-over-rpc migration would bump
// kRpcProtocolVersion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "kpbs/options.hpp"

REDIST_LAYER("net");

namespace redist::rpc {

/// Protocol generation. Bump on any incompatible wire change; the
/// handshake rejects mismatches with kVersionMismatch. Version 2 dropped
/// the matching-engine byte version 1 carried after the algorithm code.
inline constexpr std::uint32_t kRpcProtocolVersion = 2;

/// Frame tags (the u32 tag slot of net/message.hpp frames).
enum class RpcTag : std::uint32_t {
  kHello = 0x5201,          ///< client → server: protocol version
  kHelloAck = 0x5202,       ///< server → client: accepted version
  kSolveRequest = 0x5203,   ///< client → server: one instance to schedule
  kSolveResponse = 0x5204,  ///< server → client: schedule + provenance
  kError = 0x5205,          ///< server → client: typed failure
  kShutdown = 0x5206,       ///< client → server: stop the daemon
};

/// Stable numeric error codes (wire contract — append only).
enum class RpcErrorCode : std::uint32_t {
  kBadRequest = 1,       ///< malformed or semantically invalid request
  kVersionMismatch = 2,  ///< handshake protocol version not supported
  kRateLimited = 3,      ///< admission token bucket empty; retry later
  kShuttingDown = 4,     ///< daemon is draining; no new work accepted
  kInternal = 5,         ///< solver threw; message carries the what()
};

/// Name for an error code ("bad_request", ...); "unknown" otherwise.
const char* rpc_error_code_name(RpcErrorCode code);

/// One traffic-matrix entry: sender i must ship `bytes` to receiver j.
struct TrafficEntry {
  NodeId sender = 0;
  NodeId receiver = 0;
  Bytes bytes = 0;
};

/// Client → server: schedule one redistribution instance.
struct SolveRequest {
  std::uint64_t request_id = 0;  ///< echoed in the response, client-chosen
  std::int32_t k = 1;            ///< SolverOptions::k
  Weight beta = 1;               ///< SolverOptions::beta
  Algorithm algorithm = Algorithm::kOGGP;
  NodeId senders = 0;    ///< cluster C1 size
  NodeId receivers = 0;  ///< cluster C2 size
  std::vector<TrafficEntry> entries;  ///< non-zero matrix entries
};

/// Where the daemon's answer came from (cache provenance, also journaled).
enum class ServedFrom : std::uint8_t {
  kCold = 0,          ///< full solve, no cache involvement
  kCacheHit = 1,      ///< exact fingerprint hit, cached result replayed
  kWarmNearMiss = 2,  ///< solved fresh, warm-seeded from a near-miss entry
};

const char* served_from_name(ServedFrom s);

/// Server → client: the schedule plus the quality/latency facts.
struct SolveResponse {
  std::uint64_t request_id = 0;    ///< echo of SolveRequest::request_id
  std::uint64_t solve_id = 0;      ///< flight-recorder join key
  ServedFrom served_from = ServedFrom::kCold;
  double solve_ms = 0.0;           ///< server-side service time
  std::int64_t lb_min_steps = 0;   ///< LowerBound::min_steps
  std::int64_t lb_num = 0;         ///< LowerBound::min_transmission (exact)
  std::int64_t lb_den = 1;
  double evaluation_ratio = 1.0;
  std::string schedule_text;       ///< kpbs/schedule_io.hpp text format
};

/// Server → client: typed failure.
struct ErrorResponse {
  std::uint64_t request_id = 0;  ///< echo when known, 0 otherwise
  RpcErrorCode code = RpcErrorCode::kInternal;
  std::string message;
};

// ---------------------------------------------------------------------------
// Codecs. Encoders append to `out`; decoders parse a full payload and throw
// redist::Error on anything malformed (bounds-checked — fuzz targets).

void encode_hello(std::vector<char>& out, std::uint32_t version);
std::uint32_t decode_hello(const std::vector<char>& payload);

void encode_solve_request(std::vector<char>& out, const SolveRequest& req);
SolveRequest decode_solve_request(const std::vector<char>& payload);

void encode_solve_response(std::vector<char>& out, const SolveResponse& resp);
SolveResponse decode_solve_response(const std::vector<char>& payload);

void encode_error_response(std::vector<char>& out, const ErrorResponse& err);
ErrorResponse decode_error_response(const std::vector<char>& payload);

}  // namespace redist::rpc
