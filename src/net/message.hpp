// Length-prefixed message framing over TcpStream, with optional
// token-bucket shaping of the payload path (the rshaper emulation applied
// to real sockets).
//
// Wire format: u32 tag | u64 payload size | payload bytes — all
// little-endian (the runtime targets a single host).
#pragma once

#include <cstdint>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "net/socket.hpp"
#include "runtime/token_bucket.hpp"

REDIST_LAYER("net");

namespace redist {

struct MessageHeader {
  std::uint32_t tag = 0;
  std::uint64_t size = 0;
};

/// Sends one framed message. If `shapers` is non-empty, the payload is cut
/// into `chunk` byte pieces and every piece acquires that many tokens from
/// each shaper in order (e.g. {out-card, backbone}).
void send_message(TcpStream& stream, std::uint32_t tag, const void* payload,
                  std::size_t size,
                  const std::vector<TokenBucket*>& shapers = {},
                  Bytes chunk = 65536);

/// Receives one framed message into `payload` (resized to fit). Returns the
/// tag. If `shapers` is non-empty, tokens are acquired per chunk before
/// reading it, so a slow receiver exerts real TCP backpressure on the
/// sender (the in-card shaping of the paper's testbed).
std::uint32_t recv_message(TcpStream& stream, std::vector<char>& payload,
                           const std::vector<TokenBucket*>& shapers = {},
                           Bytes chunk = 65536);

}  // namespace redist
