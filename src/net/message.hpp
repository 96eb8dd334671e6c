// Length-prefixed message framing over TcpStream, with optional
// token-bucket shaping of the payload path (the rshaper emulation applied
// to real sockets).
//
// Wire format: u32 tag | 4 zero bytes | u64 payload size | payload bytes —
// all little-endian (the runtime targets a single host). Payloads stream
// through send_frame and recv_payload, the only chunk loops.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/function_ref.hpp"
#include "common/types.hpp"
#include "net/socket.hpp"
#include "runtime/token_bucket.hpp"

REDIST_LAYER("net");

namespace redist {

struct MessageHeader {
  std::uint32_t tag = 0;
  std::uint32_t zero = 0;  // the layout's padding, sent as zeros
  std::uint64_t size = 0;
};

/// The `n` (<= chunk) payload bytes at payload offset `offset`, valid until
/// the next call.
using PayloadSource = FunctionRef<const char*(std::uint64_t offset,
                                              std::size_t n)>;
/// Handed each received piece of `n` bytes, valid only during the call.
using PayloadSink = FunctionRef<void(const char* data, std::size_t n)>;

/// The whole-buffer forms' source and sink.
inline auto source_of(const void* bytes) {
  return [p = static_cast<const char*>(bytes)](std::uint64_t at,
                                               std::size_t) { return p + at; };
}
inline auto append_to(std::vector<char>& out) {
  return [&out](const char* data, std::size_t n) {
    out.insert(out.end(), data, data + n);
  };
}

/// Sends one frame of `size` payload bytes drawn from `source` in `chunk`
/// byte pieces; each piece first acquires that many tokens from every
/// shaper in order (e.g. {out-card, backbone}).
REDIST_NOALLOC
void send_frame(TcpStream& stream, std::uint32_t tag, std::uint64_t size,
                PayloadSource source, const std::vector<TokenBucket*>& shapers,
                Bytes chunk);

/// Reads the `size` payload bytes after a MessageHeader into one 64 KiB
/// buffer in pieces of at most `chunk` bytes, handing each to `sink`. Each
/// piece first acquires its tokens, so a slow receiver exerts real TCP
/// backpressure on the sender (the in-card shaping of the paper's testbed).
REDIST_NOALLOC
void recv_payload(TcpStream& stream, std::uint64_t size, PayloadSink sink,
                  const std::vector<TokenBucket*>& shapers, Bytes chunk);

/// The whole-buffer forms: send one buffer, or receive one frame into
/// `payload` (resized to fit) and return its tag.
inline void send_message(TcpStream& stream, std::uint32_t tag,
                         const void* payload, std::size_t size,
                         const std::vector<TokenBucket*>& shapers = {},
                         Bytes chunk = 65536) {
  send_frame(stream, tag, size, source_of(payload), shapers, chunk);
}
inline std::uint32_t recv_message(TcpStream& stream,
                                  std::vector<char>& payload,
                                  const std::vector<TokenBucket*>& shapers = {},
                                  Bytes chunk = 65536) {
  MessageHeader header;
  stream.recv_all(&header, sizeof(header));
  payload.clear();
  payload.reserve(static_cast<std::size_t>(header.size));
  recv_payload(stream, header.size, append_to(payload), shapers, chunk);
  return header.tag;
}

}  // namespace redist
