#include "net/message.hpp"

#include <algorithm>

namespace redist {

namespace {

void acquire_all(const std::vector<TokenBucket*>& shapers, Bytes n) {
  for (TokenBucket* bucket : shapers) {
    if (bucket != nullptr) bucket->acquire(n);
  }
}

}  // namespace

void send_frame(TcpStream& stream, std::uint32_t tag, std::uint64_t size,
                PayloadSource source, const std::vector<TokenBucket*>& shapers,
                Bytes chunk) {
  REDIST_CHECK(chunk > 0);
  const MessageHeader header{tag, 0, size};
  stream.send_all(&header, sizeof(header));
  for (std::uint64_t at = 0; at < size;) {
    const auto piece = static_cast<std::size_t>(
        std::min(size - at, static_cast<std::uint64_t>(chunk)));
    acquire_all(shapers, static_cast<Bytes>(piece));
    stream.send_all(source(at, piece), piece);
    at += piece;
  }
}

void recv_payload(TcpStream& stream, std::uint64_t size, PayloadSink sink,
                  const std::vector<TokenBucket*>& shapers, Bytes chunk) {
  REDIST_CHECK(chunk > 0);
  char buffer[65536];
  const auto most = std::min<std::uint64_t>(chunk, sizeof(buffer));
  for (std::uint64_t at = 0; at < size;) {
    const auto piece = static_cast<std::size_t>(std::min(size - at, most));
    acquire_all(shapers, static_cast<Bytes>(piece));
    stream.recv_all(buffer, piece);
    sink(buffer, piece);
    at += piece;
  }
}

}  // namespace redist
