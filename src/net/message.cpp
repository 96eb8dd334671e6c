#include "net/message.hpp"

#include <algorithm>
#include <cstring>

namespace redist {

namespace {

void acquire_all(const std::vector<TokenBucket*>& shapers, Bytes n) {
  for (TokenBucket* bucket : shapers) {
    if (bucket != nullptr) bucket->acquire(n);
  }
}

}  // namespace

void send_message(TcpStream& stream, std::uint32_t tag, const void* payload,
                  std::size_t size, const std::vector<TokenBucket*>& shapers,
                  Bytes chunk) {
  REDIST_CHECK(chunk > 0);
  MessageHeader header{tag, static_cast<std::uint64_t>(size)};
  stream.send_all(&header, sizeof(header));
  const char* p = static_cast<const char*>(payload);
  std::size_t left = size;
  while (left > 0) {
    const std::size_t piece =
        std::min(left, static_cast<std::size_t>(chunk));
    acquire_all(shapers, static_cast<Bytes>(piece));
    stream.send_all(p, piece);
    p += piece;
    left -= piece;
  }
}

std::uint32_t recv_message(TcpStream& stream, std::vector<char>& payload,
                           const std::vector<TokenBucket*>& shapers,
                           Bytes chunk) {
  REDIST_CHECK(chunk > 0);
  MessageHeader header;
  stream.recv_all(&header, sizeof(header));
  payload.resize(static_cast<std::size_t>(header.size));
  char* p = payload.data();
  std::size_t left = payload.size();
  while (left > 0) {
    const std::size_t piece =
        std::min(left, static_cast<std::size_t>(chunk));
    acquire_all(shapers, static_cast<Bytes>(piece));
    stream.recv_all(p, piece);
    p += piece;
    left -= piece;
  }
  return header.tag;
}

}  // namespace redist
