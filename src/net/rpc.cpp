#include "net/rpc.hpp"

#include <cstring>
#include <limits>
#include <type_traits>

#include "common/error.hpp"

namespace redist::rpc {

const char* rpc_error_code_name(RpcErrorCode code) {
  switch (code) {
    case RpcErrorCode::kBadRequest:
      return "bad_request";
    case RpcErrorCode::kVersionMismatch:
      return "version_mismatch";
    case RpcErrorCode::kRateLimited:
      return "rate_limited";
    case RpcErrorCode::kShuttingDown:
      return "shutting_down";
    case RpcErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

const char* served_from_name(ServedFrom s) {
  switch (s) {
    case ServedFrom::kCold:
      return "cold";
    case ServedFrom::kCacheHit:
      return "cache_hit";
    case ServedFrom::kWarmNearMiss:
      return "warm_near_miss";
  }
  return "unknown";
}

namespace {

// Little-endian scalar writer/reader. The runtime targets a single host
// (see net/message.hpp), so these are memcpy-based with explicit bounds
// checks on the read side — decode functions are fuzz targets and must
// reject every truncated or oversized payload with redist::Error, never
// read out of bounds.

template <typename T>
void put(std::vector<char>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

class Reader {
 public:
  explicit Reader(const std::vector<char>& payload) : payload_(payload) {}

  template <typename T>
  T get(const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload_.size() - pos_ < sizeof(T)) {
      throw Error(std::string("rpc: truncated payload reading ") + what);
    }
    T value;
    std::memcpy(&value, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string get_string(const char* what) {
    const auto size = get<std::uint32_t>(what);
    if (payload_.size() - pos_ < size) {
      throw Error(std::string("rpc: truncated payload reading ") + what);
    }
    std::string value(payload_.data() + pos_, size);
    pos_ += size;
    return value;
  }

  /// Every decoder ends with this: trailing garbage is a framing bug (or a
  /// fuzzer), not something to silently ignore.
  void expect_end(const char* what) const {
    if (pos_ != payload_.size()) {
      throw Error(std::string("rpc: trailing bytes after ") + what);
    }
  }

  std::size_t remaining() const { return payload_.size() - pos_; }

 private:
  const std::vector<char>& payload_;
  std::size_t pos_ = 0;
};

void put_string(std::vector<char>& out, const std::string& s) {
  REDIST_CHECK_MSG(s.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "rpc: string too large to encode");
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

Algorithm decode_algorithm(std::uint8_t raw) {
  switch (raw) {
    case 0:
      return Algorithm::kGGP;
    case 1:
      return Algorithm::kOGGP;
    case 2:
      return Algorithm::kGGPMaxWeight;
    default:
      throw Error("rpc: unknown algorithm code " + std::to_string(raw));
  }
}

std::uint8_t encode_algorithm(Algorithm a) {
  switch (a) {
    case Algorithm::kGGP:
      return 0;
    case Algorithm::kOGGP:
      return 1;
    case Algorithm::kGGPMaxWeight:
      return 2;
  }
  throw Error("rpc: unencodable algorithm");
}

}  // namespace

void encode_hello(std::vector<char>& out, std::uint32_t version) {
  put<std::uint32_t>(out, version);
}

std::uint32_t decode_hello(const std::vector<char>& payload) {
  Reader r(payload);
  const auto version = r.get<std::uint32_t>("hello.version");
  r.expect_end("hello");
  return version;
}

void encode_solve_request(std::vector<char>& out, const SolveRequest& req) {
  put<std::uint64_t>(out, req.request_id);
  put<std::int32_t>(out, req.k);
  put<std::int64_t>(out, req.beta);
  put<std::uint8_t>(out, encode_algorithm(req.algorithm));
  put<std::int32_t>(out, req.senders);
  put<std::int32_t>(out, req.receivers);
  REDIST_CHECK_MSG(
      req.entries.size() <= std::numeric_limits<std::uint32_t>::max(),
      "rpc: too many traffic entries to encode");
  put<std::uint32_t>(out, static_cast<std::uint32_t>(req.entries.size()));
  for (const TrafficEntry& e : req.entries) {
    put<std::int32_t>(out, e.sender);
    put<std::int32_t>(out, e.receiver);
    put<std::int64_t>(out, e.bytes);
  }
}

SolveRequest decode_solve_request(const std::vector<char>& payload) {
  Reader r(payload);
  SolveRequest req;
  req.request_id = r.get<std::uint64_t>("request.request_id");
  req.k = r.get<std::int32_t>("request.k");
  req.beta = r.get<std::int64_t>("request.beta");
  req.algorithm = decode_algorithm(r.get<std::uint8_t>("request.algorithm"));
  req.senders = r.get<std::int32_t>("request.senders");
  req.receivers = r.get<std::int32_t>("request.receivers");
  if (req.k < 1) throw Error("rpc: request.k must be >= 1");
  if (req.beta < 0) throw Error("rpc: request.beta must be >= 0");
  if (req.senders < 1 || req.receivers < 1) {
    throw Error("rpc: cluster sizes must be >= 1");
  }
  const auto count = r.get<std::uint32_t>("request.entry_count");
  // Each entry takes 16 payload bytes; reject counts the remaining payload
  // cannot possibly hold before reserving anything (fuzz resilience).
  constexpr std::size_t kEntryBytes = 16;
  if (r.remaining() / kEntryBytes < count) {
    throw Error("rpc: entry count exceeds payload");
  }
  req.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TrafficEntry e;
    e.sender = r.get<std::int32_t>("entry.sender");
    e.receiver = r.get<std::int32_t>("entry.receiver");
    e.bytes = r.get<std::int64_t>("entry.bytes");
    if (e.sender < 0 || e.sender >= req.senders || e.receiver < 0 ||
        e.receiver >= req.receivers) {
      throw Error("rpc: traffic entry out of matrix bounds");
    }
    if (e.bytes <= 0) throw Error("rpc: traffic entry bytes must be > 0");
    req.entries.push_back(e);
  }
  r.expect_end("solve_request");
  return req;
}

void encode_solve_response(std::vector<char>& out, const SolveResponse& resp) {
  put<std::uint64_t>(out, resp.request_id);
  put<std::uint64_t>(out, resp.solve_id);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(resp.served_from));
  put<double>(out, resp.solve_ms);
  put<std::int64_t>(out, resp.lb_min_steps);
  put<std::int64_t>(out, resp.lb_num);
  put<std::int64_t>(out, resp.lb_den);
  put<double>(out, resp.evaluation_ratio);
  put_string(out, resp.schedule_text);
}

SolveResponse decode_solve_response(const std::vector<char>& payload) {
  Reader r(payload);
  SolveResponse resp;
  resp.request_id = r.get<std::uint64_t>("response.request_id");
  resp.solve_id = r.get<std::uint64_t>("response.solve_id");
  const auto served = r.get<std::uint8_t>("response.served_from");
  if (served > static_cast<std::uint8_t>(ServedFrom::kWarmNearMiss)) {
    throw Error("rpc: unknown served_from code " + std::to_string(served));
  }
  resp.served_from = static_cast<ServedFrom>(served);
  resp.solve_ms = r.get<double>("response.solve_ms");
  resp.lb_min_steps = r.get<std::int64_t>("response.lb_min_steps");
  resp.lb_num = r.get<std::int64_t>("response.lb_num");
  resp.lb_den = r.get<std::int64_t>("response.lb_den");
  if (resp.lb_den <= 0) throw Error("rpc: lower-bound denominator must be > 0");
  resp.evaluation_ratio = r.get<double>("response.evaluation_ratio");
  resp.schedule_text = r.get_string("response.schedule_text");
  r.expect_end("solve_response");
  return resp;
}

void encode_error_response(std::vector<char>& out, const ErrorResponse& err) {
  put<std::uint64_t>(out, err.request_id);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(err.code));
  put_string(out, err.message);
}

ErrorResponse decode_error_response(const std::vector<char>& payload) {
  Reader r(payload);
  ErrorResponse err;
  err.request_id = r.get<std::uint64_t>("error.request_id");
  const auto code = r.get<std::uint32_t>("error.code");
  if (code < static_cast<std::uint32_t>(RpcErrorCode::kBadRequest) ||
      code > static_cast<std::uint32_t>(RpcErrorCode::kInternal)) {
    throw Error("rpc: unknown error code " + std::to_string(code));
  }
  err.code = static_cast<RpcErrorCode>(code);
  err.message = r.get_string("error.message");
  r.expect_end("error_response");
  return err;
}

}  // namespace redist::rpc
