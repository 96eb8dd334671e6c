#include "service/fingerprint.hpp"

namespace redist::service {

namespace {

// FNV-1a, 64-bit. Simple, dependency-free and plenty for a cache index
// whose hits are verified against the stored CanonicalInstance anyway.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

struct Fnv {
  std::uint64_t state = kFnvOffset;

  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state ^= (value >> (i * 8)) & 0xFF;
      state *= kFnvPrime;
    }
  }
};

}  // namespace

CanonicalInstance canonicalize(const TrafficMatrix& m,
                               const SolverOptions& options) {
  CanonicalInstance instance;
  instance.senders = m.senders();
  instance.receivers = m.receivers();
  instance.k = options.k;
  instance.beta = options.beta;
  instance.algorithm = options.algorithm;
  const auto nonzeros = static_cast<std::size_t>(m.nonzero_count());
  instance.positions.reserve(nonzeros);
  instance.weights.reserve(nonzeros);
  for (NodeId i = 0; i < m.senders(); ++i) {
    for (NodeId j = 0; j < m.receivers(); ++j) {
      const Bytes bytes = m.at(i, j);
      if (bytes == 0) continue;
      instance.positions.push_back(
          static_cast<std::uint64_t>(i) *
              static_cast<std::uint64_t>(m.receivers()) +
          static_cast<std::uint64_t>(j));
      instance.weights.push_back(bytes);
    }
  }
  return instance;
}

InstanceFingerprint fingerprint_instance(const CanonicalInstance& instance) {
  Fnv fnv;
  fnv.mix(static_cast<std::uint64_t>(instance.senders));
  fnv.mix(static_cast<std::uint64_t>(instance.receivers));
  fnv.mix(static_cast<std::uint64_t>(instance.k));
  fnv.mix(static_cast<std::uint64_t>(instance.beta));
  fnv.mix(static_cast<std::uint64_t>(instance.algorithm));
  for (std::uint64_t position : instance.positions) fnv.mix(position);
  for (Bytes bytes : instance.weights) {
    fnv.mix(static_cast<std::uint64_t>(bytes));
  }
  return fnv.state;
}

}  // namespace redist::service
