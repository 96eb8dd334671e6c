// Canonical instance form + fingerprint for the solve cache.
//
// Two solve requests must answer from the same cache entry exactly when
// their schedules are guaranteed bit-identical, so the cache keys on the
// canonical form of everything the solver consumes: cluster sizes, the
// non-zero traffic entries in row-major order (entry order on the wire is
// irrelevant — the TrafficMatrix canonicalizes), k, beta and algorithm.
// Nothing else (request ids, client identity, wall clock) may leak in, or
// identical instances would stop deduplicating.
//
// The fingerprint is an FNV-1a 64-bit hash of that canonical form, used to
// index the cache; every hit is then *verified* against the stored
// CanonicalInstance, so a hash collision degrades to a wasted fresh solve,
// never to a wrong schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/options.hpp"

REDIST_LAYER("service");

namespace redist::service {

/// The exact solver input, in canonical (row-major, deduplicated) order.
struct CanonicalInstance {
  NodeId senders = 0;
  NodeId receivers = 0;
  std::int32_t k = 1;
  Weight beta = 1;
  Algorithm algorithm = Algorithm::kOGGP;
  std::vector<std::uint64_t> positions;  ///< i * receivers + j of non-zeros
  std::vector<Bytes> weights;            ///< byte counts, aligned 1:1

  bool operator==(const CanonicalInstance&) const = default;
};

/// Hash of every CanonicalInstance field: sizes, solver options, positions
/// and byte counts.
using InstanceFingerprint = std::uint64_t;

/// Canonicalizes the instance (row-major non-zero scan of `m`).
CanonicalInstance canonicalize(const TrafficMatrix& m,
                               const SolverOptions& options);

/// Fingerprints the canonical form (FNV-1a 64-bit).
REDIST_PURE
InstanceFingerprint fingerprint_instance(const CanonicalInstance& instance);

}  // namespace redist::service
