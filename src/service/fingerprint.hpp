// Canonical instance form + fingerprints for the warm solve cache.
//
// Two solve requests must answer from the same cache entry exactly when
// their schedules are guaranteed bit-identical, so the cache keys on the
// canonical form of everything the solver consumes: cluster sizes, the
// non-zero traffic entries in row-major order (entry order on the wire is
// irrelevant — the TrafficMatrix canonicalizes), k, beta and algorithm.
// Nothing else (request ids, client identity, wall clock) may leak in, or
// identical instances would stop deduplicating.
//
// Fingerprints are FNV-1a 64-bit hashes of that canonical form, used to
// index the cache; every exact hit is then *verified* against the stored
// CanonicalInstance, so a hash collision degrades to a wasted fresh solve,
// never to a wrong schedule.
//
// Alongside the full fingerprint sits a *shape* fingerprint hashing the
// same form minus the byte counts. Equal shape + different full is the
// daemon's near-miss case: the same communication pattern with drifted
// volumes (the paper's repeated-redistribution setting), which is
// precisely when a cached warm handle (SolveResult::warm_handle)
// accelerates the fresh solve.
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

  /// True when everything but the byte counts matches — the near-miss
  /// precondition (aligned weight vectors, comparable L1 distance).
  bool same_shape(const CanonicalInstance& other) const {
    return senders == other.senders && receivers == other.receivers &&
           k == other.k && beta == other.beta &&
           algorithm == other.algorithm && positions == other.positions;
  }

  /// Sum of |weights[i] - other.weights[i]|; requires same_shape(other).
  std::int64_t weight_distance(const CanonicalInstance& other) const;
};

struct InstanceFingerprint {
  std::uint64_t full = 0;   ///< shape + byte counts + solver options
  std::uint64_t shape = 0;  ///< positions + sizes + solver options only
};

/// Canonicalizes the instance (row-major non-zero scan of `m`).
CanonicalInstance canonicalize(const TrafficMatrix& m,
                               const SolverOptions& options);

/// Fingerprints the canonical form (FNV-1a 64-bit).
REDIST_PURE
InstanceFingerprint fingerprint_instance(const CanonicalInstance& instance);

}  // namespace redist::service
