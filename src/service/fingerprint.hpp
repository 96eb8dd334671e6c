// Canonical instance form + fingerprint for the solve cache.
//
// Two solve requests must answer from the same cache entry exactly when
// their schedules are guaranteed bit-identical, so the cache keys on the
// canonical form of everything the solver consumes: cluster sizes, the
// non-zero traffic entries in row-major order (entry order on the wire is
// irrelevant — canonicalize sorts them), k, beta and algorithm.
// Nothing else (request ids, client identity, wall clock) may leak in, or
// identical instances would stop deduplicating.
//
// The fingerprint hashes that canonical form a 64-bit word at a time to
// index the cache; every hit is then *verified* against the stored
// CanonicalInstance, so a hash collision degrades to a wasted fresh solve,
// never to a wrong schedule.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/options.hpp"
#include "net/rpc.hpp"

REDIST_LAYER("service");

namespace redist::service {

/// The exact solver input, in canonical (row-major, deduplicated) order.
struct CanonicalInstance {
  NodeId senders = 0;
  NodeId receivers = 0;
  std::int32_t k = 1;
  Weight beta = 1;
  Algorithm algorithm = Algorithm::kOGGP;
  /// (i * receivers + j, byte count) of each non-zero, positions ascending.
  std::vector<std::pair<std::uint64_t, Bytes>> cells;

  bool operator==(const CanonicalInstance&) const = default;
};

/// Hash of every CanonicalInstance field: sizes, solver options, positions
/// and byte counts.
using InstanceFingerprint = std::uint64_t;

/// Canonicalizes m entries in O(m log m), never n1 x n2: checks them as
/// TrafficMatrix would, drops zeros, sorts unless already row-major and
/// sums duplicates, throwing past INT64_MAX.
CanonicalInstance canonicalize(NodeId senders, NodeId receivers,
                               const std::vector<rpc::TrafficEntry>& entries,
                               const SolverOptions& options);

/// The same for a dense matrix (its non-zeros, row-major).
CanonicalInstance canonicalize(const TrafficMatrix& m,
                               const SolverOptions& options);

/// One edge per cell, weighing its bytes: to_graph_bytes(), edge for edge.
BipartiteGraph demand_graph(const CanonicalInstance& instance);

/// Fingerprints the canonical form, one 64-bit word at a time.
REDIST_PURE
InstanceFingerprint fingerprint_instance(const CanonicalInstance& instance);

}  // namespace redist::service
