// Matching representation and validity checks.
//
// A matching is a set of edge ids of a BipartiteGraph such that no two edges
// share an endpoint — the paper's model of one communication step (1-port
// constraint). A matching is *perfect* when it saturates every vertex on
// both sides, which requires equal side sizes.
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"

REDIST_LAYER("matching");

namespace redist {

struct Matching {
  std::vector<EdgeId> edges;

  std::size_t size() const { return edges.size(); }
  bool empty() const { return edges.empty(); }
};

/// True iff `m` is a valid matching of alive edges of `g`.
REDIST_PURE
bool is_matching(const BipartiteGraph& g, const Matching& m);

/// True iff `m` is a valid matching saturating all vertices of both sides.
REDIST_PURE
bool is_perfect_matching(const BipartiteGraph& g, const Matching& m);

/// Smallest edge weight in the matching; 0 for an empty matching.
REDIST_PURE
Weight min_weight(const BipartiteGraph& g, const Matching& m);

}  // namespace redist
