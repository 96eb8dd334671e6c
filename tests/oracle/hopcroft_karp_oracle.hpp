// Test oracle for HopcroftKarp::solve() (matching/hopcroft_karp.hpp).
//
// The recursive form of the cold Hopcroft–Karp run: a greedy seed in
// ascending edge id order, then phases of a breadth-first layering from
// every free left node and one depth-first augmenting search per free
// left node, each walking a left node's usable edges in adjacency order.
// Production runs the same search with a branch-free layering and an
// explicit-stack search; this is the reference it must match edge id for
// edge id, in the order its changes() log records, with the same hk.*
// counts. The recursion is as deep as the longest augmenting path, so keep
// the inputs small.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace redist::oracle {

struct ReferenceMatching {
  std::vector<EdgeId> match_left;  ///< left node -> matched edge or kNoEdge
  /// Each left node once, in the order it was first matched, with the edge
  /// it held before (always kNoEdge: the run starts empty).
  std::vector<std::pair<NodeId, EdgeId>> changes;
  std::uint64_t phases = 0;            ///< hk.phases
  std::uint64_t augmenting_paths = 0;  ///< hk.augmenting_paths
};

/// Maximum matching of the edges of `g` weighing at least `min_weight`
/// (>= 1, so only alive edges) that `mask` permits (empty: all).
ReferenceMatching reference_max_matching(const BipartiteGraph& g,
                                         Weight min_weight = 1,
                                         const std::vector<char>& mask = {});

}  // namespace redist::oracle
