// Maximum-weight perfect matching on bipartite graphs (Kuhn–Munkres /
// Jonker-Volgenant style, dense O(n^3)).
//
// The paper notes GGP works with *any* matching algorithm and that the
// choice matters (OGGP exists precisely because of that). This solver is
// the GGP-MW ablation's strategy, oracle::solve(demand, k, beta,
// max_weight_perfect_matching): maximize the *total* weight of the perfect
// matching, as opposed to GGP's arbitrary and OGGP's max-min matching.
#pragma once

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace redist {

/// Perfect matching of the alive edges maximizing the summed edge weight.
/// Requires equal side sizes and an existing perfect matching (throws
/// otherwise). With parallel edges, the heaviest edge per pair is used.
REDIST_DETERMINISTIC
Matching max_weight_perfect_matching(const BipartiteGraph& g);

}  // namespace redist
