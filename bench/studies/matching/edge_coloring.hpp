// Bipartite edge coloring (König's theorem): every bipartite multigraph can
// be partitioned into exactly Delta(G) matchings.
//
// This is the classical optimal-step decomposition for the unweighted PBS
// problem when k >= Delta: each color class is one communication step. It
// backs (a) the coloring baseline (baselines/coloring.hpp), which minimizes
// the *number* of steps while ignoring durations, and (b) tests that need
// an independent witness that Delta matchings always suffice.
//
// Implementation: pad the graph to a Delta-regular bipartite multigraph
// (equal sides, every vertex degree Delta) by adding dummy vertices/edges,
// then peel Delta perfect matchings (Hall guarantees they exist, exactly as
// in WRGP but on degrees instead of weights).
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace redist {

/// Partitions the alive edges of `g` into exactly max_degree(g) matchings.
/// Every alive edge id appears in exactly one returned matching.
/// Returns an empty vector for an empty graph.
REDIST_DETERMINISTIC
std::vector<Matching> bipartite_edge_coloring(const BipartiteGraph& g);

}  // namespace redist
