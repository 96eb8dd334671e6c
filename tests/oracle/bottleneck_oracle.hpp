// Test oracle for the peeling engine (matching/peeling_context.hpp).
//
// Production GGP/OGGP peel through one engine, PeelingContext, which warm
// starts every bottleneck search from the previous step. This oracle is
// the from-scratch reference it must agree with, byte for byte:
//
//  * bottleneck_*_threshold — binary search over the distinct alive
//    weights, one fresh greedy-seeded Hopcroft–Karp run per probe on the
//    subgraph of edges >= the threshold: O(m sqrt(n) log m);
//  * bottleneck_maximal_incremental — the paper's Figure 6: add edges
//    heaviest-first, re-augment, stop when the matching reaches maximum
//    cardinality: O(m^2);
//  * solve — solve_kpbs's pipeline (beta-normalize, regularize, WRGP peel,
//    extract) with the strategies below instead of PeelingContext.
//
// Both bottleneck algorithms return matchings achieving the same (optimal)
// bottleneck value, and bottleneck_perfect_matching checks that on every
// call.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "kpbs/options.hpp"
#include "kpbs/schedule.hpp"
#include "matching/matching.hpp"

namespace redist::oracle {

/// Maximum matching (of the alive edges) maximizing the minimal edge weight,
/// via threshold binary search. The result has maximum cardinality among all
/// matchings of alive edges.
Matching bottleneck_maximal_threshold(const BipartiteGraph& g);

/// Perfect matching maximizing the minimal edge weight. Throws if no perfect
/// matching exists or the sides differ in size.
Matching bottleneck_perfect_threshold(const BipartiteGraph& g);

/// The paper's Figure 6 algorithm.
Matching bottleneck_maximal_incremental(const BipartiteGraph& g);

/// WRGP strategies: GGP's arbitrary perfect matching (max_matching), and
/// OGGP's bottleneck perfect matching, which throws unless Figure 6 reaches
/// the same bottleneck value.
Matching arbitrary_perfect_matching(const BipartiteGraph& g);
Matching bottleneck_perfect_matching(const BipartiteGraph& g);

/// The schedule solve_kpbs(demand, {k, beta, algorithm}) must produce.
Schedule solve(const BipartiteGraph& demand, int k, Weight beta,
               Algorithm algorithm);

}  // namespace redist::oracle
