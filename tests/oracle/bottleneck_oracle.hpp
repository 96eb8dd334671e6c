// Test oracle for the peeling engine (matching/peeling_context.hpp).
//
// Production GGP/OGGP peel through one engine, PeelingContext, which warm
// starts every step from the previous one. This oracle is the from-scratch
// reference it is checked against:
//
//  * bottleneck_*_threshold — binary search over the distinct alive
//    weights, one fresh greedy-seeded Hopcroft–Karp run per probe on the
//    subgraph of edges >= the threshold: O(m sqrt(n) log m);
//  * bottleneck_maximal_incremental — the paper's Figure 6: add edges
//    heaviest-first, re-augment, stop when the matching reaches maximum
//    cardinality: O(m^2);
//  * solve — solve_kpbs's pipeline (beta-normalize, regularize, WRGP peel,
//    extract) with a given peel; with max_weight_perfect_matching
//    (oracle/hungarian.hpp) it is GGP-MW.
//
// Both bottleneck algorithms return matchings achieving the same (optimal)
// bottleneck value, and bottleneck_perfect_matching checks that on every
// call.
//
// GGP's step is pinned byte for byte: a from-scratch max_matching. OGGP's
// step contract is "a perfect matching of the residual whose minimum is the
// optimal bottleneck t*"; many matchings meet it, and the one taken shapes
// every later residual, so no from-scratch search predicts the bytes of a
// warm peel. The OGGP reference is therefore the production peel with
// every step audited against the from-scratch bottleneck
// (check_bottleneck_step).
#pragma once

#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "kpbs/options.hpp"
#include "kpbs/schedule.hpp"
#include "kpbs/wrgp.hpp"
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

/// Throws unless `m` is a perfect matching of `g` whose minimum equals
/// bottleneck_perfect_matching's on `g` (the optimal bottleneck t*): the
/// contract of every OGGP step.
void check_bottleneck_step(const BipartiteGraph& g, const Matching& m);

/// wrgp_peel driven by one fresh PeelingContext's per-step strategies
/// (bottleneck_perfect for OGGP, arbitrary_perfect for GGP, before_peel as
/// the observer), as bench/e2e layers.cpp composes them: the per-step form
/// of the engine solve_kpbs runs deferred.
std::vector<PeelStep> per_step_peel(BipartiteGraph& g, Algorithm algorithm);

/// per_step_peel's OGGP peel of `g` with check_bottleneck_step on every
/// step.
/// `observer`, if set, runs after each check, before the weights drop.
std::vector<PeelStep> checked_oggp_peel(BipartiteGraph& g,
                                        const PeelObserver& observer = {});

/// solve_kpbs's pipeline peeling with `strategy` from scratch every step.
Schedule solve(const BipartiteGraph& demand, int k, Weight beta,
               const PerfectMatchingStrategy& strategy);

/// The schedule solve_kpbs(demand, {k, beta, algorithm}) must produce: for
/// GGP, the from-scratch peel; for OGGP, checked_oggp_peel's, so every
/// step is audited.
Schedule solve(const BipartiteGraph& demand, int k, Weight beta,
               Algorithm algorithm);

/// A schedule and the name of the peeling that produced it.
struct NamedSchedule {
  std::string name;
  Schedule schedule;
};

/// solve_kpbs's GGP and OGGP schedules, then the GGP-MW ablation's.
std::vector<NamedSchedule> every_peeling(const BipartiteGraph& demand, int k,
                                         Weight beta);

}  // namespace redist::oracle
