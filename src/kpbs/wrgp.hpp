// WRGP — Weight-Regular Graph Peeling (Section 4.1 of the paper).
//
// Input: a weight-regular bipartite graph with equal side sizes (every node
// has total adjacent weight c). WRGP repeatedly (1) finds a perfect matching
// M of the residual graph, (2) takes w = the smallest residual weight in M,
// (3) emits (M, w) as a communication step and subtracts w from every edge
// of M. Because M is perfect and uniform-w, the residual stays
// weight-regular, so a perfect matching exists at every iteration (Hall);
// at least one edge dies per iteration, bounding steps by the edge count.
//
// wrgp_peel runs the loop with any matching strategy; the test oracle
// peels with it from scratch. wrgp_peel_warm is solve_kpbs's one path, for
// GGP and OGGP alike: it threads a PeelingContext through the steps so the
// previous bottleneck and the solver buffers persist across steps.
#pragma once

#include <functional>
#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "kpbs/options.hpp"
#include "matching/matching.hpp"

REDIST_LAYER("kpbs");

namespace redist {

class PeelingContext;

/// One peeled step: the matching used and the uniform amount transmitted on
/// each of its edges.
struct PeelStep {
  Matching matching;
  Weight amount = 0;
};

/// Strategy returning a perfect matching of the (weight-regular) residual
/// graph. GGP uses an arbitrary maximum matching; OGGP a bottleneck one.
using PerfectMatchingStrategy =
    std::function<Matching(const BipartiteGraph&)>;

/// Observer invoked once per step, after the matching and amount are fixed
/// but *before* the weights are decreased (so it still sees the residual
/// weights the matching was computed against). Used to keep warm-start
/// state in sync with the peeling.
using PeelObserver =
    std::function<void(const BipartiteGraph&, const Matching&, Weight)>;

/// Peels `g` (mutated in place down to empty). Throws if `g` is not
/// weight-regular with equal sides, or if a strategy ever fails to return a
/// perfect matching (which would indicate a broken strategy, not bad input).
REDIST_DETERMINISTIC
std::vector<PeelStep> wrgp_peel(BipartiteGraph& g,
                                const PerfectMatchingStrategy& strategy,
                                const PeelObserver& observer = {});

/// Peels `g` with PeelingContext matchings: arbitrary ones for GGP (buffer
/// reuse only), bottleneck ones for OGGP (cap probe + widest paths),
/// reusing matching and weight state across steps via `ctx`. `ctx` must be
/// fresh (or have last been used on this same peeling sequence).
REDIST_DETERMINISTIC
std::vector<PeelStep> wrgp_peel_warm(BipartiteGraph& g, Algorithm algorithm,
                                     PeelingContext& ctx);

}  // namespace redist
