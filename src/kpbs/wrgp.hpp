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
// wrgp_peel runs the loop one step at a time with any matching strategy
// and writes every matched edge; the test oracle peels with it. The peel
// solve_kpbs runs, for GGP and OGGP alike, is wrgp_peel_deferred: a
// PeelingContext owns its state and defers the decrements, so a step costs
// what changed and emits only its real edges (see peeling_context.hpp).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "kpbs/options.hpp"
#include "matching/matching.hpp"

REDIST_LAYER("kpbs");

namespace redist {

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

/// Receives one step of wrgp_peel_deferred: its amount and its real
/// matched edges, by left node.
using RealStepSink = std::function<void(Weight, std::span<const EdgeId>)>;

/// Peels `g` (mutated down to empty) with GGP's arbitrary or OGGP's
/// bottleneck matchings, the steps wrgp_peel would take with a
/// PeelingContext's per-step strategies. The edges between the first
/// `real_left` left and `real_right` right nodes are real.
REDIST_DETERMINISTIC
void wrgp_peel_deferred(BipartiteGraph& g, Algorithm algorithm,
                        NodeId real_left, NodeId real_right,
                        const RealStepSink& sink);

}  // namespace redist
