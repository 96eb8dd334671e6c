// Naive matching-decomposition baseline: peel maximum matchings at full
// edge weight (no preemption, no weight balancing, at most k edges kept per
// step). This is what a straightforward "decompose into matchings"
// implementation does and is the paper's implicit strawman for why WRGP's
// uniform-weight peeling matters.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "kpbs/schedule.hpp"

namespace redist {

Schedule naive_matching_schedule(const BipartiteGraph& demand, int k);

}  // namespace redist
