// Exact K-PBS solver for tiny instances (tests and sanity experiments only).
//
// The paper did not implement an optimal solver ("designing such an
// algorithm is difficult"); we provide one for instances small enough to
// enumerate, so tests can sandwich LB <= OPT <= ALG <= 2*LB.
//
// Search space: a step chooses a matching of at most k alive edges plus an
// integer duration d in [1, max residual of the matching]; each chosen edge
// transmits min(d, residual). With integer weights an optimal schedule with
// integer durations exists (any fractional schedule can be rounded step by
// step without increasing cost because costs are piecewise linear in the
// durations with breakpoints at integers). States (residual weight vectors)
// are memoized.
#pragma once

#include "common/types.hpp"
#include "graph/bipartite_graph.hpp"

namespace redist {

struct ExactLimits {
  int max_edges = 7;          ///< Refuse larger instances.
  Weight max_total_weight = 64;  ///< Refuse heavier instances.
};

/// Optimal K-PBS cost of `demand`. Throws if the instance exceeds `limits`
/// (the state space is exponential). beta >= 0; k is clamped like the
/// approximation solvers do.
Weight exact_optimal_cost(const BipartiteGraph& demand, int k, Weight beta,
                          const ExactLimits& limits = {});

}  // namespace redist
