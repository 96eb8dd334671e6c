// The paper's simulation workload (Section 5.1): random bipartite graphs
// with a random number of nodes (up to 40 per side) and a random number of
// edges (up to 400), edge weights uniform in a configurable range
// (1..20 for Figure 7/9, 1..10000 for Figure 8).
#pragma once

#include "common/contract_annotations.hpp"
#include "common/rng.hpp"
#include "graph/bipartite_graph.hpp"

REDIST_LAYER("workload");

namespace redist {

struct RandomGraphConfig {
  NodeId max_left = 40;
  NodeId max_right = 40;
  int max_edges = 400;
  Weight min_weight = 1;
  Weight max_weight = 20;
};

/// Samples node counts n1 ~ U[1, max_left], n2 ~ U[1, max_right], an edge
/// count m ~ U[1, min(max_edges, n1*n2)], then m *distinct* sender/receiver
/// pairs with uniform weights. The graph is simple (no parallel edges),
/// matching the traffic-matrix origin of the problem.
BipartiteGraph random_bipartite(Rng& rng, const RandomGraphConfig& config);

}  // namespace redist
