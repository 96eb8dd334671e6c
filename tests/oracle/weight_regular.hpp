// Weight-regular test inputs for the WRGP, matching and validator suites.
#pragma once

#include "common/rng.hpp"
#include "graph/bipartite_graph.hpp"

namespace redist {

/// Samples a weight-regular graph: overlays `layers` random permutation
/// matchings of n x n, each with one uniform weight, then merges parallel
/// edges. Every node ends with the same total weight.
BipartiteGraph random_weight_regular(Rng& rng, NodeId n, int layers,
                                     Weight min_weight, Weight max_weight);

}  // namespace redist
