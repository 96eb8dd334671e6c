// Edge-coloring scheduler: the classical minimum-step decomposition.
//
// König's theorem partitions the demand into exactly Delta(G) matchings
// (see matching/edge_coloring.hpp). Used as a schedule, each color class is
// one non-preemptive step (split into ceil(|class| / k) pieces when a class
// exceeds k). For k >= Delta this achieves the minimum possible *number of
// steps* — the objective of the SS/TDMA line of work ([17] in the paper) —
// while completely ignoring durations, which is exactly the trade-off GGP
// and OGGP improve on.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "kpbs/schedule.hpp"

namespace redist {

Schedule coloring_schedule(const BipartiteGraph& demand, int k);

}  // namespace redist
