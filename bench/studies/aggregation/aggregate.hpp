// Local pre-redistribution (aggregation) — the first future-work item of
// the paper's conclusion: "achieving a local pre-redistribution in case a
// high-speed local network is available. This would allow to aggregate
// small communications together."
//
// Idea: inter-cluster messages pay a per-step setup cost beta, so many tiny
// messages inflate the step count. If cluster C1 has a fast internal
// network, a small message m(i, j) can first hop to a *gateway* sender
// g(j) (cheap, local) and ride out with g(j)'s own traffic to j, reducing
// the demand graph's edge count and degree.
//
// The planner below picks, per receiver j, the sender with the largest
// m(i, j) as the gateway and reroutes every message below
// `threshold_bytes` through it. It returns the consolidated inter-cluster
// matrix, the local transfer plan and a cost model for the local phase
// (node-bottleneck: each local link runs at local_bps, a node moves its
// in/out traffic sequentially; the phase runs in parallel across nodes).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "graph/traffic_matrix.hpp"

namespace redist {

struct LocalTransfer {
  NodeId from = kNoNode;  ///< original sender (in C1)
  NodeId to = kNoNode;    ///< gateway sender (in C1)
  NodeId receiver = kNoNode;  ///< final destination in C2 (for bookkeeping)
  Bytes bytes = 0;
};

struct AggregationPlan {
  TrafficMatrix consolidated;        ///< inter-cluster demand after local hops
  std::vector<LocalTransfer> local;  ///< intra-C1 moves to perform first
  Bytes local_bytes = 0;             ///< total locally moved volume

  explicit AggregationPlan(TrafficMatrix matrix)
      : consolidated(std::move(matrix)) {}

  /// Local-phase duration: every node sends/receives over its own local
  /// link at local_bps; the busiest node bounds the phase.
  double local_phase_seconds(double local_bps) const;
};

/// Builds the plan. Messages with bytes < threshold_bytes are rerouted to
/// the gateway of their receiver (the sender with the largest demand for
/// that receiver). Gateways never reroute their own traffic. Setting
/// threshold_bytes <= 0 returns the identity plan.
AggregationPlan plan_aggregation(const TrafficMatrix& traffic,
                                 Bytes threshold_bytes);

}  // namespace redist
