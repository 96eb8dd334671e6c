// Online redistribution — the other half of the paper's final future-work
// item: "when the redistribution pattern is not fully known in advance. We
// think that our multi-step approach could be useful for these dynamic
// cases."
//
// Demand arrives in timed batches (e.g. one per coupling iteration of the
// application). Two policies are compared:
//
//  * run_online — the paper's anticipated use of the multi-step structure:
//    between steps, newly arrived demand is merged into the residual and
//    the remainder re-planned, so late arrivals ride along with earlier
//    traffic instead of queuing behind it;
//  * run_batch_sequential — the naive policy: each batch is scheduled and
//    fully executed on its own, in arrival order.
//
// Both respect arrival times (no data is sent before it exists) and run on
// the fluid platform model.
#pragma once

#include <vector>

#include "dynamic/adaptive.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/solver.hpp"
#include "netsim/fluid.hpp"
#include "netsim/platform.hpp"

namespace redist {

struct ArrivalBatch {
  double at_seconds = 0;
  TrafficMatrix traffic;
};

struct OnlineResult {
  double total_seconds = 0;  ///< completion time of the last byte
  std::size_t steps = 0;
  std::size_t replans = 0;
  double idle_seconds = 0;   ///< time spent waiting for demand to arrive
};

/// Merge-and-replan policy. `steps_per_plan` >= 1 controls how many steps
/// of each plan execute before re-planning (1 = replan between every step).
OnlineResult run_online(const Platform& platform,
                        const std::vector<ArrivalBatch>& batches,
                        double bytes_per_time_unit, Weight beta_units,
                        Algorithm algorithm, int steps_per_plan = 1,
                        const FluidOptions& options = {});

/// One-batch-at-a-time policy.
OnlineResult run_batch_sequential(const Platform& platform,
                                  const std::vector<ArrivalBatch>& batches,
                                  double bytes_per_time_unit,
                                  Weight beta_units, Algorithm algorithm,
                                  const FluidOptions& options = {});

}  // namespace redist
