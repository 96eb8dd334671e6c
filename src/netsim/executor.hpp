// Executes redistribution strategies on the simulated platform.
//
// * `simulate_bruteforce` — the paper's baseline: one flow per non-zero
//   traffic-matrix entry, all started simultaneously, TCP-like fair sharing
//   (plus the congestion model of fluid.hpp).
// * `execute_schedule` — the paper's scheduled mode: steps run one after
//   another, separated by barriers; each step's (disjoint, <= k) flows are
//   simulated on the same platform and the step costs its fluid makespan
//   plus beta_seconds.
#pragma once

#include "common/contract_annotations.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/schedule.hpp"
#include "netsim/fluid.hpp"
#include "netsim/platform.hpp"

REDIST_LAYER("netsim");

namespace redist {

struct ExecutionResult {
  double total_seconds = 0;
  double transmission_seconds = 0;  ///< total minus barrier/setup time
  double barrier_seconds = 0;
  std::size_t steps = 0;
  double bytes_delivered = 0;
};

/// All-at-once baseline.
ExecutionResult simulate_bruteforce(const Platform& p,
                                    const TrafficMatrix& traffic,
                                    const FluidOptions& options = {});

/// Stepped execution of `schedule`, whose communication amounts are in
/// abstract time units worth `bytes_per_time_unit` bytes each, cut into
/// bytes by plan_bytes (kpbs/schedule.hpp); throws what plan_bytes throws.
ExecutionResult execute_schedule(const Platform& p,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit,
                                 const FluidOptions& options = {});

/// Heterogeneous variant (scenario matrix, workload/scenario.hpp): demand
/// weights were built as time_units(bytes, bytes_per_time_unit *
/// pair_speed) with pair_speed = min(t1_scale[i], t2_scale[j]), so one
/// scheduled time unit of pair (i, j) is worth bytes_per_time_unit *
/// pair_speed bytes. Empty scale vectors mean 1.0 everywhere (then it is
/// exactly the homogeneous overload).
ExecutionResult execute_schedule_heterogeneous(
    const Platform& p, const TrafficMatrix& traffic, const Schedule& schedule,
    double bytes_per_time_unit, const std::vector<double>& t1_scale,
    const std::vector<double>& t2_scale, const FluidOptions& options = {});

}  // namespace redist
