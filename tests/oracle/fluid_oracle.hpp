// Test oracle for the fluid simulator (netsim/fluid.hpp).
//
// Production progressive filling builds its constraint structure once per
// simulation and keeps it across flow completions: each constraint lists
// only its active flows, a round visits only constraints that still have an
// unfrozen flow, and the freeze pass's loads are reused by the next round.
// This oracle is the from-scratch reference it must match to the bit:
//
//  * max_min_rates — rebuilds all n1 + n2 + 1 constraints (every flow, active
//    or not) and re-sums every constraint over every flow in every round;
//  * simulate_fluid — calls it once per event, twice under the congestion
//    model (the offered-load fill with an infinite backbone);
//  * simulate_bruteforce / execute_schedule — netsim/executor.cpp's stepping
//    over the oracle's simulate_fluid; execute_schedule re-derives the byte
//    pieces of kpbs/schedule.hpp's plan_bytes on its own (cumulative units
//    rounded down, the pair's last communication carrying the rest).
#pragma once

#include <vector>

#include "graph/traffic_matrix.hpp"
#include "kpbs/schedule.hpp"
#include "netsim/executor.hpp"
#include "netsim/fluid.hpp"
#include "netsim/platform.hpp"

namespace redist::oracle {

std::vector<double> max_min_rates(const Platform& p,
                                  const std::vector<Flow>& flows,
                                  const std::vector<char>& active,
                                  double backbone_bps_override = 0,
                                  const std::vector<double>& weights = {});

FluidResult simulate_fluid(const Platform& p, const std::vector<Flow>& flows,
                           const FluidOptions& options = {});

ExecutionResult simulate_bruteforce(const Platform& p,
                                    const TrafficMatrix& traffic,
                                    const FluidOptions& options = {});

ExecutionResult execute_schedule(const Platform& p,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit,
                                 const FluidOptions& options = {});

}  // namespace redist::oracle
