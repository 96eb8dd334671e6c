// Local-search improvement for non-preemptive schedules.
//
// The related work ([18], Gopal & Wong) treats the no-preemption variant
// (NP-complete) with heuristics. This improver takes any non-preemptive
// schedule (e.g. list_schedule's) and hill-climbs on the K-PBS objective
// with two moves:
//   * relocate — move one communication into another step whose sender and
//     receiver ports are free and which has room (< k);
//   * swap     — exchange two communications between steps when both
//     placements stay feasible.
// Empty steps are dropped. Deterministic (first-improvement scan order),
// terminates when a full pass finds no improving move or the pass budget
// is exhausted.
#pragma once

#include "graph/bipartite_graph.hpp"
#include "kpbs/schedule.hpp"

namespace redist {

struct LocalSearchStats {
  int passes = 0;
  int relocations = 0;
  int swaps = 0;
  Weight initial_cost = 0;
  Weight final_cost = 0;
};

/// Improves `schedule` in place. The schedule must be feasible for
/// (`demand`, `k`) before the call and remains so afterwards; the cost
/// never increases. Returns move statistics.
LocalSearchStats improve_schedule(const BipartiteGraph& demand, int k,
                                  Weight beta, Schedule& schedule,
                                  int max_passes = 16);

}  // namespace redist
