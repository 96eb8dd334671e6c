// Dynamic backbone throughput — the second future-work item of the paper's
// conclusion: "study the problem when the throughput of the backbone varies
// dynamically ... our multi-step approach could be useful for these dynamic
// cases."
//
// The backbone throughput is a piecewise-constant trace T(t) (e.g. shared
// WAN background traffic). Two executions are compared:
//
//  * static: solve once with k derived from T(0) and execute the whole
//    schedule while the backbone varies underneath it;
//  * adaptive: before every step, re-derive k from the *current* T(t) and
//    re-solve the residual demand, executing only the first step of the new
//    plan — exactly the "multi-step approach" the paper anticipated.
//
// Both run on the fluid simulator; within one step the backbone is taken as
// constant at its value when the step starts (steps are short relative to
// trace segments).
#pragma once

#include <vector>

#include "graph/traffic_matrix.hpp"
#include "kpbs/solver.hpp"
#include "netsim/fluid.hpp"
#include "netsim/platform.hpp"

namespace redist {

/// Piecewise-constant backbone throughput trace.
class BackboneTrace {
 public:
  struct Segment {
    double until_seconds = 0;  ///< segment covers [previous until, this one)
    double backbone_bps = 0;
  };

  /// Segments must have increasing `until_seconds` and positive rates; the
  /// last segment's rate extends to infinity.
  explicit BackboneTrace(std::vector<Segment> segments);

  double at(double t_seconds) const;

  /// Convenience: constant trace.
  static BackboneTrace constant(double backbone_bps);

 private:
  std::vector<Segment> segments_;
};

struct DynamicRunResult {
  double total_seconds = 0;
  std::size_t steps = 0;
  std::size_t replans = 0;  ///< 1 for static execution
};

/// Executes the schedule produced for T(0) while the backbone follows the
/// trace (k per step is NOT adapted).
DynamicRunResult run_static_under_trace(const Platform& base,
                                        const BackboneTrace& trace,
                                        const TrafficMatrix& traffic,
                                        double bytes_per_time_unit,
                                        Weight beta_units,
                                        Algorithm algorithm,
                                        const FluidOptions& options = {});

/// Re-plans before every step using the backbone throughput at the current
/// time. `replan_period` > 1 re-solves only every that-many steps (a cheap
/// middle ground).
DynamicRunResult run_adaptive_under_trace(const Platform& base,
                                          const BackboneTrace& trace,
                                          const TrafficMatrix& traffic,
                                          double bytes_per_time_unit,
                                          Weight beta_units,
                                          Algorithm algorithm,
                                          int replan_period = 1,
                                          const FluidOptions& options = {});

}  // namespace redist
