#include "dynamic/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "netsim/fluid.hpp"

namespace redist {

BackboneTrace::BackboneTrace(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  REDIST_CHECK_MSG(!segments_.empty(), "trace needs at least one segment");
  double prev = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    REDIST_CHECK_MSG(segments_[i].backbone_bps > 0,
                     "segment " << i << " has non-positive throughput");
    if (i + 1 < segments_.size()) {
      REDIST_CHECK_MSG(segments_[i].until_seconds > prev,
                       "segment boundaries must increase");
      prev = segments_[i].until_seconds;
    }
  }
}

double BackboneTrace::at(double t_seconds) const {
  for (std::size_t i = 0; i + 1 < segments_.size(); ++i) {
    if (t_seconds < segments_[i].until_seconds) {
      return segments_[i].backbone_bps;
    }
  }
  return segments_.back().backbone_bps;
}

BackboneTrace BackboneTrace::constant(double backbone_bps) {
  return BackboneTrace({Segment{0, backbone_bps}});
}

namespace {

// Executes one step's pieces as a fluid round at the backbone throughput
// ruling when the step starts. Returns the step duration (0 for an empty
// step).
double execute_step(const Platform& base, const BackboneTrace& trace,
                    double now, const std::vector<BytePiece>& pieces,
                    const FluidOptions& options) {
  if (pieces.empty()) return 0;
  std::vector<Flow> flows;
  for (const BytePiece& piece : pieces) {
    flows.push_back(Flow{piece.sender, piece.receiver,
                         static_cast<double>(piece.bytes)});
  }
  Platform p = base;
  p.backbone_bps = trace.at(now);
  return simulate_fluid(p, flows, options).makespan_seconds +
         base.beta_seconds;
}

// Adaptive k policy: floor(T/t) never congests but can waste up to one
// card's worth of backbone (k*t < T); ceil(T/t) fills the backbone at the
// price of mild congestion. Pick whichever yields more goodput under the
// run's congestion model.
int choose_k(const Platform& p, const FluidOptions& options) {
  const double t = p.comm_speed_bps();
  const int cap = std::max(1, static_cast<int>(std::min(p.n1, p.n2)));
  int k_floor = std::max(1, static_cast<int>(p.backbone_bps / t));
  int k_ceil = k_floor +
               (static_cast<double>(k_floor) * t < p.backbone_bps - 1e-9);
  k_floor = std::min(k_floor, cap);
  k_ceil = std::min(k_ceil, cap);
  auto goodput = [&](int k) {
    const double offered = static_cast<double>(k) * t;
    double backbone = p.backbone_bps;
    if (options.congestion_alpha > 0 && offered > backbone) {
      backbone /= 1.0 + options.congestion_alpha *
                            std::log2(offered / backbone);
    }
    return std::min(offered, backbone);
  };
  return goodput(k_ceil) > goodput(k_floor) ? k_ceil : k_floor;
}

}  // namespace

DynamicRunResult run_static_under_trace(const Platform& base,
                                        const BackboneTrace& trace,
                                        const TrafficMatrix& traffic,
                                        double bytes_per_time_unit,
                                        Weight beta_units,
                                        Algorithm algorithm,
                                        const FluidOptions& options) {
  Platform p0 = base;
  p0.backbone_bps = trace.at(0);
  const int k0 = p0.max_k();
  const BipartiteGraph g = traffic.to_graph(bytes_per_time_unit);
  const Schedule schedule = solve_kpbs(g, {k0, beta_units, algorithm}).schedule;

  DynamicRunResult result;
  result.replans = 1;
  for (const std::vector<BytePiece>& pieces :
       plan_bytes(traffic, schedule, bytes_per_time_unit)) {
    const double d =
        execute_step(base, trace, result.total_seconds, pieces, options);
    if (d > 0) {
      result.total_seconds += d;
      ++result.steps;
    }
  }
  return result;
}

DynamicRunResult run_adaptive_under_trace(const Platform& base,
                                          const BackboneTrace& trace,
                                          const TrafficMatrix& traffic,
                                          double bytes_per_time_unit,
                                          Weight beta_units,
                                          Algorithm algorithm,
                                          int replan_period,
                                          const FluidOptions& options) {
  REDIST_CHECK_MSG(replan_period >= 1, "replan_period must be >= 1");
  DynamicRunResult result;
  TrafficMatrix residual = traffic;

  // Safety bound: every executed step drains at least one unit.
  const std::size_t max_rounds =
      static_cast<std::size_t>(traffic.nonzero_count()) * 64 + 64;
  std::size_t rounds = 0;
  while (residual.total() > 0) {
    REDIST_CHECK_MSG(++rounds <= max_rounds,
                     "adaptive execution failed to make progress");
    Platform p = base;
    p.backbone_bps = trace.at(result.total_seconds);
    const int k = choose_k(p, options);
    const BipartiteGraph g = residual.to_graph(bytes_per_time_unit);
    const Schedule plan = solve_kpbs(g, {k, beta_units, algorithm}).schedule;
    ++result.replans;
    REDIST_CHECK(plan.step_count() > 0);
    const BytePlan pieces = plan_bytes(residual, plan, bytes_per_time_unit);
    const std::size_t execute =
        std::min<std::size_t>(static_cast<std::size_t>(replan_period),
                              plan.step_count());
    for (std::size_t s = 0; s < execute; ++s) {
      for (const BytePiece& piece : pieces[s]) {
        residual.set(piece.sender, piece.receiver,
                     residual.at(piece.sender, piece.receiver) - piece.bytes);
      }
      const double d = execute_step(base, trace, result.total_seconds,
                                    pieces[s], options);
      if (d > 0) {
        result.total_seconds += d;
        ++result.steps;
      }
    }
  }
  return result;
}

}  // namespace redist
