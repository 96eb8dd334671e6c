#include "netsim/executor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace redist {

ExecutionResult simulate_bruteforce(const Platform& p,
                                    const TrafficMatrix& traffic,
                                    const FluidOptions& options) {
  REDIST_CHECK(traffic.senders() == p.n1 && traffic.receivers() == p.n2);
  std::vector<Flow> flows;
  for (NodeId i = 0; i < p.n1; ++i) {
    for (NodeId j = 0; j < p.n2; ++j) {
      const Bytes b = traffic.at(i, j);
      if (b > 0) flows.push_back(Flow{i, j, static_cast<double>(b)});
    }
  }
  ExecutionResult result;
  result.steps = flows.empty() ? 0 : 1;
  if (!flows.empty()) {
    const FluidResult fluid = simulate_fluid(p, flows, options);
    result.total_seconds = fluid.makespan_seconds;
    result.transmission_seconds = fluid.makespan_seconds;
  }
  for (const Flow& f : flows) result.bytes_delivered += f.bytes;
  return result;
}

ExecutionResult execute_schedule(const Platform& p,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit,
                                 const FluidOptions& options) {
  return execute_schedule_heterogeneous(p, traffic, schedule,
                                        bytes_per_time_unit, {}, {}, options);
}

ExecutionResult execute_schedule_heterogeneous(
    const Platform& p, const TrafficMatrix& traffic, const Schedule& schedule,
    double bytes_per_time_unit, const std::vector<double>& t1_scale,
    const std::vector<double>& t2_scale, const FluidOptions& options) {
  REDIST_CHECK(traffic.senders() == p.n1 && traffic.receivers() == p.n2);
  REDIST_CHECK(t1_scale.empty() ||
               t1_scale.size() == static_cast<std::size_t>(p.n1));
  REDIST_CHECK(t2_scale.empty() ||
               t2_scale.size() == static_cast<std::size_t>(p.n2));
  const auto scale_at = [](const std::vector<double>& scale, NodeId v) {
    return scale.empty() ? 1.0 : scale[static_cast<std::size_t>(v)];
  };
  const BytePlan plan =
      plan_bytes(traffic, schedule, [&](NodeId i, NodeId j) {
        return bytes_per_time_unit *
               std::min(scale_at(t1_scale, i), scale_at(t2_scale, j));
      });

  // Each non-empty step is one fluid simulation plus a barrier.
  ExecutionResult result;
  FluidOptions step_options = options;
  for (const std::vector<BytePiece>& pieces : plan) {
    if (pieces.empty()) continue;
    std::vector<Flow> flows;
    for (const BytePiece& piece : pieces) {
      flows.push_back(Flow{piece.sender, piece.receiver,
                           static_cast<double>(piece.bytes)});
      result.bytes_delivered += static_cast<double>(piece.bytes);
    }
    step_options.seed = options.seed + result.steps * 0x9E3779B9ULL;
    const FluidResult fluid = simulate_fluid(p, flows, step_options);
    result.transmission_seconds += fluid.makespan_seconds;
    result.barrier_seconds += p.beta_seconds;
    ++result.steps;
  }
  result.total_seconds =
      result.transmission_seconds + result.barrier_seconds;
  return result;
}

}  // namespace redist
