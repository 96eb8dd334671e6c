#include "dynamic/online.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace redist {

namespace {

void check_batches(const Platform& platform,
                   const std::vector<ArrivalBatch>& batches) {
  REDIST_CHECK_MSG(!batches.empty(), "no arrival batches");
  double prev = -1;
  for (const ArrivalBatch& b : batches) {
    REDIST_CHECK_MSG(b.at_seconds >= 0 && b.at_seconds >= prev,
                     "batch arrival times must be non-decreasing");
    REDIST_CHECK_MSG(b.traffic.senders() == platform.n1 &&
                         b.traffic.receivers() == platform.n2,
                     "batch dimensions do not match the platform");
    prev = b.at_seconds;
  }
}

void merge_into(TrafficMatrix& pending, const TrafficMatrix& batch) {
  for (NodeId i = 0; i < batch.senders(); ++i) {
    for (NodeId j = 0; j < batch.receivers(); ++j) {
      if (batch.at(i, j) > 0) pending.add(i, j, batch.at(i, j));
    }
  }
}

// Executes one step's pieces; returns its duration (transmission + beta),
// or 0 for an empty step.
double execute_one(const Platform& platform,
                   const std::vector<BytePiece>& pieces,
                   const FluidOptions& options) {
  if (pieces.empty()) return 0;
  std::vector<Flow> flows;
  for (const BytePiece& piece : pieces) {
    flows.push_back(Flow{piece.sender, piece.receiver,
                         static_cast<double>(piece.bytes)});
  }
  return simulate_fluid(platform, flows, options).makespan_seconds +
         platform.beta_seconds;
}

}  // namespace

OnlineResult run_online(const Platform& platform,
                        const std::vector<ArrivalBatch>& batches,
                        double bytes_per_time_unit, Weight beta_units,
                        Algorithm algorithm, int steps_per_plan,
                        const FluidOptions& options) {
  check_batches(platform, batches);
  REDIST_CHECK_MSG(steps_per_plan >= 1, "steps_per_plan must be >= 1");
  const int k = platform.max_k();

  OnlineResult result;
  TrafficMatrix pending(platform.n1, platform.n2);
  std::size_t next_batch = 0;

  const std::size_t max_rounds = batches.size() * 256 + 4096;
  std::size_t rounds = 0;
  for (;;) {
    REDIST_CHECK_MSG(++rounds <= max_rounds, "online loop stuck");
    // Absorb everything that has arrived by now.
    while (next_batch < batches.size() &&
           batches[next_batch].at_seconds <= result.total_seconds) {
      merge_into(pending, batches[next_batch].traffic);
      ++next_batch;
    }
    if (pending.total() == 0) {
      if (next_batch >= batches.size()) break;  // done
      // Idle until the next arrival.
      const double gap =
          batches[next_batch].at_seconds - result.total_seconds;
      result.idle_seconds += gap;
      result.total_seconds = batches[next_batch].at_seconds;
      continue;
    }
    const BipartiteGraph g = pending.to_graph(bytes_per_time_unit);
    const Schedule plan = solve_kpbs(g, {k, beta_units, algorithm}).schedule;
    ++result.replans;
    const BytePlan pieces = plan_bytes(pending, plan, bytes_per_time_unit);
    const std::size_t execute = std::min<std::size_t>(
        static_cast<std::size_t>(steps_per_plan), plan.step_count());
    for (std::size_t s = 0; s < execute; ++s) {
      for (const BytePiece& piece : pieces[s]) {
        pending.set(piece.sender, piece.receiver,
                    pending.at(piece.sender, piece.receiver) - piece.bytes);
      }
      const double d = execute_one(platform, pieces[s], options);
      if (d > 0) {
        result.total_seconds += d;
        ++result.steps;
      }
    }
  }
  return result;
}

OnlineResult run_batch_sequential(const Platform& platform,
                                  const std::vector<ArrivalBatch>& batches,
                                  double bytes_per_time_unit,
                                  Weight beta_units, Algorithm algorithm,
                                  const FluidOptions& options) {
  check_batches(platform, batches);
  const int k = platform.max_k();

  OnlineResult result;
  for (const ArrivalBatch& batch : batches) {
    if (batch.at_seconds > result.total_seconds) {
      result.idle_seconds += batch.at_seconds - result.total_seconds;
      result.total_seconds = batch.at_seconds;
    }
    if (batch.traffic.total() == 0) continue;
    const BipartiteGraph g = batch.traffic.to_graph(bytes_per_time_unit);
    const Schedule plan = solve_kpbs(g, {k, beta_units, algorithm}).schedule;
    ++result.replans;
    for (const std::vector<BytePiece>& pieces :
         plan_bytes(batch.traffic, plan, bytes_per_time_unit)) {
      const double d = execute_one(platform, pieces, options);
      if (d > 0) {
        result.total_seconds += d;
        ++result.steps;
      }
    }
  }
  return result;
}

}  // namespace redist
