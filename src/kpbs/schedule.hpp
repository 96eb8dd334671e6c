// Schedule: the output of a K-PBS solver.
//
// A schedule is an ordered list of communication steps. Each step is a set
// of point-to-point communications obeying the 1-port constraint (every
// sender/receiver appears at most once) and containing at most k
// communications. The cost of a schedule is sum_i (beta + duration(step_i)),
// where duration is the longest communication of the step — the paper's
// objective function.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/traffic_matrix.hpp"

REDIST_LAYER("kpbs");

namespace redist {

/// One point-to-point transfer within a step. `amount` is in the same
/// integer time units as the input graph's edge weights.
struct Communication {
  NodeId sender = kNoNode;
  NodeId receiver = kNoNode;
  Weight amount = 0;
};

struct Step {
  std::vector<Communication> comms;

  /// Step duration W(M): the longest communication.
  Weight duration() const;
  std::size_t size() const { return comms.size(); }
};

class Schedule {
 public:
  void add_step(Step step) { steps_.push_back(std::move(step)); }

  const std::vector<Step>& steps() const { return steps_; }
  std::size_t step_count() const { return steps_.size(); }

  /// Sum of step durations (no setup costs).
  REDIST_PURE
  Weight total_transmission() const;

  /// The paper's objective: sum_i (beta + duration_i).
  REDIST_PURE
  Weight cost(Weight beta) const;

  /// Total amount transferred over all steps and communications.
  Weight total_amount() const;

  /// Human-readable dump.
  std::string to_string() const;

 private:
  std::vector<Step> steps_;
};

/// One communication of a schedule, in bytes.
struct BytePiece {
  NodeId sender = kNoNode;
  NodeId receiver = kNoNode;
  Bytes bytes = 0;
};

/// plan[s][c] is what communication c of step s carries.
using BytePlan = std::vector<std::vector<BytePiece>>;

/// The one units -> bytes rule (docs/ALGORITHMS.md §5): cuts `traffic`
/// into the communications of `schedule`, one time unit of pair (i, j)
/// being worth `unit_bytes(i, j)` bytes. Each pair rounds its cumulative
/// units down and its last communication carries the rest. Throws
/// redist::Error on a communication on a pair with no demand left, a
/// sender or receiver used twice in a step, a non-positive amount, a pair
/// short of time_units(bytes, unit) units, or a unit under one byte.
BytePlan plan_bytes(const TrafficMatrix& traffic, const Schedule& schedule,
                    const std::function<double(NodeId, NodeId)>& unit_bytes);

/// The same with one unit on every pair.
BytePlan plan_bytes(const TrafficMatrix& traffic, const Schedule& schedule,
                    double bytes_per_time_unit);

/// Verifies that `s` is a feasible K-PBS solution for `demand`:
///  * every step is a matching (1-port) with at most k communications,
///  * every communication amount is positive,
///  * per (sender, receiver) pair, the transferred total equals the summed
///    weight of the pair's edges in `demand` (preemption may split edges).
/// These are ScheduleValidator's invariants (1)-(3)
/// (kpbs/schedule_validator.hpp). Throws redist::Error with a precise
/// message on the first violation.
void validate_schedule(const BipartiteGraph& demand, const Schedule& s, int k);

/// Non-throwing validation; returns false and fills `why` on failure.
bool schedule_is_valid(const BipartiteGraph& demand, const Schedule& s, int k,
                       std::string* why = nullptr);

}  // namespace redist
