// ScheduleValidator — the one schedule checker, run by solve_kpbs on every
// schedule it emits, by `redist_cli verify`, and by validate_schedule().
//
// The paper's guarantees are all mechanically checkable, and this class
// checks them against the *source* communication graph rather than
// trusting anything the schedule reports about itself:
//  (1) every step is a valid matching: in-range endpoints, positive
//      amounts, and no sender or receiver used twice (1-port model);
//  (2) every step carries at most k communications;
//  (3) the preempted pieces of every (sender, receiver) pair sum exactly
//      to the demanded weight — full coverage, no over-transfer;
//  (4) the makespan is sum_i (beta + W(M_i)), recomputed from the raw
//      communications, and matches any externally reported value;
//  (5) optionally, cost <= 2 * lower_bound (Theorem: GGP and OGGP are
//      2-approximations), compared in exact rational arithmetic.
//
// Violations are data, not exceptions: all violated invariants are
// collected into a ValidationReport, not just the first, so callers can
// print, assert or abort. `throw_if_failed()` converts a failed report into
// the library's usual redist::Error.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/schedule.hpp"

REDIST_LAYER("kpbs");

namespace redist {

/// The checkable invariants of the paper, plus the structural graph
/// invariants the transforms rely on (audited by the test oracle's
/// GraphValidator).
enum class InvariantKind {
  kMatching,          ///< a step shares an endpoint or has malformed comms
  kStepWidth,         ///< a step carries more than k communications
  kCoverage,          ///< transferred totals differ from the demanded ones
  kMakespan,          ///< reported makespan != sum_i (beta + W(M_i))
  kApproximation,     ///< cost exceeds 2x the K-PBS lower bound
  kGraphConsistency,  ///< graph aggregates disagree with a recount
  kRegularity,        ///< weight-regularity / regularization contract broken
};

const char* invariant_kind_name(InvariantKind kind);

/// One violated invariant with a human-readable explanation.
struct Violation {
  InvariantKind kind;
  std::string message;
};

/// Accumulates violations; empty means every checked invariant holds.
class ValidationReport {
 public:
  void add(InvariantKind kind, std::string message) {
    violations_.push_back(Violation{kind, std::move(message)});
  }
  /// Merges another report's violations into this one.
  void merge(const ValidationReport& other);

  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  bool has(InvariantKind kind) const;

  /// One line per violation, prefixed with the invariant name; "ok" when
  /// the report is clean.
  std::string to_string() const;

  /// Throws redist::Error("<context>: <report>") unless ok().
  void throw_if_failed(const std::string& context) const;

 private:
  std::vector<Violation> violations_;
};

struct ScheduleValidatorOptions {
  int k = 1;          ///< port budget; steps may not exceed it
  Weight beta = 0;    ///< per-step setup cost (>= 0)
  /// When >= 0, invariant (4) additionally requires the schedule's cost to
  /// equal this externally reported makespan.
  Weight reported_makespan = -1;
  /// Check invariant (5): cost <= 2 * kpbs_lower_bound(demand, k, beta).
  /// Sound for GGP/OGGP output; baselines may legitimately exceed 2x.
  bool check_approximation_bound = false;
};

class ScheduleValidator {
 public:
  explicit ScheduleValidator(ScheduleValidatorOptions options);

  /// Runs every enabled check of `schedule` against `demand`.
  ValidationReport validate(const BipartiteGraph& demand,
                            const Schedule& schedule) const;

  /// Runs every check, invariant (5) included, against a lower bound the
  /// caller already holds (solve_kpbs reuses the one it reports).
  ValidationReport validate(const BipartiteGraph& demand,
                            const Schedule& schedule,
                            const LowerBound& lower_bound) const;

  const ScheduleValidatorOptions& options() const { return options_; }

 private:
  ValidationReport audit(const BipartiteGraph& demand,
                         const Schedule& schedule,
                         const LowerBound* lower_bound) const;

  ScheduleValidatorOptions options_;
};

}  // namespace redist
