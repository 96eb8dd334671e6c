// GGP and OGGP — the paper's two 2-approximation K-PBS solvers.
//
// Pipeline (Section 4.2):
//  1. beta-normalization: weights are divided by beta and rounded up, so no
//     communication shorter than one setup delay is ever preempted;
//  2. regularization into a weight-regular graph J whose perfect matchings
//     carry at most k original edges (see regularize.hpp);
//  3. WRGP peeling of J — GGP with an arbitrary perfect matching, OGGP with
//     a bottleneck (max-min-weight) perfect matching;
//  4. extraction: synthetic edges are discarded; real edges emit *realized*
//     amounts min(step * beta, remaining), so the reported schedule
//     transfers exactly the demanded totals and rounding never inflates the
//     measured cost. Steps containing no real communication are dropped;
//  5. certification: the schedule is checked against the demand and the
//     lower bound (kpbs/schedule_validator.hpp) before it is returned.
#pragma once

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "kpbs/options.hpp"
#include "kpbs/schedule.hpp"

REDIST_LAYER("kpbs");

namespace redist {

/// Solves K-PBS on `demand` under `options` (see kpbs/options.hpp).
/// `options.k` is clamped to [1, min(n1, n2)]. GGP and OGGP both peel
/// through wrgp_peel_deferred. Every schedule is certified before it is
/// returned: ScheduleValidator checks 1-port, width <= k, exact coverage,
/// the makespan recount and cost <= 2 * lower bound, and a violation throws
/// redist::Error. The result carries the lower bound, evaluation ratio and
/// solve latency alongside the schedule.
REDIST_DETERMINISTIC
SolveResult solve_kpbs(const BipartiteGraph& demand,
                       const SolverOptions& options);

// The pre-SolverOptions positional overload
// (solve_kpbs(demand, k, beta, algorithm, engine)) is gone: its
// deprecation window closed and tools/redist_analyze (deprecated-api)
// rejects any reintroduction — declarations and calls alike.

/// Cost of the schedule divided by the K-PBS lower bound — the paper's
/// "evaluation ratio" (>= 1; closer to 1 is better).
REDIST_DETERMINISTIC
double evaluation_ratio(const BipartiteGraph& demand, const Schedule& s,
                        int k, Weight beta);

/// Same ratio against a precomputed bound — the sweep harness and the
/// baseline comparisons evaluate many schedules of one instance, and the
/// bound only depends on the instance.
REDIST_DETERMINISTIC
double evaluation_ratio(const Schedule& s, const LowerBound& lower_bound,
                        Weight beta);

}  // namespace redist
