#include "kpbs/solver.hpp"

#include <algorithm>
#include <vector>

#include "common/math.hpp"
#include "common/stopwatch.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/wrgp.hpp"
#include "matching/hungarian.hpp"
#include "matching/peeling_context.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#ifdef REDIST_VALIDATE
#include "validate/schedule_validator.hpp"
#endif

namespace redist {

namespace {
std::vector<PeelStep> peel_regularized(
    BipartiteGraph& j, Algorithm algorithm,
    const std::shared_ptr<const Matching>& warm_seed,
    std::shared_ptr<const Matching>* warm_handle) {
  // GGP-MW is the Hungarian ablation: a from-scratch matching per step.
  if (algorithm == Algorithm::kGGPMaxWeight) {
    return wrgp_peel(j, PerfectMatchingStrategy(max_weight_perfect_matching));
  }
  const bool bottleneck = algorithm == Algorithm::kOGGP;
  PeelingContext ctx;
  // Cross-instance seeding only helps (and is only sound to export) on the
  // bottleneck path: GGP's arbitrary matchings must stay bit-equal to
  // max_matching(g), which depends on the greedy start.
  if (bottleneck && warm_seed != nullptr && !warm_seed->edges.empty()) {
    ctx.seed(*warm_seed);
    obs::MetricsRegistry* const metrics = obs::metrics();
    if (metrics != nullptr) metrics->counter("kpbs.warm_seed.installed").add();
  }
  std::vector<PeelStep> steps = wrgp_peel_warm(
      j, bottleneck ? WarmStrategy::kBottleneck : WarmStrategy::kArbitrary,
      ctx);
  // Export the first step's matching as the instance's warm handle: two
  // near-identical demands diverge least before any peeling, so their
  // first bottleneck searches are the ones a shared seed accelerates.
  if (warm_handle != nullptr && bottleneck && !steps.empty()) {
    *warm_handle = std::make_shared<const Matching>(steps.front().matching);
  }
  return steps;
}

Schedule solve_schedule(const BipartiteGraph& demand, int k, Weight beta,
                        Algorithm algorithm,
                        const std::shared_ptr<const Matching>& warm_seed,
                        std::shared_ptr<const Matching>* warm_handle) {
  REDIST_CHECK_MSG(beta >= 0, "negative beta");
  Schedule schedule;
  if (demand.empty()) return schedule;
  k = clamp_k(demand, k);

  // Telemetry (observation only — never feeds back into the schedule).
  obs::MetricsRegistry* const metrics = obs::metrics();
  const Stopwatch solve_timer;
  obs::TraceSpan solve_span(obs::trace(), "solve_kpbs");
  if (solve_span) {
    solve_span.arg("algo", std::string_view(algorithm_name(algorithm)));
    solve_span.arg("k", k);
    solve_span.arg("beta", beta);
    solve_span.arg("nodes", demand.left_count() + demand.right_count());
    solve_span.arg("edges", demand.alive_edge_count());
  }
  if (metrics != nullptr) metrics->counter("kpbs.solve.count").add();

  // Step 1 — beta-normalization. All weights are expressed in units of
  // beta (rounded up); beta in {0, 1} degenerates to the raw weights.
  const Weight unit = std::max<Weight>(1, beta);

  BipartiteGraph normalized(demand.left_count(), demand.right_count());
  std::vector<EdgeId> demand_edge;  // normalized edge -> demand edge
  for (EdgeId e = 0; e < demand.edge_count(); ++e) {
    if (!demand.alive(e)) continue;
    const Edge& edge = demand.edge(e);
    normalized.add_edge(edge.left, edge.right, ceil_div(edge.weight, unit));
    demand_edge.push_back(e);
  }

  // Step 2 — regularize; Step 3 — peel.
  Regularized reg = regularize(normalized, k);
  const std::vector<PeelStep> peels =
      peel_regularized(reg.graph, algorithm, warm_seed, warm_handle);

  // Step 4 — extract real communications with realized amounts.
  {
    obs::TraceSpan extract_span(obs::trace(), "extract");
    std::vector<Weight> remaining(demand_edge.size());
    for (std::size_t i = 0; i < demand_edge.size(); ++i) {
      remaining[i] = demand.edge(demand_edge[i]).weight;
    }
    for (const PeelStep& peel : peels) {
      Step step;
      for (EdgeId je : peel.matching.edges) {
        const EdgeId ne = reg.origin[static_cast<std::size_t>(je)];
        if (ne == kNoEdge) continue;  // filler or deficit edge
        const auto idx = static_cast<std::size_t>(ne);
        const Weight realized = std::min(peel.amount * unit, remaining[idx]);
        // Normalization guarantees remaining > 0 while the normalized edge
        // is alive, so every real matched edge transmits something.
        REDIST_CHECK(realized > 0);
        remaining[idx] -= realized;
        const Edge& src = demand.edge(demand_edge[idx]);
        step.comms.push_back(Communication{src.left, src.right, realized});
      }
      if (!step.comms.empty()) schedule.add_step(std::move(step));
    }
    for (Weight r : remaining) REDIST_CHECK(r == 0);
  }

  if (metrics != nullptr) {
    metrics->counter("kpbs.schedule.steps").add(schedule.step_count());
    metrics->histogram("kpbs.solve_ms").record(solve_timer.elapsed_ms());
  }
  if (solve_span) solve_span.arg("steps", schedule.step_count());

#ifdef REDIST_VALIDATE
  // Self-audit: the emitted schedule must satisfy every invariant of the
  // paper, including the 2-approximation bound (Theorem 1 holds for any
  // perfect-matching strategy, so all three Algorithm variants qualify).
  ScheduleValidatorOptions audit;
  audit.k = k;
  audit.beta = beta;
  audit.check_approximation_bound = true;
  ScheduleValidator(audit)
      .validate(demand, schedule)
      .throw_if_failed("solve_kpbs emitted an invalid schedule");
#endif
  return schedule;
}
}  // namespace

SolveResult solve_kpbs(const BipartiteGraph& demand,
                       const SolverOptions& options) {
  SolveResult result;
  // Flight-recorder identity: reuse the caller's ID (batch request, robust
  // run) or allocate a fresh one, and pin it for every seam below — peel
  // steps, ledger probes and pool events all join on it.
  result.solve_id = options.solve_id != 0 ? options.solve_id
                                          : obs::allocate_solve_id();
  const obs::SolveIdScope solve_scope(result.solve_id);
  obs::journal_record(
      obs::JournalEventKind::kSolveBegin,
      static_cast<std::int64_t>(demand.left_count() + demand.right_count()),
      static_cast<std::int64_t>(demand.alive_edge_count()));
  const Stopwatch timer;
  result.schedule =
      solve_schedule(demand, options.k, options.beta, options.algorithm,
                     options.warm_seed, &result.warm_handle);
  result.solve_ms = timer.elapsed_ms();
  result.lower_bound = kpbs_lower_bound(demand, options.k, options.beta);
  const double bound = result.lower_bound.value_double();
  // The lower bound is a ratio of exact integers; it is 0.0 only when the
  // integer numerator is zero, so exact comparison is the correct guard.
  // redist-lint: allow(float-eq)
  const bool zero_bound = bound == 0.0;
  result.evaluation_ratio =
      zero_bound
          ? 1.0
          : static_cast<double>(result.schedule.cost(options.beta)) / bound;
  obs::journal_record(
      obs::JournalEventKind::kSolveEnd,
      static_cast<std::int64_t>(result.schedule.step_count()),
      static_cast<std::int64_t>(result.schedule.cost(options.beta)),
      result.evaluation_ratio);
  return result;
}

double evaluation_ratio(const BipartiteGraph& demand, const Schedule& s,
                        int k, Weight beta) {
  return evaluation_ratio(s, kpbs_lower_bound(demand, k, beta), beta);
}

double evaluation_ratio(const Schedule& s, const LowerBound& lower_bound,
                        Weight beta) {
  const double bound = lower_bound.value_double();
  // The lower bound is a ratio of exact integers; it is 0.0 only when the
  // integer numerator is zero, so exact comparison is the correct guard.
  // redist-lint: allow(float-eq)
  if (bound == 0.0) return 1.0;
  return static_cast<double>(s.cost(beta)) / bound;
}

}  // namespace redist
