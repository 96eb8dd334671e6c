#include "kpbs/wrgp.hpp"

#include "matching/peeling_context.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

#ifdef REDIST_VALIDATE
#include "validate/graph_validator.hpp"
#endif

namespace redist {

std::vector<PeelStep> wrgp_peel(BipartiteGraph& g,
                                const PerfectMatchingStrategy& strategy,
                                const PeelObserver& observer) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "WRGP needs equal side sizes, got "
                       << g.left_count() << "x" << g.right_count());
  Weight c = 0;
  REDIST_CHECK_MSG(g.is_weight_regular(&c),
                   "WRGP requires a weight-regular graph");

  // Telemetry: one counter handle per peel run, one span per step (the
  // per-step "how long / how much was clamped" breakdown the paper's step
  // counts are compared against).
  obs::MetricsRegistry* const metrics = obs::metrics();
  obs::Counter* const steps_counter =
      metrics != nullptr ? &metrics->counter("wrgp.steps") : nullptr;
  obs::Histogram* const amount_hist =
      metrics != nullptr
          ? &metrics->histogram("wrgp.peel_amount",
                                obs::default_amount_bounds())
          : nullptr;
  obs::TraceSpan peel_span(obs::trace(), "wrgp_peel");

  std::vector<PeelStep> steps;
  // Upper bound on iterations: one edge dies per step.
  const EdgeId max_iterations = g.edge_count() + 1;
  EdgeId iterations = 0;
  while (!g.empty()) {
    REDIST_CHECK_MSG(++iterations <= max_iterations,
                     "WRGP failed to make progress");
    obs::TraceSpan step_span(obs::trace(), "wrgp.step");
    Matching m = strategy(g);
    REDIST_CHECK_MSG(is_perfect_matching(g, m),
                     "strategy did not return a perfect matching (size "
                         << m.size() << " of " << g.left_count() << ")");
    const Weight w = min_weight(g, m);
    REDIST_CHECK(w > 0);
    if (observer) observer(g, m, w);
    for (EdgeId e : m.edges) g.decrease_weight(e, w);
    if (steps_counter != nullptr) steps_counter->add();
    if (amount_hist != nullptr) {
      amount_hist->record(static_cast<double>(w));
    }
    obs::journal_record(obs::JournalEventKind::kPeelStep,
                        static_cast<std::int64_t>(iterations - 1),
                        static_cast<std::int64_t>(m.edges.size()),
                        static_cast<double>(w));
    if (step_span) {
      step_span.arg("step", iterations - 1);
      step_span.arg("amount", w);
      step_span.arg("matched_edges", m.edges.size());
    }
    steps.push_back(PeelStep{std::move(m), w});

#ifdef REDIST_VALIDATE
    // Peeling a uniform amount off a perfect matching must preserve
    // weight-regularity (the induction that keeps Hall's condition alive);
    // the residual regular weight drops by exactly w per step.
    c -= w;
    GraphValidator::validate_weight_regular(g, c)
        .throw_if_failed("WRGP residual lost weight-regularity");
#endif
  }
  if (peel_span) peel_span.arg("steps", steps.size());
  return steps;
}

std::vector<PeelStep> wrgp_peel_warm(BipartiteGraph& g, WarmStrategy strategy,
                                     PeelingContext& ctx) {
  const PerfectMatchingStrategy pick =
      strategy == WarmStrategy::kBottleneck
          ? PerfectMatchingStrategy([&ctx](const BipartiteGraph& residual) {
              return ctx.bottleneck_perfect(residual);
            })
          : PerfectMatchingStrategy([&ctx](const BipartiteGraph& residual) {
              return ctx.arbitrary_perfect(residual);
            });
  return wrgp_peel(g, pick,
                   [&ctx](const BipartiteGraph& residual, const Matching& m,
                          Weight amount) { ctx.before_peel(residual, m, amount); });
}

}  // namespace redist
