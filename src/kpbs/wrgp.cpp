#include "kpbs/wrgp.hpp"

#include "matching/peeling_context.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace redist {

namespace {

// Telemetry shared by both peels: counter handles fetched once per peel
// run, and one journal event per step (the per-step "how much was peeled"
// breakdown the paper's step counts are compared against).
class StepRecorder {
 public:
  StepRecorder() {
    if (obs::MetricsRegistry* const metrics = obs::metrics()) {
      steps_ = &metrics->counter("wrgp.steps");
      amounts_ = &metrics->histogram("wrgp.peel_amount",
                                     obs::default_amount_bounds());
    }
  }

  void record(std::size_t step, std::size_t matched, Weight w) {
    if (steps_ != nullptr) steps_->add();
    if (amounts_ != nullptr) amounts_->record(static_cast<double>(w));
    obs::journal_record(obs::JournalEventKind::kPeelStep,
                        static_cast<std::int64_t>(step),
                        static_cast<std::int64_t>(matched),
                        static_cast<double>(w));
  }

 private:
  obs::Counter* steps_ = nullptr;
  obs::Histogram* amounts_ = nullptr;
};

}  // namespace

std::vector<PeelStep> wrgp_peel(BipartiteGraph& g,
                                const PerfectMatchingStrategy& strategy,
                                const PeelObserver& observer) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "WRGP needs equal side sizes, got "
                       << g.left_count() << "x" << g.right_count());
  REDIST_CHECK_MSG(g.is_weight_regular(),
                   "WRGP requires a weight-regular graph");
  StepRecorder recorder;

  std::vector<PeelStep> steps;
  // Upper bound on iterations: one edge dies per step.
  const EdgeId max_iterations = g.edge_count() + 1;
  while (!g.empty()) {
    REDIST_CHECK_MSG(static_cast<EdgeId>(steps.size()) < max_iterations,
                     "WRGP failed to make progress");
    Matching m = strategy(g);
    REDIST_CHECK_MSG(is_perfect_matching(g, m),
                     "strategy did not return a perfect matching (size "
                         << m.size() << " of " << g.left_count() << ")");
    const Weight w = min_weight(g, m);
    REDIST_CHECK(w > 0);
    if (observer) observer(g, m, w);
    for (EdgeId e : m.edges) g.decrease_weight(e, w);
    recorder.record(steps.size(), m.edges.size(), w);
    steps.push_back(PeelStep{std::move(m), w});
  }
  return steps;
}

void wrgp_peel_deferred(BipartiteGraph& g, Algorithm algorithm,
                        NodeId real_left, NodeId real_right,
                        const RealStepSink& sink) {
  StepRecorder recorder;
  PeelingContext ctx;
  ctx.start(g, algorithm == Algorithm::kOGGP, real_left, real_right);
  std::size_t steps = 0;
  for (; ctx.peeling(); ++steps) {
    REDIST_CHECK_MSG(static_cast<EdgeId>(steps) < g.edge_count(),
                     "WRGP failed to make progress");
    const Weight w = ctx.step();
    recorder.record(steps, static_cast<std::size_t>(g.left_count()), w);
    sink(w, ctx.real_edges());
  }
  REDIST_CHECK_MSG(g.empty(), "the peel left weight on the graph");
}

}  // namespace redist
