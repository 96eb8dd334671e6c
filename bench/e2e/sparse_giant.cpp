// sparse_giant — the matching layer under load.
//
// The builtin sparse_giant scenario scaled to 512 x 512 nodes: m = 1536
// pairs of 1-4 units, k = 16, six seeded instances. One operation
// schedules an instance with OGGP and then with GGP, in sequence on one
// thread. Matching selection does almost all the work; with at most four
// distinct weights Hopcroft-Karp dominates and bottleneck probes are few.
// GGP and OGGP share the peeling loop and differ in matching selection.
// At this size a window holds ~70 operations; at 1024 nodes it held ~17,
// too few for a steady 90th percentile.
#include "e2e.hpp"

namespace redist::e2e {

namespace {

constexpr NodeId kFullNodes = 4096;  // builtin_scenarios(1.0) size

Instance sparse_instance(NodeId n, std::uint64_t seed) {
  const double scale = static_cast<double>(n) / kFullNodes;
  for (ScenarioSpec spec : builtin_scenarios(scale)) {
    if (spec.kind != ScenarioKind::kSparseGiant) continue;
    spec.seed = seed;
    ScenarioWorkload w = materialize_scenario(spec);
    return Instance{std::move(w.traffic), std::move(w.demand), spec.k,
                    spec.beta, static_cast<double>(spec.bytes_per_unit)};
  }
  throw Error("builtin_scenarios has no sparse_giant spec");
}

struct Solved {
  SolveResult oggp;
  SolveResult ggp;
};

Solved solve_both(const Instance& inst, obs::TraceSession* session,
                  double* oggp_ms) {
  const Span op(session, "op", "bench", next_req());
  Solved out;
  out.oggp = timed_solve(session, inst, true, oggp_ms);
  out.ggp = timed_solve(session, inst, false);
  return out;
}

}  // namespace

void run_sparse_giant(const RunConfig& cfg, Tracing* tracing, Report& report) {
  const NodeId n = cfg.smoke ? 128 : 512;
  constexpr std::size_t kInstances = 6;

  // Set-up: the instances and one warm-up operation, whose results are the
  // first instance's references.
  EndToEnd e2e;
  std::vector<Instance> instances;
  std::vector<std::optional<Solved>> refs;
  e2e.setup_s = timed_setup(e2e.probe, cfg.setup_repeats(), true, [&] {
    Rng rng(cfg.seed);
    instances.clear();
    for (std::size_t i = 0; i < kInstances; ++i) {
      instances.push_back(sparse_instance(n, rng.next()));
    }
    refs.assign(kInstances, std::nullopt);
    double ms = 0;
    refs[0] = solve_both(instances[0], nullptr, &ms);
  });

  const Window window(cfg.seconds);
  for (std::uint64_t op = 0; window.open(); ++op) {
    const std::size_t i = op % kInstances;
    Instrument instrument(tracing, op);
    double oggp_ms = 0;
    const double t = e2e.probe.now();
    const Stopwatch timer;
    Solved out = solve_both(instances[i], instrument.session(), &oggp_ms);
    const double ms = timer.elapsed_ms();
    instrument.done(ms);
    e2e.latency_ms.push_back(Timed{t, ms});
    e2e.solve_ms.push_back(Timed{t, oggp_ms});
    for (int p = 0; p < 3; ++p) e2e.probe.sample();
    if (!refs[i]) {
      refs[i] = std::move(out);
      continue;  // checked against the validators below
    }
    report.record(
        same_schedule(out.oggp.schedule, refs[i]->oggp.schedule) &&
            same_schedule(out.ggp.schedule, refs[i]->ggp.schedule),
        "sparse_giant: instance " + std::to_string(i) +
            " did not reproduce its first schedules");
  }
  e2e.window_s = window.elapsed_seconds();

  for (std::size_t i = 0; i < kInstances; ++i) {
    double ms = 0;
    if (!refs[i]) refs[i] = solve_both(instances[i], nullptr, &ms);
    const Instance& inst = instances[i];
    report.record(
        schedule_ok(inst.demand, refs[i]->oggp.schedule, inst.k, inst.beta) &&
            schedule_ok(inst.demand, refs[i]->ggp.schedule, inst.k, inst.beta),
        "sparse_giant: invalid schedule for instance " + std::to_string(i));
    e2e.eval_ratio.add(refs[i]->oggp.evaluation_ratio);
  }

  report_end_to_end(e2e, tracing != nullptr, report);
  if (tracing == nullptr) return;
  probe_solver(&tracing->session, tracing->registry, instances);
  probe_service(&tracing->session, {instances.front()}, true);
  // Brute-force fluid simulation grows steeply with the flow count (2.4 s
  // at n = 256, 19 s at n = 512), so netsim runs on the family's n/4
  // member.
  probe_netsim(&tracing->session, {sparse_instance(n / 4, cfg.seed)},
               unit_platform);
  probe_scaling(
      &tracing->session,
      [&](NodeId size) { return sparse_instance(size, cfg.seed); },
      {n / 4, n / 2, n}, 3);
  layer_metrics(*tracing, report);
}

}  // namespace redist::e2e
