// paper_testbed — the paper's own end-to-end claim (Figures 10 and 11).
//
// Two 10-node clusters on paper_testbed(k), k in {3, 7}; per-pair sizes
// U[10, n] MB for n = 10..100 in steps of 10, five traffic draws per point:
// 100 instances. One operation takes an instance through the experiment: a
// GGP and an OGGP solve, both schedules executed on netsim and brute force
// simulated, each under the paper's TCP model and under ideal transport.
// Netsim does most of the wall time, so solver speed-ups barely move this
// workload while changes that alter schedules do.
#include "e2e.hpp"

namespace redist::e2e {

namespace {

struct TestbedCase {
  Instance inst;
  Platform platform;
  std::uint64_t fluid_seed = 0;
};

// Everything an operation computes; a repeat must reproduce it exactly.
struct Outcome {
  Schedule ggp;
  Schedule oggp;
  double oggp_ratio = 0;
  std::vector<double> simulated_s;

  bool operator==(const Outcome& o) const {
    return same_schedule(ggp, o.ggp) && same_schedule(oggp, o.oggp) &&
           simulated_s == o.simulated_s;
  }
};

std::vector<TestbedCase> make_cases(std::uint64_t seed, bool smoke) {
  Rng rng(seed);
  std::vector<TestbedCase> cases;
  const std::int64_t n_max = smoke ? 20 : 100;
  const int draws = smoke ? 1 : 5;
  for (const int k : {3, 7}) {
    // One scheduled time unit is one second at the shaped card speed;
    // the 10 ms barrier rounds up to beta = 1 unit.
    const Platform platform = paper_testbed(k, 0.01);
    const double bytes_per_unit = platform.comm_speed_bps();
    for (std::int64_t n = 10; n <= n_max; n += 10) {
      for (int d = 0; d < draws; ++d) {
        TrafficMatrix traffic = uniform_all_pairs_traffic(
            rng, platform.n1, platform.n2, 10'000'000, n * 1'000'000);
        BipartiteGraph demand = traffic.to_graph(bytes_per_unit);
        cases.push_back(TestbedCase{
            Instance{std::move(traffic), std::move(demand), k, 1,
                     bytes_per_unit},
            platform, rng.next()});
      }
    }
  }
  return cases;
}

Outcome run_case(const TestbedCase& c, obs::TraceSession* session,
                 double* oggp_ms) {
  const Span op(session, "op", "bench", next_req());
  Outcome out;
  out.ggp = timed_solve(session, c.inst, false).schedule;
  SolveResult oggp_result = timed_solve(session, c.inst, true, oggp_ms);
  out.oggp = std::move(oggp_result.schedule);
  out.oggp_ratio = oggp_result.evaluation_ratio;
  for (const bool tcp : {true, false}) {
    const FluidOptions transport =
        tcp ? paper_tcp(c.fluid_seed) : ideal_transport();
    const std::string_view model = tcp ? "paper_tcp" : "ideal";
    for (const bool bottleneck : {true, false}) {
      Span span(session, "netsim.execute", "netsim");
      const ExecutionResult run = execute_schedule(
          c.platform, c.inst.traffic, bottleneck ? out.oggp : out.ggp,
          c.inst.bytes_per_unit, transport);
      out.simulated_s.push_back(run.total_seconds);
      span.arg("algo", std::string_view(bottleneck ? "oggp" : "ggp"));
      span.arg("transport", model);
      span.arg("sim_s", run.total_seconds);
      span.arg("barrier_s", run.barrier_seconds);
    }
    Span span(session, "netsim.bruteforce", "netsim");
    const ExecutionResult run =
        simulate_bruteforce(c.platform, c.inst.traffic, transport);
    out.simulated_s.push_back(run.total_seconds);
    span.arg("transport", model);
    span.arg("sim_s", run.total_seconds);
  }
  return out;
}

}  // namespace

void run_paper_testbed(const RunConfig& cfg, Tracing* tracing,
                       Report& report) {
  // Set-up: the instances, then one pass over them whose outcomes are the
  // references every later operation must reproduce.
  EndToEnd e2e;
  std::vector<TestbedCase> cases;
  std::vector<Outcome> refs;
  e2e.setup_s = timed_setup(e2e.probe, cfg.setup_repeats(), true, [&] {
    cases = make_cases(cfg.seed, cfg.smoke);
    refs.clear();
    double ms = 0;
    for (const TestbedCase& c : cases) {
      refs.push_back(run_case(c, nullptr, &ms));
    }
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Instance& inst = cases[i].inst;
    report.record(schedule_ok(inst.demand, refs[i].ggp, inst.k, inst.beta) &&
                      schedule_ok(inst.demand, refs[i].oggp, inst.k, inst.beta),
                  "paper_testbed: invalid schedule for instance " +
                      std::to_string(i));
    e2e.eval_ratio.add(refs[i].oggp_ratio);
  }

  const Window window(cfg.seconds);
  for (std::uint64_t op = 0; window.open(); ++op) {
    const std::size_t i = op % cases.size();
    Instrument instrument(tracing, op);
    double oggp_ms = 0;
    const double t = e2e.probe.now();
    const Stopwatch timer;
    const Outcome out = run_case(cases[i], instrument.session(), &oggp_ms);
    const double ms = timer.elapsed_ms();
    instrument.done(ms);
    e2e.latency_ms.push_back(Timed{t, ms});
    e2e.solve_ms.push_back(Timed{t, oggp_ms});
    report.record(out == refs[i], "paper_testbed: instance " +
                                      std::to_string(i) +
                                      " did not reproduce its reference");
    e2e.probe.maybe_sample();
  }
  e2e.window_s = window.elapsed_seconds();

  report_end_to_end(e2e, tracing != nullptr, report);
  if (tracing == nullptr) return;
  std::vector<Instance> sample;
  for (std::size_t i = 0; i < cases.size(); i += 5) {
    sample.push_back(cases[i].inst);
  }
  probe_solver(&tracing->session, tracing->registry, sample);
  probe_service(&tracing->session,
                {cases.front().inst, cases[cases.size() / 2 - 1].inst,
                 cases[cases.size() / 2].inst, cases.back().inst},
                true);
  probe_scaling(
      &tracing->session,
      [&](NodeId n) {
        Rng rng(cfg.seed);
        const Platform platform = paper_testbed(3, 0.01);
        TrafficMatrix traffic = uniform_all_pairs_traffic(
            rng, n, n, 10'000'000, 100'000'000);
        BipartiteGraph demand = traffic.to_graph(platform.comm_speed_bps());
        return Instance{std::move(traffic), std::move(demand), 3, 1,
                        platform.comm_speed_bps()};
      },
      {10, 20, 40}, 5);
  layer_metrics(*tracing, report);
}

}  // namespace redist::e2e
