// socket_mesh — the real-socket runtime, with the solver nearly idle.
//
// A 4 x 4 loopback mesh (mpilite over kernel TCP) with all-pairs traffic
// U[1 MB, 10 MB] (about 88 MB per redistribution), k = 2 and OGGP
// schedules. Shaping is set above what loopback sustains (cards 1e9 B/s,
// backbone 2e9 B/s), so the runtime, not the token bucket, sets the time.
// One operation solves a matrix and redistributes it with socket_scheduled.
// A final recovering run under the fault_storm scenario's storm must still
// deliver every byte.
//
// Every run wires a fresh mesh, and the kernel slows down connect() as
// closed connections pile up in TIME_WAIT (60 s each); payloads this large
// keep a run to a few thousand connections, so earlier runs barely move
// later ones.
#include "e2e.hpp"

namespace redist::e2e {

namespace {

constexpr NodeId kNodes = 4;
// Many matrices per seed, so that no single draw's step count sets the
// workload's numbers.
constexpr std::size_t kMatrices = 64;
// Pair sizes are U[1, 10] units of this many bytes (a tenth of it for the
// smoke run).
constexpr Bytes kBytesPerUnit = 1'000'000;

SocketClusterConfig loopback_config() {
  SocketClusterConfig config;
  config.card_out_bps = 1e9;
  config.card_in_bps = 1e9;
  config.backbone_bps = 2e9;
  return config;
}

Instance mesh_instance(Rng& rng, NodeId n, Bytes unit) {
  TrafficMatrix traffic = uniform_all_pairs_traffic(rng, n, n, unit, 10 * unit);
  BipartiteGraph demand = traffic.to_graph(static_cast<double>(unit));
  return Instance{std::move(traffic), std::move(demand), 2, 1,
                  static_cast<double>(unit)};
}

bool delivered(const SocketRunResult& run, const Instance& inst) {
  return run.verified && run.bytes_delivered == inst.traffic.total();
}

SocketRunResult traced_run(obs::TraceSession* session, const Instance& inst,
                           const Schedule* schedule) {
  Span span(session, schedule != nullptr ? "mpilite.scheduled"
                                         : "mpilite.bruteforce",
            "mpilite");
  const SocketRunResult run =
      schedule != nullptr
          ? socket_scheduled(loopback_config(), inst.traffic, *schedule,
                             inst.bytes_per_unit)
          : socket_bruteforce(loopback_config(), inst.traffic);
  span.arg("run_s", run.seconds);
  span.arg("bytes", static_cast<std::int64_t>(run.bytes_delivered));
  span.arg("steps", static_cast<std::int64_t>(run.steps));
  return run;
}

// The recovering runtime under the fault_storm scenario's storm.
SocketRunResult storm_run(obs::TraceSession* session, const Instance& inst,
                          const Schedule& schedule, std::uint64_t seed) {
  double intensity = 0;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    if (spec.kind == ScenarioKind::kFaultStorm) {
      intensity = spec.storm_intensity;
    }
  }
  RobustnessOptions robustness;
  robustness.enabled = true;
  robustness.io_timeout_ms = 500;
  robustness.max_reschedules = 3;
  robustness.resolve = oggp(inst);
  robustness.connect_retry.base_delay_ms = 1;
  robustness.connect_retry.max_delay_ms = 4;
  robustness.attempt_backoff.base_delay_ms = 1;
  robustness.attempt_backoff.max_delay_ms = 4;
  robust::FaultInjector injector(seed);
  robust::StormProfile profile;
  profile.intensity = intensity;
  robust::arm_storm(injector, profile);
  const robust::ScopedFaultInjection scope(&injector);
  Span span(session, "robust.storm", "robust", next_req());
  const SocketRunResult run =
      socket_scheduled(loopback_config(), inst.traffic, schedule,
                       inst.bytes_per_unit, robustness);
  span.arg("attempts", static_cast<std::int64_t>(run.attempts));
  span.arg("reschedules", static_cast<std::int64_t>(run.reschedules));
  span.arg("link_retries", static_cast<std::int64_t>(run.link_retries));
  span.arg("faults", static_cast<std::int64_t>(injector.injected_count()));
  return run;
}

}  // namespace

void run_socket_mesh(const RunConfig& cfg, Tracing* tracing, Report& report) {
  const Bytes unit = cfg.smoke ? kBytesPerUnit / 10 : kBytesPerUnit;

  // Set-up: the matrices, their reference schedules and two warm-up runs.
  EndToEnd e2e;
  std::vector<Instance> instances;
  std::vector<SolveResult> refs;
  e2e.setup_s = timed_setup(e2e.probe, cfg.setup_repeats(), false, [&] {
    Rng rng(cfg.seed);
    instances.clear();
    refs.clear();
    for (std::size_t i = 0; i < kMatrices; ++i) {
      instances.push_back(mesh_instance(rng, kNodes, unit));
      refs.push_back(solve_kpbs(instances.back().demand,
                                oggp(instances.back())));
    }
    for (std::size_t i = 0; i < 2; ++i) {
      (void)traced_run(nullptr, instances[i], &refs[i].schedule);
    }
  });
  for (std::size_t i = 0; i < kMatrices; ++i) {
    const Instance& inst = instances[i];
    report.record(schedule_ok(inst.demand, refs[i].schedule, inst.k, inst.beta),
                  "socket_mesh: invalid schedule for matrix " +
                      std::to_string(i));
    e2e.eval_ratio.add(refs[i].evaluation_ratio);
  }

  const Window window(cfg.seconds);
  for (std::uint64_t op = 0; window.open(); ++op) {
    const std::size_t i = op % kMatrices;
    const Instance& inst = instances[i];
    Instrument instrument(tracing, op);
    obs::TraceSession* const session = instrument.session();
    const double t = e2e.probe.now();
    const Stopwatch timer;
    const Span root(session, "op", "bench", next_req());
    double oggp_ms = 0;
    const Schedule schedule =
        timed_solve(session, inst, true, &oggp_ms).schedule;
    const SocketRunResult run = traced_run(session, inst, &schedule);
    const double ms = timer.elapsed_ms();
    instrument.done(ms);
    e2e.latency_ms.push_back(Timed{t, ms, false});
    e2e.solve_ms.push_back(Timed{t, oggp_ms});
    report.record(same_schedule(schedule, refs[i].schedule) &&
                      delivered(run, inst),
                  "socket_mesh: matrix " + std::to_string(i) +
                      " was not redistributed exactly");
    e2e.probe.maybe_sample();
  }
  e2e.window_s = window.elapsed_seconds();

  obs::TraceSession* const session =
      tracing != nullptr ? &tracing->session : nullptr;
  const std::vector<Instance> sample(instances.begin(), instances.begin() + 8);
  if (tracing != nullptr) {
    // Brute force as the baseline, interleaved with scheduled runs.
    for (std::size_t i = 0; i < sample.size(); ++i) {
      report.record(
          delivered(traced_run(session, instances[i], nullptr), instances[i]) &&
              delivered(traced_run(session, instances[i], &refs[i].schedule),
                        instances[i]),
          "socket_mesh: baseline run was not delivered exactly");
    }
  }
  report.record(delivered(storm_run(session, instances[0], refs[0].schedule,
                                    cfg.seed ^ 0x570F3ULL),
                          instances[0]),
                "socket_mesh: the storm run did not deliver every byte");

  report_end_to_end(e2e, tracing != nullptr, report);
  if (tracing == nullptr) return;
  probe_solver(session, tracing->registry, sample);
  probe_service(session, sample, true);
  probe_netsim(session, sample, unit_platform);
  probe_scaling(
      session,
      [&](NodeId n) {
        Rng rng(cfg.seed);
        return mesh_instance(rng, n, unit);
      },
      {kNodes, 2 * kNodes, 4 * kNodes}, 5);
  layer_metrics(*tracing, report);
}

}  // namespace redist::e2e
