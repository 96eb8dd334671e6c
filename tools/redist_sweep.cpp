// redist_sweep — the scenario × algorithm quality matrix.
//
// Runs every builtin scenario (workload/scenario.hpp) through the solver
// matrix (GGP, OGGP, the non-preemptive list-scheduling baseline), the
// netsim executor and — for fault-storm scenarios — the real-socket
// runtime under a deterministic fault storm, and emits one
// BENCH_sweep_<scenario>.json per scenario:
//
//   * per algorithm: evaluation ratio vs. the K-PBS lower bound (mean/max
//     over instances), mean step count, and the simulated redistribution
//     time of its schedule of the first instance next to brute force
//     (netsim, ideal fluid transport),
//   * for the storm run: attempts, reschedules, link retries, injected
//     faults and delivery verification,
//   * flight-recorder coverage of the storm run: journaled event counts
//     and the forensic recovery dump path (obs/journal.hpp) when a spliced
//     recovery wrote one into --out-dir.
//
// Each algorithm solves each instance once; netsim and the storm run reuse
// those schedules. Ratios, steps and simulated seconds are bit-
// deterministic for a fixed spec, so scripts/bench_diff.py gates them
// strictly against the committed baselines (docs/BENCHMARKS.md). Wall-clock
// timing is bench/e2e's job.
//
//   redist_sweep [--scale=1.0] [--out-dir=.] [--scenario=<name>]
//                [--instances=2] [--socket=true] [--netsim=true] [--list]
//
// The binary exits nonzero if any GGP/OGGP schedule breaks the paper's
// 2-approximation guarantee, fails validation, or the storm run fails
// verification — the sweep doubles as an end-to-end correctness probe over
// the adversarial families.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "redist.hpp"
#include "robust/storm.hpp"

namespace {

using namespace redist;

struct AlgoRow {
  std::string name;
  RunningStats ratio;
  RunningStats steps;
  Schedule first;                   // schedule of the first instance
  double netsim_seconds = 0;        // `first` run on the scenario platform
  double netsim_vs_bruteforce = 0;  // netsim_seconds / brute-force seconds
};

struct RobustRow {
  bool ran = false;
  int attempts = 1;
  int reschedules = 0;
  std::uint64_t link_retries = 0;
  std::uint64_t faults_injected = 0;
  bool verified = true;
  std::uint64_t journal_events = 0;   // flight-recorder events this scenario
  std::uint64_t journal_dropped = 0;  // ring overflow during the storm
  std::string recovery_dump;          // forensic JSONL path, "" when clean
};

// Instance pool: the spec re-seeded per instance so the scenario family is
// sampled, not one fixed matrix.
std::vector<ScenarioWorkload> build_pool(const ScenarioSpec& spec,
                                         int instances) {
  std::vector<ScenarioWorkload> pool;
  pool.reserve(static_cast<std::size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    ScenarioSpec seeded = spec;
    seeded.seed = spec.seed + static_cast<std::uint64_t>(i) * 7919ULL;
    pool.push_back(materialize_scenario(seeded));
  }
  return pool;
}

// Solves every instance of the pool once, validating each schedule.
AlgoRow run_algorithm(const std::string& name, const ScenarioSpec& spec,
                      const std::vector<ScenarioWorkload>& pool,
                      const std::vector<LowerBound>& bounds,
                      bool preemptive) {
  AlgoRow row;
  row.name = name;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Schedule schedule;
    if (preemptive) {
      const Algorithm algo =
          name == "GGP" ? Algorithm::kGGP : Algorithm::kOGGP;
      schedule =
          solve_kpbs(pool[i].demand, {spec.k, spec.beta, algo}).schedule;
    } else {
      schedule = list_schedule(pool[i].demand, spec.k);
    }
    const double ratio = evaluation_ratio(schedule, bounds[i], spec.beta);
    row.ratio.add(ratio);
    row.steps.add(static_cast<double>(schedule.step_count()));
    validate_schedule(pool[i].demand, schedule,
                      clamp_k(pool[i].demand, spec.k));
    if (preemptive && ratio > 2.0) {
      throw Error(name + " broke the 2-approximation on scenario " +
                  spec.name + " instance " + std::to_string(i) +
                  ": ratio " + std::to_string(ratio));
    }
    if (i == 0) row.first = std::move(schedule);
  }
  return row;
}

// Executes brute force and each algorithm's first-instance schedule on the
// scenario platform; returns the brute-force time.
double run_netsim(const ScenarioSpec& spec, const ScenarioWorkload& w,
                  std::vector<AlgoRow>& algos) {
  // One solver time unit = one second at nominal card speed; the backbone
  // admits exactly k nominal flows (the paper's constraint (a)/(b) tight).
  const double t_bps = static_cast<double>(spec.bytes_per_unit);
  const Platform platform = heterogeneous_platform(
      spec.senders, spec.receivers, t_bps, t_bps,
      static_cast<double>(spec.k) * t_bps,
      static_cast<double>(spec.beta), w.t1_scale, w.t2_scale);
  const double bruteforce_seconds =
      simulate_bruteforce(platform, w.traffic).total_seconds;
  for (AlgoRow& a : algos) {
    a.netsim_seconds =
        execute_schedule_heterogeneous(
            platform, w.traffic, a.first,
            static_cast<double>(spec.bytes_per_unit), w.t1_scale, w.t2_scale)
            .total_seconds;
    a.netsim_vs_bruteforce =
        bruteforce_seconds > 0 ? a.netsim_seconds / bruteforce_seconds : 0;
  }
  return bruteforce_seconds;
}

RobustRow run_fault_storm(const ScenarioSpec& spec,
                          const ScenarioWorkload& w, const Schedule& schedule,
                          const std::string& out_dir) {
  RobustRow row;
  // Flight recorder for the storm run: socket, pool and recovery events
  // (re-solves included) land in the BENCH JSON and in the per-recovery
  // forensic dump.
  obs::Journal journal(16384);
  const obs::ScopedJournal scoped_journal(&journal);
  SocketClusterConfig config;
  config.card_out_bps = 3e6;
  config.card_in_bps = 3e6;
  config.backbone_bps = 6e6;
  config.chunk_bytes = 4096;
  config.burst_bytes = 8192;

  RobustnessOptions robustness;
  robustness.enabled = true;
  robustness.io_timeout_ms = 500;
  robustness.max_reschedules = 3;
  robustness.resolve = SolverOptions{spec.k, spec.beta, Algorithm::kOGGP};
  robustness.connect_retry.base_delay_ms = 1;
  robustness.connect_retry.max_delay_ms = 4;
  robustness.attempt_backoff.base_delay_ms = 1;
  robustness.attempt_backoff.max_delay_ms = 4;
  robustness.journal_dir = out_dir;

  robust::FaultInjector injector(spec.seed ^ 0x570F3ULL);
  robust::StormProfile profile;
  profile.intensity = spec.storm_intensity;
  robust::arm_storm(injector, profile);
  const robust::ScopedFaultInjection scope(&injector);
  const SocketRunResult storm = socket_scheduled(
      config, w.traffic, schedule, static_cast<double>(spec.bytes_per_unit),
      robustness);

  row.ran = true;
  row.attempts = storm.attempts;
  row.reschedules = storm.reschedules;
  row.link_retries = storm.link_retries;
  row.faults_injected = injector.injected_count();
  row.verified = storm.verified;
  row.journal_events = journal.total_recorded();
  row.journal_dropped = journal.dropped();
  row.recovery_dump = storm.journal_dump_path;
  if (!row.verified) {
    throw Error("fault-storm run failed verification on scenario " +
                spec.name);
  }
  return row;
}

void write_json(const std::string& path, const ScenarioSpec& spec,
                double scale, int instances, const std::vector<AlgoRow>& algos,
                bool netsim_ran, double bruteforce_seconds,
                const RobustRow& robust_row) {
  std::ofstream os(path);
  if (!os) throw Error("cannot write: " + path);
  os << "{\n"
     << "  \"bench\": \"sweep\",\n"
     << "  \"schema\": \"redist.sweep.v2\",\n"
     << "  \"scenario\": {\"name\": \"" << spec.name << "\", \"kind\": \""
     << scenario_kind_name(spec.kind) << "\", \"seed\": " << spec.seed
     << ", \"senders\": " << spec.senders
     << ", \"receivers\": " << spec.receivers << ", \"edges\": " << spec.edges
     << ", \"k\": " << spec.k << ", \"beta\": " << spec.beta
     << ", \"instances\": " << instances << ", \"scale\": "
     << Table::fmt(scale, 4) << "},\n"
     << "  \"spec_text\": " << obs::json_quote(scenario_to_string(spec))
     << ",\n"
     << "  \"algorithms\": [\n";
  for (std::size_t i = 0; i < algos.size(); ++i) {
    const AlgoRow& a = algos[i];
    os << "    {\"name\": \"" << a.name << "\", \"evaluation_ratio_mean\": "
       << Table::fmt(a.ratio.mean(), 6) << ", \"evaluation_ratio_max\": "
       << Table::fmt(a.ratio.max(), 6) << ", \"steps_mean\": "
       << Table::fmt(a.steps.mean(), 3) << ", \"netsim_seconds\": "
       << Table::fmt(a.netsim_seconds, 4) << ", \"netsim_vs_bruteforce\": "
       << Table::fmt(a.netsim_vs_bruteforce, 4) << "}"
       << (i + 1 < algos.size() ? "," : "") << '\n';
  }
  os << "  ],\n"
     << "  \"netsim\": {\"ran\": " << (netsim_ran ? "true" : "false")
     << ", \"transport\": \"ideal\", \"bruteforce_seconds\": "
     << Table::fmt(bruteforce_seconds, 4) << "},\n"
     << "  \"robust\": {\"ran\": " << (robust_row.ran ? "true" : "false")
     << ", \"attempts\": " << robust_row.attempts << ", \"reschedules\": "
     << robust_row.reschedules << ", \"link_retries\": "
     << robust_row.link_retries << ", \"faults_injected\": "
     << robust_row.faults_injected << ", \"verified\": "
     << (robust_row.verified ? "true" : "false") << "},\n"
     << "  \"journal\": {\"events\": " << robust_row.journal_events
     << ", \"dropped\": " << robust_row.journal_dropped
     << ", \"recovery_dump\": " << obs::json_quote(robust_row.recovery_dump)
     << "}\n"
     << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const double scale = flags.get_double("scale", 1.0);
    const std::string out_dir = flags.get_string("out-dir", ".");
    const std::string only = flags.get_string("scenario", "");
    const int instances = static_cast<int>(flags.get_int("instances", 2));
    const bool with_socket = flags.get_bool("socket", true);
    const bool with_netsim = flags.get_bool("netsim", true);
    const bool list_only = flags.get_bool("list", false);
    flags.check_unused();
    if (instances < 1) throw Error("--instances must be >= 1");

    const std::vector<ScenarioSpec> specs = builtin_scenarios(scale);
    if (list_only) {
      for (const ScenarioSpec& spec : specs) {
        std::cout << scenario_to_string(spec) << '\n';
      }
      return 0;
    }

    Table table({"scenario", "algo", "ratio_mean", "ratio_max", "steps_mean",
                 "netsim_vs_brute"});
    bool matched = false;
    for (const ScenarioSpec& spec : specs) {
      if (!only.empty() && spec.name != only) continue;
      matched = true;

      const std::vector<ScenarioWorkload> pool = build_pool(spec, instances);
      std::vector<LowerBound> bounds;
      bounds.reserve(pool.size());
      for (const ScenarioWorkload& w : pool) {
        bounds.push_back(kpbs_lower_bound(w.demand, spec.k, spec.beta));
      }

      std::vector<AlgoRow> algos;
      algos.push_back(run_algorithm("GGP", spec, pool, bounds, true));
      algos.push_back(run_algorithm("OGGP", spec, pool, bounds, true));
      algos.push_back(run_algorithm("list", spec, pool, bounds, false));

      double bruteforce_seconds = 0;
      if (with_netsim) {
        bruteforce_seconds = run_netsim(spec, pool.front(), algos);
      }

      // The storm replays OGGP's schedule of the first instance.
      RobustRow robust_row;
      if (spec.kind == ScenarioKind::kFaultStorm && with_socket) {
        robust_row =
            run_fault_storm(spec, pool.front(), algos[1].first, out_dir);
      }

      const std::string path =
          out_dir + "/BENCH_sweep_" + spec.name + ".json";
      write_json(path, spec, scale, instances, algos, with_netsim,
                 bruteforce_seconds, robust_row);

      for (const AlgoRow& a : algos) {
        table.add_row({spec.name, a.name, Table::fmt(a.ratio.mean(), 4),
                       Table::fmt(a.ratio.max(), 4),
                       Table::fmt(a.steps.mean(), 1),
                       Table::fmt(a.netsim_vs_bruteforce, 4)});
      }
      std::cout << "wrote " << path;
      if (robust_row.ran) {
        std::cout << " (" << robust_row.faults_injected << " faults, "
                  << robust_row.attempts << " attempt(s))";
      }
      std::cout << '\n';
    }
    if (!matched) throw Error("no scenario matches --scenario=" + only);
    std::cout << '\n';
    table.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
