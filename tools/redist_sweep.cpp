// redist_sweep — the scenario × algorithm regression matrix.
//
// Runs every builtin scenario (workload/scenario.hpp) through the solver
// matrix (GGP, OGGP, the non-preemptive list-scheduling baseline), the
// batch solver, the netsim executor and — for fault-storm scenarios — the
// real-socket runtime under a deterministic fault storm, and emits one
// BENCH_sweep_<scenario>.json per scenario:
//
//   * evaluation ratio vs. the K-PBS lower bound (mean/max over instances),
//   * step counts and solve wall time per algorithm,
//   * batch pool speedup (sequential vs pooled solve_kpbs_batch),
//   * simulated scheduled vs brute-force seconds on the scenario platform,
//   * recovery overhead (storm wall time / clean wall time), attempts,
//     reschedules and injected-fault counts,
//   * flight-recorder coverage of the storm run: journaled event counts
//     and the forensic recovery dump path (obs/journal.hpp) when a spliced
//     recovery wrote one into --out-dir.
//
// Quality metrics (ratios, step counts) are bit-deterministic for a fixed
// spec, so scripts/bench_diff.py can gate them strictly against the
// committed baselines under bench/baselines/; timing metrics are
// machine-dependent and gated loosely or not at all (docs/BENCHMARKS.md).
//
//   redist_sweep [--scale=1.0] [--out-dir=.] [--scenario=<name>]
//                [--instances=3] [--repeat=2] [--threads=0]
//                [--socket=true] [--netsim=true] [--list]
//
// The binary exits nonzero if any GGP/OGGP schedule breaks the paper's
// 2-approximation guarantee or fails validation — the sweep doubles as an
// end-to-end correctness probe over the adversarial families.
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
  double solve_ms = 0;  // best-of-repeat total over the instance pool
};

struct NetsimRow {
  bool ran = false;
  double scheduled_seconds = 0;
  double bruteforce_seconds = 0;
};

struct BatchRow {
  double sequential_ms = 0;
  double pooled_ms = 0;
  int threads = 0;
  double speedup() const {
    return pooled_ms > 0 ? sequential_ms / pooled_ms : 0;
  }
};

struct RobustRow {
  bool ran = false;
  double clean_seconds = 0;
  double storm_seconds = 0;
  double recovery_overhead = 1.0;
  int attempts = 1;
  int reschedules = 0;
  std::uint64_t link_retries = 0;
  std::uint64_t faults_injected = 0;
  bool verified = true;
  std::uint64_t journal_events = 0;   // flight-recorder events this scenario
  std::uint64_t journal_dropped = 0;  // ring overflow during the storm
  std::string recovery_dump;          // forensic JSONL path, "" when clean
};

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
  return out;
}

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

// Solves the whole pool once per repeat and keeps the best total. Quality
// stats come from the first pass (they are identical on every pass).
AlgoRow run_algorithm(const std::string& name, const ScenarioSpec& spec,
                      const std::vector<ScenarioWorkload>& pool,
                      const std::vector<LowerBound>& bounds, int repeat,
                      bool preemptive) {
  AlgoRow row;
  row.name = name;
  for (int r = 0; r < repeat; ++r) {
    Stopwatch timer;
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
      if (r == 0) {
        const double ratio =
            evaluation_ratio(schedule, bounds[i], spec.beta);
        row.ratio.add(ratio);
        row.steps.add(static_cast<double>(schedule.step_count()));
        validate_schedule(pool[i].demand, schedule,
                          clamp_k(pool[i].demand, spec.k));
        if (preemptive && ratio > 2.0) {
          throw Error(name + " broke the 2-approximation on scenario " +
                      spec.name + " instance " + std::to_string(i) +
                      ": ratio " + std::to_string(ratio));
        }
      }
    }
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < row.solve_ms) row.solve_ms = ms;
  }
  return row;
}

NetsimRow run_netsim(const ScenarioSpec& spec, const ScenarioWorkload& w) {
  NetsimRow row;
  // One solver time unit = one second at nominal card speed; the backbone
  // admits exactly k nominal flows (the paper's constraint (a)/(b) tight).
  const double t_bps = static_cast<double>(spec.bytes_per_unit);
  const Platform platform = heterogeneous_platform(
      spec.senders, spec.receivers, t_bps, t_bps,
      static_cast<double>(spec.k) * t_bps,
      static_cast<double>(spec.beta), w.t1_scale, w.t2_scale);
  const Schedule schedule =
      solve_kpbs(w.demand, {spec.k, spec.beta, Algorithm::kOGGP}).schedule;
  row.scheduled_seconds =
      execute_schedule_heterogeneous(
          platform, w.traffic, schedule,
          static_cast<double>(spec.bytes_per_unit), w.t1_scale, w.t2_scale)
          .total_seconds;
  row.bruteforce_seconds =
      simulate_bruteforce(platform, w.traffic).total_seconds;
  row.ran = true;
  return row;
}

BatchRow run_batch(const ScenarioSpec& spec,
                   const std::vector<ScenarioWorkload>& pool, int repeat,
                   int threads) {
  BatchRow row;
  row.threads = threads;
  std::vector<KpbsRequest> requests;
  requests.reserve(pool.size());
  for (const ScenarioWorkload& w : pool) {
    KpbsRequest request;
    request.demand = w.demand;
    request.options = SolverOptions{spec.k, spec.beta, Algorithm::kOGGP};
    requests.push_back(std::move(request));
  }
  BatchOptions sequential;
  sequential.threads = 1;
  BatchOptions pooled;
  pooled.threads = threads;
  for (int r = 0; r < repeat; ++r) {
    Stopwatch timer;
    solve_kpbs_batch(requests, sequential);
    const double seq = timer.elapsed_ms();
    timer.reset();
    solve_kpbs_batch(requests, pooled);
    const double par = timer.elapsed_ms();
    if (r == 0 || seq < row.sequential_ms) row.sequential_ms = seq;
    if (r == 0 || par < row.pooled_ms) row.pooled_ms = par;
  }
  return row;
}

RobustRow run_fault_storm(const ScenarioSpec& spec,
                          const ScenarioWorkload& w,
                          const std::string& out_dir) {
  RobustRow row;
  // Flight recorder for the whole scenario: solver, pool, socket and
  // recovery events join on the run's solve ID in the BENCH JSON and in
  // the per-recovery forensic dump.
  obs::Journal journal(16384);
  const obs::ScopedJournal scoped_journal(&journal);
  SocketClusterConfig config;
  config.card_out_bps = 3e6;
  config.card_in_bps = 3e6;
  config.backbone_bps = 6e6;
  config.chunk_bytes = 4096;
  config.burst_bytes = 8192;
  const double bytes_per_unit = static_cast<double>(spec.bytes_per_unit);
  const Schedule schedule =
      solve_kpbs(w.demand, {spec.k, spec.beta, Algorithm::kOGGP}).schedule;

  const SocketRunResult clean =
      socket_scheduled(config, w.traffic, schedule, bytes_per_unit);

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
  const SocketRunResult storm =
      socket_scheduled(config, w.traffic, schedule, bytes_per_unit,
                       robustness);

  row.ran = true;
  row.clean_seconds = clean.seconds;
  row.storm_seconds = storm.seconds;
  row.recovery_overhead =
      clean.seconds > 0 ? storm.seconds / clean.seconds : 1.0;
  row.attempts = storm.attempts;
  row.reschedules = storm.reschedules;
  row.link_retries = storm.link_retries;
  row.faults_injected = injector.injected_count();
  row.verified = clean.verified && storm.verified;
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
                const NetsimRow& netsim, const BatchRow& batch,
                const RobustRow& robust_row) {
  std::ofstream os(path);
  if (!os) throw Error("cannot write: " + path);
  os << "{\n"
     << "  \"bench\": \"sweep\",\n"
     << "  \"schema\": \"redist.sweep.v1\",\n"
     << "  \"scenario\": {\"name\": \"" << spec.name << "\", \"kind\": \""
     << scenario_kind_name(spec.kind) << "\", \"seed\": " << spec.seed
     << ", \"senders\": " << spec.senders
     << ", \"receivers\": " << spec.receivers << ", \"edges\": " << spec.edges
     << ", \"k\": " << spec.k << ", \"beta\": " << spec.beta
     << ", \"instances\": " << instances << ", \"scale\": "
     << Table::fmt(scale, 4) << "},\n"
     << "  \"spec_text\": \"" << json_escape(scenario_to_string(spec))
     << "\",\n"
     << "  \"algorithms\": [\n";
  for (std::size_t i = 0; i < algos.size(); ++i) {
    const AlgoRow& a = algos[i];
    os << "    {\"name\": \"" << a.name << "\", \"evaluation_ratio_mean\": "
       << Table::fmt(a.ratio.mean(), 6) << ", \"evaluation_ratio_max\": "
       << Table::fmt(a.ratio.max(), 6) << ", \"steps_mean\": "
       << Table::fmt(a.steps.mean(), 3) << ", \"solve_ms\": "
       << Table::fmt(a.solve_ms, 3) << "}"
       << (i + 1 < algos.size() ? "," : "") << '\n';
  }
  os << "  ],\n"
     << "  \"netsim\": {\"ran\": " << (netsim.ran ? "true" : "false")
     << ", \"scheduled_seconds\": " << Table::fmt(netsim.scheduled_seconds, 4)
     << ", \"bruteforce_seconds\": "
     << Table::fmt(netsim.bruteforce_seconds, 4)
     << ", \"scheduled_vs_bruteforce\": "
     << Table::fmt(netsim.bruteforce_seconds > 0
                       ? netsim.scheduled_seconds / netsim.bruteforce_seconds
                       : 0,
                   4)
     << "},\n"
     << "  \"batch\": {\"instances\": " << instances
     << ", \"threads\": " << batch.threads << ", \"sequential_ms\": "
     << Table::fmt(batch.sequential_ms, 3) << ", \"pooled_ms\": "
     << Table::fmt(batch.pooled_ms, 3) << ", \"pool_speedup\": "
     << Table::fmt(batch.speedup(), 3) << "},\n"
     << "  \"robust\": {\"ran\": " << (robust_row.ran ? "true" : "false")
     << ", \"recovery_overhead\": "
     << Table::fmt(robust_row.recovery_overhead, 3)
     << ", \"clean_seconds\": " << Table::fmt(robust_row.clean_seconds, 3)
     << ", \"storm_seconds\": " << Table::fmt(robust_row.storm_seconds, 3)
     << ", \"attempts\": " << robust_row.attempts << ", \"reschedules\": "
     << robust_row.reschedules << ", \"link_retries\": "
     << robust_row.link_retries << ", \"faults_injected\": "
     << robust_row.faults_injected << ", \"verified\": "
     << (robust_row.verified ? "true" : "false") << "},\n"
     << "  \"journal\": {\"events\": " << robust_row.journal_events
     << ", \"dropped\": " << robust_row.journal_dropped
     << ", \"recovery_dump\": \"" << json_escape(robust_row.recovery_dump)
     << "\"}\n"
     << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const double scale = flags.get_double("scale", 1.0);
    const std::string out_dir = flags.get_string("out-dir", ".");
    const std::string only = flags.get_string("scenario", "");
    const int instances = static_cast<int>(flags.get_int("instances", 3));
    const int repeat = static_cast<int>(flags.get_int("repeat", 2));
    const int threads = static_cast<int>(flags.get_int("threads", 0));
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
                 "solve_ms"});
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
      algos.push_back(
          run_algorithm("GGP", spec, pool, bounds, repeat, true));
      algos.push_back(
          run_algorithm("OGGP", spec, pool, bounds, repeat, true));
      algos.push_back(
          run_algorithm("list", spec, pool, bounds, repeat, false));

      NetsimRow netsim;
      if (with_netsim) netsim = run_netsim(spec, pool.front());

      const BatchRow batch = run_batch(spec, pool, repeat, threads);

      RobustRow robust_row;
      if (spec.kind == ScenarioKind::kFaultStorm && with_socket) {
        robust_row = run_fault_storm(spec, pool.front(), out_dir);
      }

      const std::string path =
          out_dir + "/BENCH_sweep_" + spec.name + ".json";
      write_json(path, spec, scale, instances, algos, netsim, batch,
                 robust_row);

      for (const AlgoRow& a : algos) {
        table.add_row({spec.name, a.name, Table::fmt(a.ratio.mean(), 4),
                       Table::fmt(a.ratio.max(), 4),
                       Table::fmt(a.steps.mean(), 1),
                       Table::fmt(a.solve_ms, 1)});
      }
      std::cout << "wrote " << path << " (pool_speedup "
                << Table::fmt(batch.speedup(), 3);
      if (robust_row.ran) {
        std::cout << ", recovery_overhead "
                  << Table::fmt(robust_row.recovery_overhead, 2) << ", "
                  << robust_row.faults_injected << " faults";
      }
      std::cout << ")\n";
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
