// redist_e2e — the repository's end-to-end benchmark.
//
//   redist_e2e --workload=<name> [--seed=1] [--seconds=20] [--trace=0|1]
//              [--out-dir=DIR] [--git-rev=REV]
//   redist_e2e --smoke [--out-dir=DIR]
//
// Workloads: paper_testbed, sparse_giant, daemon_mix, socket_mesh
// (bench/e2e/README.md). A run prints every metric as a `name value unit`
// line and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. With --out-dir it also writes
// <workload>-seed<N>[-trace].json (a host block plus the sample count behind
// every metric) and, when traced, a Chrome trace trace-<workload>-seed<N>.json.
// --smoke runs every workload traced on tiny inputs with every check on. The
// exit status is 1 when any check failed.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "e2e.hpp"

#ifndef REDIST_E2E_BUILD_TYPE
#define REDIST_E2E_BUILD_TYPE "unknown"
#endif
#ifndef REDIST_E2E_VALIDATE
#define REDIST_E2E_VALIDATE 0
#endif

namespace {

using namespace redist;
using namespace redist::e2e;

using WorkloadFn = void (*)(const RunConfig&, Tracing*, Report&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"paper_testbed", run_paper_testbed},
      {"sparse_giant", run_sparse_giant},
      {"daemon_mix", run_daemon_mix},
      {"socket_mesh", run_socket_mesh}};
  return kWorkloads;
}

std::string number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// The metrics object: BENCHMARK.json's metrics only, or for the result file
// every metric with its sample count and detail flag.
std::string metrics_json(const Report& report, bool for_file) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (m.detail && !for_file) continue;
    os << (first ? "" : ", ") << obs::json_quote(m.name)
       << ": {\"value\": " << number(m.value)
       << ", \"unit\": " << obs::json_quote(m.unit);
    if (for_file) {
      os << ", \"samples\": " << m.samples
         << ", \"detail\": " << (m.detail ? "true" : "false");
    }
    os << '}';
    first = false;
  }
  os << '}';
  return os.str();
}

void write_results(const std::string& path, const RunConfig& cfg,
                   const std::string& git_rev, const Report& report) {
  std::ofstream os(path);
  if (!os) throw Error("cannot write " + path);
  os << "{\"schema\": \"redist.e2e.v1\", \"workload\": "
     << obs::json_quote(cfg.workload) << ", \"seed\": " << cfg.seed
     << ", \"seconds\": " << number(cfg.seconds)
     << ", \"trace\": " << (cfg.trace ? "true" : "false") << ",\n"
     << " \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << obs::json_quote(compiler())
     << ", \"build_type\": " << obs::json_quote(REDIST_E2E_BUILD_TYPE)
     << ", \"git_rev\": " << obs::json_quote(git_rev)
     << ", \"redist_validate\": " << (REDIST_E2E_VALIDATE ? "true" : "false")
     << "},\n \"correct\": " << (report.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << report.attempted()
     << ", \"failed\": " << report.failed() << ",\n \"metrics\": "
     << metrics_json(report, true) << ",\n \"failures\": [";
  for (std::size_t i = 0; i < report.failures().size(); ++i) {
    os << (i > 0 ? ", " : "") << obs::json_quote(report.failures()[i]);
  }
  os << "]}\n";
}

// Runs one workload; prints its metric lines and returns its report.
Report run(const RunConfig& cfg, const std::string& out_dir,
           const std::string& git_rev) {
  const auto it = workloads().find(cfg.workload);
  if (it == workloads().end()) {
    throw Error("unknown --workload=" + cfg.workload);
  }
  const std::unique_ptr<Tracing> tracing =
      cfg.trace ? std::make_unique<Tracing>() : nullptr;
  Report report;
  it->second(cfg, tracing.get(), report);
  for (const Metric& m : report.metrics()) {
    if (!std::isfinite(m.value)) {
      report.record(false, cfg.workload + ": metric " + m.name +
                               " is not finite");
    }
  }
  for (const Metric& m : report.metrics()) {
    std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit << '\n';
  }
  if (!out_dir.empty()) {
    const std::string stem =
        cfg.workload + "-seed" + std::to_string(cfg.seed);
    write_results(out_dir + "/" + stem + (cfg.trace ? "-trace" : "") + ".json",
                  cfg, git_rev, report);
    if (tracing) {
      const std::string path = out_dir + "/trace-" + stem + ".json";
      std::ofstream os(path);
      if (!os) throw Error("cannot write " + path);
      obs::write_chrome_trace(os, tracing->session);
    }
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    RunConfig cfg;
    cfg.workload = flags.get_string("workload", "");
    cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    cfg.seconds = flags.get_double("seconds", 20);
    cfg.trace = flags.get_bool("trace", false);
    cfg.smoke = flags.get_bool("smoke", false);
    const std::string out_dir = flags.get_string("out-dir", "");
    const std::string git_rev = flags.get_string("git-rev", "unknown");
    flags.check_unused();
    if (!(cfg.seconds > 0)) throw Error("--seconds must be positive");

    if (cfg.smoke) {
      // Every workload on tiny inputs, traced: a traced run makes every
      // check an untraced one does and also runs the per-layer probes.
      std::uint64_t failed = 0;
      cfg.seconds = 0.5;
      cfg.trace = true;
      for (const auto& [name, fn] : workloads()) {
        cfg.workload = name;
        std::cout << "== " << name << '\n';
        const Stopwatch timer;
        failed += run(cfg, out_dir, git_rev).failed();
        std::cout << "== " << name << " took "
                  << number(timer.elapsed_seconds()) << " s\n";
      }
      std::cout << (failed == 0 ? "smoke: ok\n" : "smoke: FAILED\n");
      return failed == 0 ? 0 : 1;
    }

    const Report report = run(cfg, out_dir, git_rev);
    std::cout << "{\"correct\": " << (report.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << report.attempted()
              << ", \"failed\": " << report.failed()
              << ", \"metrics\": " << metrics_json(report, false) << "}"
              << std::endl;
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
