// redist_cli — command-line front end for the redistribution scheduler.
//
// Subcommands (first argument):
//   generate  --out=FILE [--seed=1] [--max-nodes=40] [--max-edges=400]
//             [--min-weight=1] [--max-weight=20]
//       Writes a random instance in the graph text format.
//   solve     --in=FILE [--k=4] [--beta=1] [--algo=oggp|ggp]
//             [--out=FILE] [--quiet] [--metrics-out=FILE] [--trace-out=FILE]
//       Solves K-PBS, validates the result, prints schedule + stats, and
//       optionally writes the schedule in the schedule text format.
//   lb        --in=FILE [--k=4] [--beta=1]
//       Prints the lower bound decomposition.
//   simulate  --in=FILE [--k=4] [--beta=1] [--algo=oggp]
//             [--t=12500000/k] [--backbone=12500000]
//       Solves and executes the schedule on the fluid platform model,
//       comparing against the brute-force baseline. --k >= 1; --t and
//       --backbone are positive finite bytes/s.
//   analyze   --in=FILE [--k=4] [--beta=1] [--algo=oggp]
//       Prints schedule analytics (width, waste, utilization, preemption).
//   gantt     --in=FILE --out=FILE.svg [--k=4] [--beta=1] [--algo=oggp]
//             [--async]
//       Renders the schedule (or its barrier-relaxed variant) as SVG.
//   verify    --in=FILE --schedule=FILE [--k=4] [--beta=1] [--makespan=M]
//             [--bound] [--metrics-out=FILE] [--trace-out=FILE]
//       Validates a schedule file against its source graph: 1-port
//       matchings, step width <= k, exact coverage of the demanded
//       weights, makespan consistency (against --makespan when given; it
//       must be >= 0) and, with --bound, the 2x lower-bound guarantee.
//       Exits 0 iff valid.
//   daemon    [--threads=2] [--cache-capacity=64] [--io-timeout-ms=5000]
//             [--rate-rps=512] [--burst=64] [--linger-ms=0]
//             [--port-file=FILE] [--journal-out=FILE]
//             [--journal-capacity=8192] [--crash-dump=FILE]
//       Runs the long-lived scheduler daemon (service/scheduler_service):
//       accepts rpc.v4 solve and introspection requests on an ephemeral
//       loopback port, answers solves from the fingerprint-keyed solve
//       cache, and enforces lock-free token-bucket admission on them.
//       --linger-ms=0 (default) runs until a client sends the rpc shutdown
//       frame; positive values bound the lifetime. The port is printed,
//       and published to --port-file (write + fsync + atomic rename, only
//       after the listener accepts) so wrapper scripts never race a
//       half-written file. --journal-out dumps the flight recorder as
//       JSONL on exit and --crash-dump arms the fatal-signal journal dump.
//       See docs/SERVICE.md.
//   inspect   --port=P [--endpoint=all|healthz|statusz|metricsz|journalz]
//             [--last=N] [--timeout-ms=2000]
//       Probes a live daemon over its rpc port and prints the endpoint
//       bodies (all four by default, with section headers).
//   submit    --port=P --in=FILE[,FILE...] [--repeat=1] [--k=4] [--beta=1]
//             [--algo=oggp] [--timeout-ms=5000] [--shutdown] [--quiet]
//       Submits graphs to a live daemon over rpc.v4 (one connection, one
//       request per graph per repeat) and prints each response's cache
//       provenance (cold | cache_hit), service time and
//       quality ratio. --shutdown sends the shutdown frame after the last
//       response. Exits non-zero on typed rpc errors.
//
// The solve and verify subcommands accept --metrics-out=FILE (flat
// metrics JSON, or CSV when FILE ends in .csv) and --trace-out=FILE (Chrome
// trace_event JSON for chrome://tracing / Perfetto); see
// docs/OBSERVABILITY.md for the formats and the metric catalog.
//
// Graphs use the text format of graph/graphio.hpp; schedules the format of
// kpbs/schedule_io.hpp.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "redist.hpp"

namespace {

using namespace redist;

// All solver subcommands share the --k/--beta/--algo surface via
// solver_options_from_flags (kpbs/options.hpp); the CLI's historical
// defaults differ from the library's only in k.
const SolverOptions kCliDefaults{4, 1, Algorithm::kOGGP};

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (start <= value.size()) {
    const std::string::size_type comma = value.find(',', start);
    const std::string part = value.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!part.empty()) parts.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

BipartiteGraph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open graph file: " + path);
  return read_graph(in);
}

// Reads a count flag that must be at least 1 and fit in T. Cast unchecked,
// a negative value wraps to a huge size and a zero is clamped silently.
template <typename T>
T count_flag(Flags& flags, const std::string& name, T def) {
  const std::int64_t value =
      flags.get_int(name, static_cast<std::int64_t>(def));
  if (value < 1 ||
      static_cast<std::uint64_t>(value) > std::numeric_limits<T>::max()) {
    throw Error("--" + name + " must be a positive count, got " +
                std::to_string(value));
  }
  return static_cast<T>(value);
}

// Reads a rate flag (bytes per second) that must be positive and finite.
double rate_flag(Flags& flags, const std::string& name, double def) {
  const double value = flags.get_double(name, def);
  if (!(value > 0.0) || !std::isfinite(value)) {
    std::ostringstream os;
    os << "--" << name << " must be a positive finite rate, got " << value;
    throw Error(os.str());
  }
  return value;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Consumes --metrics-out / --trace-out, installs process-wide telemetry
// sinks for the lifetime of the object, and writes the export files on
// flush(). With neither flag given the null sinks stay installed and the
// solve paths record nothing.
class CliTelemetry {
 public:
  explicit CliTelemetry(Flags& flags)
      : metrics_path_(flags.get_string("metrics-out", "")),
        trace_path_(flags.get_string("trace-out", "")),
        scoped_(metrics_path_.empty() ? nullptr : &registry_,
                trace_path_.empty() ? nullptr : &session_) {}

  void flush() const {
    if (!metrics_path_.empty()) {
      std::ofstream os(metrics_path_);
      if (!os) throw Error("cannot write: " + metrics_path_);
      if (ends_with(metrics_path_, ".csv")) {
        obs::write_metrics_csv(os, registry_);
      } else {
        obs::write_metrics_json(os, registry_);
      }
      std::cout << "metrics written to " << metrics_path_ << '\n';
    }
    if (!trace_path_.empty()) {
      std::ofstream os(trace_path_);
      if (!os) throw Error("cannot write: " + trace_path_);
      obs::write_chrome_trace(os, session_);
      std::cout << "trace written to " << trace_path_ << '\n';
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  obs::MetricsRegistry registry_;
  obs::TraceSession session_;
  obs::ScopedTelemetry scoped_;
};

int cmd_generate(Flags& flags) {
  const std::string out = flags.get_string("out", "");
  if (out.empty()) throw Error("generate requires --out=FILE");
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  RandomGraphConfig config;
  config.max_left = static_cast<NodeId>(flags.get_int("max-nodes", 40));
  config.max_right = config.max_left;
  config.max_edges = static_cast<int>(flags.get_int("max-edges", 400));
  config.min_weight = flags.get_int("min-weight", 1);
  config.max_weight = flags.get_int("max-weight", 20);
  flags.check_unused();
  const BipartiteGraph g = random_bipartite(rng, config);
  std::ofstream os(out);
  if (!os) throw Error("cannot write: " + out);
  write_graph(os, g);
  std::cout << "wrote " << g.left_count() << "x" << g.right_count()
            << " graph with " << g.alive_edge_count() << " edges to " << out
            << '\n';
  return 0;
}

int cmd_solve(Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) throw Error("solve requires --in=FILE");
  const SolverOptions options = solver_options_from_flags(flags, kCliDefaults);
  const std::string out = flags.get_string("out", "");
  const bool quiet = flags.get_bool("quiet", false);
  CliTelemetry telemetry(flags);
  flags.check_unused();

  const BipartiteGraph g = load_graph(in);
  const SolveResult result = solve_kpbs(g, options);
  const Schedule& s = result.schedule;
  validate_schedule(g, s, clamp_k(g, options.k));

  if (!quiet) std::cout << s.to_string();
  std::cout << algorithm_name(options.algorithm) << ": " << s.step_count()
            << " steps, cost " << s.cost(options.beta) << ", lower bound "
            << result.lower_bound.value().to_double() << ", ratio "
            << Table::fmt(result.evaluation_ratio, 4) << '\n';
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) throw Error("cannot write: " + out);
    write_schedule(os, s);
    std::cout << "schedule written to " << out << '\n';
  }
  telemetry.flush();
  return 0;
}

int cmd_lb(Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) throw Error("lb requires --in=FILE");
  const int k = static_cast<int>(flags.get_int("k", 4));
  const Weight beta = flags.get_int("beta", 1);
  flags.check_unused();
  const BipartiteGraph g = load_graph(in);
  const LowerBound lb = kpbs_lower_bound(g, k, beta);
  std::cout << "graph: " << g.left_count() << "x" << g.right_count() << ", "
            << g.alive_edge_count() << " edges, P(G)=" << g.total_weight()
            << ", W(G)=" << g.max_node_weight() << ", Delta="
            << g.max_degree() << '\n';
  std::cout << "lower bound = beta*" << lb.min_steps << " + "
            << lb.min_transmission << " = " << lb.value() << " ("
            << lb.value().to_double() << ")\n";
  return 0;
}

int cmd_simulate(Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) throw Error("simulate requires --in=FILE");
  const int k = count_flag<int>(flags, "k", 4);
  const Weight beta = flags.get_int("beta", 1);
  const Algorithm algo = parse_algorithm(flags.get_string("algo", "oggp"));
  const double card = rate_flag(flags, "t", 12'500'000.0 / k);
  const double backbone = rate_flag(flags, "backbone", 12'500'000.0);
  flags.check_unused();

  const BipartiteGraph g = load_graph(in);
  // Interpret weights as "bytes / card speed" seconds worth of data.
  const double bytes_per_unit = card;
  TrafficMatrix traffic(g.left_count(), g.right_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    const double bytes = static_cast<double>(edge.weight) * bytes_per_unit;
    // 2^63: the first double past INT64_MAX; casting it or more is UB.
    if (!(bytes < 9223372036854775808.0)) {
      std::ostringstream os;
      os << "--t=" << card << " times weight " << edge.weight
         << " overflows the byte count of a message";
      throw Error(os.str());
    }
    if (!(bytes >= 1.0)) {
      std::ostringstream os;
      os << "--t=" << card << " times weight " << edge.weight
         << " is less than one byte; every message needs at least one";
      throw Error(os.str());
    }
    traffic.add(edge.left, edge.right, static_cast<Bytes>(bytes));
  }
  // A flow can run far below the slower rate (shared links, unfair TCP
  // weights, congestion), so the whole matrix at that rate must take at
  // most 1e100 s: every simulated duration then stays finite and every
  // rate far above underflow.
  const double slowest_s =
      static_cast<double>(traffic.total()) / std::min(card, backbone);
  if (!(slowest_s <= 1e100)) {
    std::ostringstream os;
    os << "--t=" << card << " and --backbone=" << backbone
       << " are too slow to simulate: " << traffic.total()
       << " bytes take " << slowest_s << " s at the slower rate (limit 1e100)";
    throw Error(os.str());
  }
  Platform p;
  p.n1 = g.left_count();
  p.n2 = g.right_count();
  p.t1_bps = card;
  p.t2_bps = card;
  p.backbone_bps = backbone;
  p.beta_seconds = 0.01;
  FluidOptions tcp;
  tcp.congestion_alpha = 0.08;
  tcp.unfairness_stddev = 0.8;
  tcp.jitter_stddev = 0.03;

  const ExecutionResult brute = simulate_bruteforce(p, traffic, tcp);
  const Schedule s = solve_kpbs(g, {k, beta, algo}).schedule;
  const ExecutionResult run =
      execute_schedule(p, traffic, s, bytes_per_unit, tcp);
  std::cout << "brute force: " << Table::fmt(brute.total_seconds, 2)
            << " s\n"
            << algorithm_name(algo) << ":        "
            << Table::fmt(run.total_seconds, 2) << " s (" << run.steps
            << " steps)\n";
  return 0;
}

int cmd_analyze(Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) throw Error("analyze requires --in=FILE");
  const int k = static_cast<int>(flags.get_int("k", 4));
  const Weight beta = flags.get_int("beta", 1);
  const Algorithm algo = parse_algorithm(flags.get_string("algo", "oggp"));
  flags.check_unused();
  const BipartiteGraph g = load_graph(in);
  const Schedule s = solve_kpbs(g, {k, beta, algo}).schedule;
  std::cout << algorithm_name(algo) << ": "
            << analyze_schedule(g, s, k).to_string() << '\n';
  const int k_eff = clamp_k(g, k);
  const AsyncSchedule relaxed = relax_barriers(s, k_eff, beta);
  std::cout << "barrier-relaxed makespan: " << relaxed.makespan << " (vs "
            << s.cost(beta) << " stepped)\n";
  return 0;
}

int cmd_verify(Flags& flags) {
  const std::string in = flags.get_string("in", "");
  const std::string sched_path = flags.get_string("schedule", "");
  if (in.empty() || sched_path.empty()) {
    throw Error("verify requires --in=GRAPH and --schedule=FILE");
  }
  const int k = static_cast<int>(flags.get_int("k", 4));
  const Weight beta = flags.get_int("beta", 1);
  // -1 = no claimed makespan; a given one must be a makespan.
  const bool claims_makespan = !flags.get_string("makespan", "").empty();
  const Weight makespan = flags.get_int("makespan", -1);
  if (claims_makespan && makespan < 0) {
    throw Error("--makespan must be >= 0, got " + std::to_string(makespan));
  }
  const bool bound = flags.get_bool("bound", false);
  CliTelemetry telemetry(flags);
  flags.check_unused();

  const BipartiteGraph g = load_graph(in);
  std::ifstream is(sched_path);
  if (!is) throw Error("cannot open schedule file: " + sched_path);
  const Schedule s = read_schedule(is);

  ScheduleValidatorOptions options;
  options.k = clamp_k(g, k);
  options.beta = beta;
  options.reported_makespan = makespan;
  options.check_approximation_bound = bound;
  const ValidationReport report = ScheduleValidator(options).validate(g, s);

  std::cout << "schedule: " << s.step_count() << " steps, cost "
            << s.cost(beta) << " (k=" << options.k << ", beta=" << beta
            << ")\n";
  telemetry.flush();
  if (report.ok()) {
    std::cout << "VALID: all invariants hold"
              << (bound ? " (incl. 2x lower-bound)" : "") << '\n';
    return 0;
  }
  std::cout << report.to_string() << '\n';
  std::cout << "INVALID: " << report.violations().size() << " violation(s)\n";
  return 1;
}

int cmd_inspect(Flags& flags) {
  const int port = static_cast<int>(flags.get_int("port", 0));
  if (port <= 0 || port > 65535) {
    throw Error("inspect requires --port=P of a live `redist_cli daemon`");
  }
  const std::string endpoint = flags.get_string("endpoint", "all");
  const std::int64_t last = flags.get_int("last", 0);
  const int timeout_ms = static_cast<int>(flags.get_int("timeout-ms", 2000));
  flags.check_unused();

  std::string journalz = "journalz";
  if (last > 0) journalz += "?last=" + std::to_string(last);
  std::vector<std::string> targets;
  if (endpoint == "all") {
    targets = {"healthz", "statusz", "metricsz", journalz};
  } else if (endpoint == "healthz" || endpoint == "statusz" ||
             endpoint == "metricsz") {
    targets = {endpoint};
  } else if (endpoint == "journalz") {
    targets = {journalz};
  } else {
    throw Error("unknown --endpoint: " + endpoint +
                " (want all|healthz|statusz|metricsz|journalz)");
  }

  ClientSessionOptions options;
  options.io_timeout_ms = timeout_ms;
  ClientSession session =
      ClientSession::dial_rpc(static_cast<std::uint16_t>(port), options);
  for (const std::string& target : targets) {
    if (targets.size() > 1) std::cout << "== " << target << " ==\n";
    std::cout << session.introspect(target);
  }
  return 0;
}

int cmd_daemon(Flags& flags) {
  service::SchedulerServiceOptions options;
  options.threads = count_flag<int>(flags, "threads", 2);
  options.cache_capacity =
      count_flag<std::size_t>(flags, "cache-capacity", 64);
  options.io_timeout_ms =
      static_cast<int>(flags.get_int("io-timeout-ms", 5000));
  options.admission_rate_rps = flags.get_double("rate-rps", 512.0);
  options.admission_burst = flags.get_int("burst", 64);
  const double linger_ms = flags.get_double("linger-ms", 0.0);
  const std::string port_file = flags.get_string("port-file", "");
  const std::string journal_out = flags.get_string("journal-out", "");
  const std::size_t journal_capacity =
      count_flag<std::size_t>(flags, "journal-capacity", 8192);
  const std::string crash_dump = flags.get_string("crash-dump", "");
  flags.check_unused();

  // Full observability stack for the daemon's lifetime: the cache and the
  // rpc handlers journal and count through these process-wide sinks, and
  // introspection requests render them.
  obs::MetricsRegistry registry;
  obs::Journal journal(journal_capacity);
  obs::ScopedTelemetry telemetry(&registry, nullptr);
  obs::ScopedJournal scoped_journal(&journal);
  if (!crash_dump.empty()) obs::install_signal_dump(&journal, crash_dump);

  service::SchedulerService daemon(options);
  std::cout << "daemon on 127.0.0.1:" << daemon.port() << " (threads="
            << options.threads << ", cache=" << options.cache_capacity
            << ", rate=" << Table::fmt(options.admission_rate_rps, 0)
            << " rps";
  if (linger_ms > 0) {
    std::cout << ", linger=" << Table::fmt(linger_ms, 0) << " ms)\n";
  } else {
    std::cout << ", until rpc shutdown)\n";
  }
  std::cout << std::flush;
  // Published only after the SchedulerService constructor returned with
  // its accept loop live; write + fsync + atomic rename means a reader
  // never sees a torn or pre-listen port file.
  if (!port_file.empty()) service::write_port_file(port_file, daemon.port());

  double elapsed_ms = 0;
  while (!daemon.stopping() &&
         (linger_ms <= 0 || elapsed_ms < linger_ms)) {
    robust::sleep_ms(50);
    elapsed_ms += 50;
  }
  daemon.stop();

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const auto& [name, count] : registry.snapshot().counters) {
    if (name == "service.cache.hits") hits = count;
    if (name == "service.cache.misses") misses = count;
  }
  std::cout << "served " << daemon.requests_served()
            << " request(s): " << hits << " cache hit(s), " << misses
            << " miss(es), "
            << daemon.cache().entry_count() << " entries cached\n";

  if (!journal_out.empty()) {
    std::ofstream os(journal_out);
    if (!os) throw Error("cannot write: " + journal_out);
    obs::write_journal_jsonl(os, journal);
    std::cout << "journal written to " << journal_out << '\n';
  }
  if (!crash_dump.empty()) obs::uninstall_signal_dump();
  return 0;
}

int cmd_submit(Flags& flags) {
  const int port = static_cast<int>(flags.get_int("port", 0));
  if (port <= 0 || port > 65535) {
    throw Error("submit requires --port=P of a live `redist_cli daemon`");
  }
  const std::string in = flags.get_string("in", "");
  if (in.empty()) throw Error("submit requires --in=FILE[,FILE...]");
  const SolverOptions solver = solver_options_from_flags(flags, kCliDefaults);
  const int repeat = static_cast<int>(flags.get_int("repeat", 1));
  const int timeout_ms = static_cast<int>(flags.get_int("timeout-ms", 5000));
  const bool shutdown = flags.get_bool("shutdown", false);
  const bool quiet = flags.get_bool("quiet", false);
  flags.check_unused();
  if (repeat < 1) throw Error("--repeat must be >= 1");

  const std::vector<std::string> paths = split_list(in);
  if (paths.empty()) throw Error("submit requires at least one graph file");

  // One rpc request per graph, reused across repeats: repeats after the
  // first should come back as cache hits, which is the whole point.
  std::vector<rpc::SolveRequest> requests;
  requests.reserve(paths.size());
  for (const std::string& path : paths) {
    const BipartiteGraph g = load_graph(path);
    rpc::SolveRequest request;
    request.k = solver.k;
    request.beta = solver.beta;
    request.algorithm = solver.algorithm;
    request.senders = g.left_count();
    request.receivers = g.right_count();
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (!g.alive(e)) continue;
      const Edge& edge = g.edge(e);
      request.entries.push_back(
          {edge.left, edge.right, static_cast<Bytes>(edge.weight)});
    }
    requests.push_back(std::move(request));
  }

  ClientSessionOptions dial_options;
  dial_options.io_timeout_ms = timeout_ms;
  ClientSession session =
      ClientSession::dial_rpc(static_cast<std::uint16_t>(port), dial_options);

  Table summary({"instance", "served_from", "steps", "ratio", "server_ms"});
  std::uint64_t next_request_id = 1;
  for (int r = 0; r < repeat; ++r) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].request_id = next_request_id++;
      const rpc::SolveResponse response = session.solve(requests[i]);
      const Schedule s = schedule_from_string(response.schedule_text);
      if (!quiet || r == repeat - 1) {
        summary.add_row(
            {paths[i], rpc::served_from_name(response.served_from),
             Table::fmt(static_cast<std::int64_t>(s.step_count())),
             Table::fmt(response.evaluation_ratio, 4),
             Table::fmt(response.solve_ms, 3)});
      }
    }
  }
  summary.print(std::cout);
  if (shutdown) {
    session.shutdown_server();
    std::cout << "shutdown frame sent\n";
  }
  return 0;
}

int cmd_gantt(Flags& flags) {
  const std::string in = flags.get_string("in", "");
  const std::string out = flags.get_string("out", "");
  if (in.empty() || out.empty()) {
    throw Error("gantt requires --in=FILE and --out=FILE.svg");
  }
  const int k = static_cast<int>(flags.get_int("k", 4));
  const Weight beta = flags.get_int("beta", 1);
  const Algorithm algo = parse_algorithm(flags.get_string("algo", "oggp"));
  const bool as_async = flags.get_bool("async", false);
  flags.check_unused();
  const BipartiteGraph g = load_graph(in);
  const Schedule s = solve_kpbs(g, {k, beta, algo}).schedule;
  GanttOptions options;
  options.beta = beta;
  options.title = algorithm_name(algo) + (as_async ? " (relaxed)" : "") +
                  ", k=" + std::to_string(clamp_k(g, k));
  std::string svg;
  if (as_async) {
    svg = async_to_svg(relax_barriers(s, clamp_k(g, k), beta),
                       g.left_count(), options);
  } else {
    svg = schedule_to_svg(s, g.left_count(), options);
  }
  std::ofstream os(out);
  if (!os) throw Error("cannot write: " + out);
  os << svg;
  std::cout << "wrote " << out << " (" << svg.size() << " bytes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << "usage: redist_cli "
                   "<generate|solve|lb|simulate|analyze|gantt|verify|"
                   "inspect|daemon|submit> "
                   "[--flags...]\n(see the file header for details)\n";
      return 2;
    }
    const std::string cmd = argv[1];
    Flags flags(argc - 1, argv + 1);
    if (cmd == "generate") return cmd_generate(flags);
    if (cmd == "solve") return cmd_solve(flags);
    if (cmd == "lb") return cmd_lb(flags);
    if (cmd == "simulate") return cmd_simulate(flags);
    if (cmd == "analyze") return cmd_analyze(flags);
    if (cmd == "gantt") return cmd_gantt(flags);
    if (cmd == "verify") return cmd_verify(flags);
    if (cmd == "inspect") return cmd_inspect(flags);
    if (cmd == "daemon") return cmd_daemon(flags);
    if (cmd == "submit") return cmd_submit(flags);
    std::cerr << "unknown subcommand: " << cmd << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
