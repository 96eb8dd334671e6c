// Per-layer probes and the per-layer metric tables built from their spans.
#include <cmath>
#include <map>
#include <optional>

#include "e2e.hpp"

namespace redist::e2e {

namespace {

// Matching-layer counters the library already records into an installed
// MetricsRegistry.
struct MatchingCounters {
  std::uint64_t probes = 0;
  std::uint64_t seed_hits = 0;
  std::uint64_t seed_misses = 0;
  std::uint64_t hk_phases = 0;
  std::uint64_t hk_paths = 0;
};

MatchingCounters read_counters(obs::MetricsRegistry& registry) {
  return MatchingCounters{registry.counter("bottleneck.probes").value(),
                          registry.counter("warm.seed.hits").value(),
                          registry.counter("warm.seed.misses").value(),
                          registry.counter("hk.phases").value(),
                          registry.counter("hk.augmenting_paths").value()};
}

std::int64_t delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<std::int64_t>(after - before);
}

// Step 1 of solve_kpbs: weights in units of beta, rounded up.
BipartiteGraph beta_normalized(const BipartiteGraph& demand, Weight beta) {
  const Weight unit = std::max<Weight>(1, beta);
  BipartiteGraph normalized(demand.left_count(), demand.right_count());
  for (EdgeId e = 0; e < demand.edge_count(); ++e) {
    if (!demand.alive(e)) continue;
    const Edge& edge = demand.edge(e);
    normalized.add_edge(edge.left, edge.right, ceil_div(edge.weight, unit));
  }
  return normalized;
}

void decomposed_solve(obs::TraceSession* session,
                      obs::MetricsRegistry& registry, const Instance& inst,
                      bool bottleneck) {
  const std::string_view algo = bottleneck ? "oggp" : "ggp";
  Span root(session, "kpbs.decomposed", "kpbs", next_req());
  root.arg("algo", algo);
  (void)timed_solve(session, inst, bottleneck);
  const BipartiteGraph normalized = beta_normalized(inst.demand, inst.beta);
  std::optional<Regularized> reg;
  {
    Span span(session, "kpbs.regularize", "kpbs");
    reg.emplace(regularize(normalized, inst.k));
    span.arg("algo", algo);
    span.arg("edges", static_cast<std::int64_t>(reg->graph.edge_count()));
  }
  {
    Span span(session, "kpbs.peel", "kpbs");
    const MatchingCounters before = read_counters(registry);
    // Composed exactly as wrgp_peel_warm composes it, with every matching
    // selection and ledger update timed.
    PeelingContext ctx;
    const PerfectMatchingStrategy select = [&](const BipartiteGraph& g) {
      const Span call(session, "matching.select", "matching");
      return bottleneck ? ctx.bottleneck_perfect(g) : ctx.arbitrary_perfect(g);
    };
    const PeelObserver ledger = [&](const BipartiteGraph& g, const Matching& m,
                                    Weight amount) {
      const Span call(session, "matching.ledger", "matching");
      ctx.before_peel(g, m, amount);
    };
    const std::vector<PeelStep> steps = wrgp_peel(reg->graph, select, ledger);
    const MatchingCounters after = read_counters(registry);
    span.arg("algo", algo);
    span.arg("steps", static_cast<std::int64_t>(steps.size()));
    span.arg("probes", delta(after.probes, before.probes));
    span.arg("seed_hits", delta(after.seed_hits, before.seed_hits));
    span.arg("seed_misses", delta(after.seed_misses, before.seed_misses));
    span.arg("hk_phases", delta(after.hk_phases, before.hk_phases));
    span.arg("hk_paths", delta(after.hk_paths, before.hk_paths));
  }
  {
    Span span(session, "kpbs.lower_bound", "kpbs");
    (void)kpbs_lower_bound(inst.demand, inst.k, inst.beta);
    span.arg("algo", algo);
  }
}

}  // namespace

void probe_solver(obs::TraceSession* session, obs::MetricsRegistry& registry,
                  const std::vector<Instance>& instances) {
  const obs::ScopedTelemetry telemetry(&registry, nullptr);
  for (const Instance& inst : instances) {
    decomposed_solve(session, registry, inst, true);
    decomposed_solve(session, registry, inst, false);
  }
}

void probe_service(obs::TraceSession* session,
                   const std::vector<Instance>& instances, bool rpc) {
  constexpr int kRepeats = 5;
  service::SolveCache cache(std::max<std::size_t>(64, instances.size()));
  std::vector<service::CanonicalInstance> keyed;
  std::vector<service::InstanceFingerprint> prints;
  for (const Instance& inst : instances) {
    // The daemon keys the matrix its request carries, then caches the
    // schedule text a cold solve produced.
    const TrafficMatrix matrix = request_matrix(solve_request(inst));
    for (int r = 0; r < kRepeats; ++r) {
      Span span(session, "service.fingerprint", "service", next_req());
      service::CanonicalInstance canonical =
          service::canonicalize(matrix, oggp(inst));
      const service::InstanceFingerprint fp =
          service::fingerprint_instance(canonical);
      if (r + 1 == kRepeats) {
        keyed.push_back(std::move(canonical));
        prints.push_back(fp);
      }
    }
    service::CachedSolve cached;
    cached.schedule_text =
        schedule_to_string(solve_kpbs(inst.demand, oggp(inst)).schedule);
    cache.insert_solve(prints.back(), keyed.back(), std::move(cached));
  }
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      Span span(session, "service.lookup", "service", next_req());
      (void)cache.lookup(prints[i], keyed[i]);
    }
  }
  if (!rpc) return;

  service::SchedulerService daemon;
  {
    ClientSession client = ClientSession::dial_rpc(daemon.port());
    for (const Instance& inst : instances) {
      rpc::SolveRequest request = solve_request(inst);
      request.request_id = 1;
      // Cold, exact hit, then a near miss with every entry one byte larger.
      for (int pass = 0; pass < 3; ++pass) {
        if (pass == 2) {
          for (rpc::TrafficEntry& e : request.entries) e.bytes += 1;
        }
        trace_codec(session, request, traced_solve(client, request, session));
      }
    }
  }
  daemon.stop();
}

void probe_netsim(
    obs::TraceSession* session, const std::vector<Instance>& instances,
    const std::function<Platform(const Instance&)>& platform_for) {
  std::uint64_t fluid_seed = 0x5EED;
  for (const Instance& inst : instances) {
    const Platform platform = platform_for(inst);
    const Span root(session, "netsim.instance", "netsim", next_req());
    const Schedule schedule = timed_solve(session, inst, true).schedule;
    for (const bool tcp : {true, false}) {
      const FluidOptions transport =
          tcp ? paper_tcp(++fluid_seed) : ideal_transport();
      const std::string_view model = tcp ? "paper_tcp" : "ideal";
      {
        Span span(session, "netsim.execute", "netsim");
        const ExecutionResult run = execute_schedule(
            platform, inst.traffic, schedule, inst.bytes_per_unit, transport);
        span.arg("algo", std::string_view("oggp"));
        span.arg("transport", model);
        span.arg("sim_s", run.total_seconds);
        span.arg("barrier_s", run.barrier_seconds);
      }
      {
        Span span(session, "netsim.bruteforce", "netsim");
        const ExecutionResult run =
            simulate_bruteforce(platform, inst.traffic, transport);
        span.arg("transport", model);
        span.arg("sim_s", run.total_seconds);
      }
    }
  }
}

void probe_scaling(obs::TraceSession* session,
                   const std::function<Instance(NodeId n)>& family,
                   const std::vector<NodeId>& sizes, int repeats) {
  for (const NodeId n : sizes) {
    const Instance inst = family(n);
    for (int r = 0; r < repeats; ++r) {
      for (const bool bottleneck : {true, false}) {
        Span span(session, "kpbs.scaling", "kpbs", next_req());
        (void)solve_kpbs(inst.demand, bottleneck ? oggp(inst) : ggp(inst));
        span.arg("algo", std::string_view(bottleneck ? "oggp" : "ggp"));
        span.arg("n", static_cast<std::int64_t>(n));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Per-layer tables.

namespace {

// One recorded span, its args decoded back from their JSON tokens.
struct SpanRec {
  std::string name;
  double ms = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t req = 0;
  std::map<std::string, std::string, std::less<>> args;

  bool has(std::string_view key) const { return args.count(key) != 0; }
  double num(std::string_view key) const {
    const auto it = args.find(key);
    return it == args.end() ? 0.0 : std::stod(it->second);
  }
  std::string_view str(std::string_view key) const {
    const auto it = args.find(key);
    if (it == args.end()) return {};
    std::string_view v = it->second;
    if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
    return v;
  }
};

std::vector<SpanRec> decode(const obs::TraceSession& session) {
  std::vector<SpanRec> spans;
  for (const obs::TraceEvent& event : session.snapshot()) {
    SpanRec rec;
    rec.name = event.name;
    rec.ms = static_cast<double>(event.dur_ns) / 1e6;
    for (const obs::TraceArg& arg : event.args) {
      rec.args[arg.key] = arg.json_value;
    }
    rec.id = static_cast<std::int64_t>(rec.num("id"));
    rec.parent = static_cast<std::int64_t>(rec.num("parent"));
    rec.req = static_cast<std::int64_t>(rec.num("req"));
    spans.push_back(std::move(rec));
  }
  return spans;
}

double median(const SampleSet& s) {
  return s.count() == 0 ? 0.0 : s.percentile(50);
}

// Least-squares slope of log(median time) against log(n).
double fitted_exponent(const std::vector<const SpanRec*>& scaling) {
  std::map<std::int64_t, SampleSet> by_n;
  for (const SpanRec* s : scaling) {
    by_n[static_cast<std::int64_t>(s->num("n"))].add(s->ms);
  }
  if (by_n.size() < 2) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [n, times] : by_n) {
    const double x = std::log(static_cast<double>(n));
    const double y = std::log(std::max(1e-9, times.percentile(50)));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const auto count = static_cast<double>(by_n.size());
  return (count * sxy - sx * sy) / (count * sxx - sx * sx);
}

}  // namespace

void layer_metrics(const Tracing& tracing, Report& report) {
  const std::vector<SpanRec> spans = decode(tracing.session);
  std::map<std::int64_t, std::vector<const SpanRec*>> children;
  std::map<std::int64_t, std::vector<const SpanRec*>> by_req;
  for (const SpanRec& s : spans) {
    children[s.id];  // every span has an entry, possibly empty
    children[s.parent].push_back(&s);
    by_req[s.req].push_back(&s);
  }
  const auto named = [&](std::string_view name, std::string_view key = {},
                         std::string_view value = {}) {
    std::vector<const SpanRec*> out;
    for (const SpanRec& s : spans) {
      if (s.name == name && (key.empty() || s.str(key) == value)) {
        out.push_back(&s);
      }
    }
    return out;
  };
  const auto child_ms = [&](const SpanRec& s, std::string_view name) {
    double ms = 0;
    for (const SpanRec* c : children[s.id]) {
      if (c->name == name) ms += c->ms;
    }
    return ms;
  };
  const auto child_count = [&](const SpanRec& s, std::string_view name) {
    std::size_t n = 0;
    for (const SpanRec* c : children[s.id]) n += c->name == name ? 1 : 0;
    return n;
  };
  const auto med = [&](const std::vector<const SpanRec*>& set,
                       const std::function<double(const SpanRec&)>& f) {
    SampleSet s;
    for (const SpanRec* r : set) s.add(f(*r));
    return median(s);
  };
  // Reports the median of f over `set`, times `scale`, with its sample count.
  const auto put = [&](const std::string& name,
                       const std::vector<const SpanRec*>& set,
                       const std::function<double(const SpanRec&)>& f,
                       const std::string& unit, double scale = 1.0) {
    report.metric(name, scale * med(set, f), unit, set.size());
  };
  const auto dur = [](const SpanRec& s) { return s.ms; };

  // -- kpbs: decomposed solves ----------------------------------------------
  const auto peels = named("kpbs.peel", "algo", "oggp");
  const auto ggp_peels = named("kpbs.peel", "algo", "ggp");
  const auto oggp_solves = named("kpbs.solve", "algo", "oggp");
  const auto ggp_solves = named("kpbs.solve", "algo", "ggp");
  const auto roots = named("kpbs.decomposed", "algo", "oggp");
  const auto regularizes = named("kpbs.regularize", "algo", "oggp");
  const auto num = [](const char* key) {
    return [key](const SpanRec& s) { return s.num(key); };
  };
  const auto children_ms = [&](const char* name) {
    return [&, name](const SpanRec& s) { return child_ms(s, name); };
  };
  put("kpbs.regularize_ms", regularizes, dur, "ms");
  put("kpbs.peel_ms", peels, dur, "ms");
  put("kpbs.peel_self_ms", peels, [&](const SpanRec& s) {
    double self = s.ms;
    for (const SpanRec* c : children[s.id]) self -= c->ms;
    return self;
  }, "ms");
  put("kpbs.lower_bound_ms", named("kpbs.lower_bound", "algo", "oggp"), dur,
      "ms");
  put("kpbs.extract_ms", roots, [&](const SpanRec& s) {
    return child_ms(s, "kpbs.solve") - child_ms(s, "kpbs.regularize") -
           child_ms(s, "kpbs.peel") - child_ms(s, "kpbs.lower_bound");
  }, "ms");
  put("kpbs.solve_ms.ggp", ggp_solves, dur, "ms");
  put("kpbs.steps.oggp", oggp_solves, num("steps"), "count");
  put("kpbs.steps.ggp", ggp_solves, num("steps"), "count");
  put("kpbs.regularized_edges", regularizes, num("edges"), "count");
  RunningStats ggp_ratio;
  for (const SpanRec* s : ggp_solves) {
    if (s->has("eval_ratio")) ggp_ratio.add(s->num("eval_ratio"));
  }
  report.metric("kpbs.eval_ratio.ggp",
                ggp_ratio.count() > 0 ? ggp_ratio.mean() : 0.0, "ratio",
                ggp_ratio.count());
  for (const char* algo : {"oggp", "ggp"}) {
    const auto scaling = named("kpbs.scaling", "algo", algo);
    report.metric(std::string("kpbs.solve_exponent.") + algo,
                  fitted_exponent(scaling), "exponent", scaling.size());
  }

  // -- matching: selection inside the OGGP/GGP peels --------------------------
  put("matching.select_ms", peels, children_ms("matching.select"), "ms");
  put("matching.select_ms.ggp", ggp_peels, children_ms("matching.select"),
      "ms");
  put("matching.select_share", roots, [&](const SpanRec& root) {
    double select = 0;
    for (const SpanRec* c : children[root.id]) {
      if (c->name == "kpbs.peel") select += child_ms(*c, "matching.select");
    }
    const double solve = child_ms(root, "kpbs.solve");
    return solve > 0 ? select / solve : 0.0;
  }, "ratio");
  put("matching.select_us_per_step", peels, [&](const SpanRec& s) {
    const std::size_t n = child_count(s, "matching.select");
    return n > 0 ? child_ms(s, "matching.select") / static_cast<double>(n)
                 : 0.0;
  }, "us", 1e3);
  put("matching.ledger_ms", peels, children_ms("matching.ledger"), "ms");
  put("matching.probes", peels, num("probes"), "count");
  put("matching.probes_per_step", peels, [](const SpanRec& s) {
    return s.num("steps") > 0 ? s.num("probes") / s.num("steps") : 0.0;
  }, "count");
  double seed_hits = 0;
  double seed_tries = 0;
  for (const SpanRec* s : peels) {
    seed_hits += s->num("seed_hits");
    seed_tries += s->num("seed_hits") + s->num("seed_misses");
  }
  report.metric("matching.seed_hit_ratio",
                seed_tries > 0 ? seed_hits / seed_tries : 0.0, "ratio",
                peels.size());
  put("matching.hk_phases", peels, num("hk_phases"), "count");
  put("matching.hk_augmenting_paths", peels, num("hk_paths"), "count");

  // -- service and net: rpc round trips ---------------------------------------
  put("service.fingerprint_us", named("service.fingerprint"), dur, "us", 1e3);
  put("service.lookup_us", named("service.lookup"), dur, "us", 1e3);
  const auto hits = named("net.rpc", "served_from", "cache_hit");
  const auto colds = named("net.rpc", "served_from", "cold");
  const auto nears = named("net.rpc", "served_from", "warm_near_miss");
  put("service.serve_ms.hit", hits, num("server_ms"), "ms");
  put("service.serve_ms.cold", colds, num("server_ms"), "ms");
  put("service.serve_ms.near", nears, num("server_ms"), "ms");
  const std::size_t answered = hits.size() + colds.size() + nears.size();
  report.metric("service.hit_ratio",
                answered > 0 ? static_cast<double>(hits.size()) /
                                   static_cast<double>(answered)
                             : 0.0,
                "ratio", answered);
  const std::size_t solved = colds.size() + nears.size();
  report.metric("service.warm_ratio",
                solved > 0 ? static_cast<double>(nears.size()) /
                                 static_cast<double>(solved)
                           : 0.0,
                "ratio", solved);
  const auto windows = named("service.window");
  double evictions = 0;
  double refused = 0;
  for (const SpanRec* w : windows) {
    evictions += w->num("evictions");
    refused += w->num("refused");
  }
  report.metric("service.evictions", evictions, "count");

  put("net.rpc_ms.hit", hits, dur, "ms");
  put("net.rpc_ms.cold", colds, dur, "ms");
  put("net.rpc_ms.near", nears, dur, "ms");
  const auto codecs = named("net.codec");
  put("net.codec_us", codecs, dur, "us", 1e3);
  put("net.request_bytes", codecs, num("request_bytes"), "bytes");
  put("net.response_bytes", codecs, num("response_bytes"), "bytes");
  put("net.transport_ms", hits, [&](const SpanRec& s) {
    double codec_ms = 0;
    for (const SpanRec* c : by_req[s.req]) {
      if (c->name == "net.codec") codec_ms += c->ms;
    }
    return s.ms - s.num("server_ms") - codec_ms;
  }, "ms");

  // -- runtime: the daemon's admission bucket ---------------------------------
  report.metric("runtime.admission_refused", refused, "count");

  // -- netsim: OGGP schedule vs brute force under both transport models -------
  put("netsim.execute_ms", named("netsim.execute", "transport", "paper_tcp"),
      dur, "ms");
  put("netsim.bruteforce_ms",
      named("netsim.bruteforce", "transport", "paper_tcp"), dur, "ms");
  for (const std::string_view model : {"paper_tcp", "ideal"}) {
    SampleSet redist;
    SampleSet brute;
    SampleSet ratio;
    SampleSet barrier_share;
    for (const auto& [req, members] : by_req) {
      double solve_s = -1;
      double sched_s = -1;
      double brute_s = -1;
      double barrier_s = 0;
      for (const SpanRec* s : members) {
        if (s->name == "kpbs.solve" && s->str("algo") == "oggp") {
          solve_s = s->ms / 1e3;
        } else if (s->name == "netsim.execute" && s->str("algo") == "oggp" &&
                   s->str("transport") == model) {
          sched_s = s->num("sim_s");
          barrier_s = s->num("barrier_s");
        } else if (s->name == "netsim.bruteforce" &&
                   s->str("transport") == model) {
          brute_s = s->num("sim_s");
        }
      }
      if (sched_s < 0 || brute_s <= 0 || solve_s < 0) continue;
      redist.add(solve_s + sched_s);
      brute.add(brute_s);
      ratio.add(sched_s / brute_s);
      barrier_share.add(sched_s > 0 ? barrier_s / sched_s : 0.0);
    }
    const std::string suffix(model);
    report.metric("netsim.redist_s." + suffix, median(redist), "s",
                  redist.count());
    report.metric("netsim.brute_s." + suffix, median(brute), "s",
                  brute.count());
    report.metric("netsim.sched_vs_brute." + suffix, median(ratio), "ratio",
                  ratio.count());
    if (model == "paper_tcp") {
      report.metric("netsim.barrier_share.paper_tcp", median(barrier_share),
                    "ratio", barrier_share.count());
    }
  }

  // -- mpilite and robust: socket runs ----------------------------------------
  const auto scheduled = named("mpilite.scheduled");
  const auto brute_runs = named("mpilite.bruteforce");
  put("mpilite.goodput_MBps", scheduled, [](const SpanRec& s) {
    return s.num("run_s") > 0 ? s.num("bytes") / s.num("run_s") / 1e6 : 0.0;
  }, "MB/s");
  put("mpilite.setup_share", scheduled, [](const SpanRec& s) {
    return s.ms > 0 ? (s.ms - 1e3 * s.num("run_s")) / s.ms : 0.0;
  }, "ratio");
  put("mpilite.steps", scheduled, num("steps"), "count");
  const double scheduled_ms = med(scheduled, dur);
  const double brute_ms = med(brute_runs, dur);
  report.metric("mpilite.sched_vs_brute",
                brute_ms > 0 ? scheduled_ms / brute_ms : 0.0, "ratio",
                brute_runs.size());
  const auto storms = named("robust.storm");
  const SpanRec* storm = storms.empty() ? nullptr : storms.back();
  const auto storm_num = [&](std::string_view key) {
    return storm == nullptr ? 0.0 : storm->num(key);
  };
  report.metric("robust.storm_overhead",
                storm != nullptr && scheduled_ms > 0 ? storm->ms / scheduled_ms
                                                     : 0.0,
                "ratio");
  report.metric("robust.attempts", storm_num("attempts"), "count");
  report.metric("robust.reschedules", storm_num("reschedules"), "count");
  report.metric("robust.link_retries", storm_num("link_retries"), "count");
  report.metric("robust.faults_injected", storm_num("faults"), "count");

  // -- obs ------------------------------------------------------------------
  report.metric("obs.trace_overhead_frac", tracing.overhead_frac(), "ratio",
                tracing.plain_ms.count() + tracing.traced_ms.count());
  report.metric("obs.spans", static_cast<double>(spans.size()), "count");
}

}  // namespace redist::e2e
