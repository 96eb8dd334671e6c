#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <numeric>

#include "e2e.hpp"

namespace redist::e2e {

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples, false});
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples, true});
}

void Report::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) {
    failures_.push_back(what);
    std::cerr << "FAIL: " << what << '\n';
  }
}

double Tracing::overhead_frac() const {
  if (plain_ms.count() == 0 || traced_ms.count() == 0) return 0;
  return traced_ms.percentile(50) / plain_ms.percentile(50) - 1.0;
}

Instrument::Instrument(Tracing* tracing, std::uint64_t op)
    : tracing_(tracing), on_(tracing != nullptr && op % 2 == 1) {
  if (on_) telemetry_.emplace(&tracing_->registry, nullptr);
}

void Instrument::done(double ms) {
  if (tracing_ == nullptr) return;
  (on_ ? tracing_->traced_ms : tracing_->plain_ms).add(ms);
}

namespace {

// The probe: breadth-first searches over a freshly allocated random graph,
// then a dependent walk around a random cycle. Graph code and allocation
// like the library's, but none of its code. Chosen among sort, pointer
// chase, hash, map and BFS kernels as the one whose slowdowns track the
// workloads' best (log-log slope ~1.1 against paper_testbed and dense OGGP
// operations over three minutes of co-tenant load).
constexpr std::int32_t kProbeNodes = 20'000;
constexpr int kProbeDegree = 4;
constexpr int kProbeSources = 8;
constexpr std::size_t kProbeCycle = std::size_t{1} << 16;
constexpr int kProbeSteps = 400'000;
// The probe's median time on the reference host (4-vCPU Xeon KVM guest,
// RelWithDebInfo, quiet): the speed every wall-clock metric is scaled to.
constexpr double kReferenceProbeMs = 8.0;

// Returns a checksum of the searches and the walk.
std::uint64_t probe_kernel(const std::vector<std::uint32_t>& cycle) {
  Rng rng(0x5EED);
  std::vector<std::vector<std::int32_t>> adjacent(kProbeNodes);
  for (std::vector<std::int32_t>& out : adjacent) {
    for (int d = 0; d < kProbeDegree; ++d) {
      out.push_back(static_cast<std::int32_t>(
          rng.uniform_int(0, kProbeNodes - 1)));
    }
  }
  std::vector<std::int32_t> dist(kProbeNodes);
  std::vector<std::int32_t> queue;
  queue.reserve(kProbeNodes);
  std::uint64_t sum = 0;
  for (std::int32_t source = 0; source < kProbeSources; ++source) {
    std::fill(dist.begin(), dist.end(), -1);
    queue.assign(1, source);
    dist[static_cast<std::size_t>(source)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto v = static_cast<std::size_t>(queue[head]);
      for (const std::int32_t u : adjacent[v]) {
        if (dist[static_cast<std::size_t>(u)] >= 0) continue;
        dist[static_cast<std::size_t>(u)] = dist[v] + 1;
        queue.push_back(u);
      }
    }
    sum += queue.size();
  }
  std::uint32_t at = 0;
  for (int step = 0; step < kProbeSteps; ++step) at = cycle[at];
  return sum + at;
}

// A random cyclic permutation (Sattolo's algorithm).
std::vector<std::uint32_t> random_cycle(std::size_t n) {
  std::vector<std::uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0U);
  Rng rng(0xC7C1E);
  for (std::size_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(next[i], next[j]);
  }
  return next;
}

double median_of(std::vector<double> xs) {
  if (xs.empty()) return 0;
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

}  // namespace

HostProbe::HostProbe() : cycle_(random_cycle(kProbeCycle)) {}

void HostProbe::sample() {
  const double t = now();
  const Stopwatch timer;
  const std::uint64_t sum = probe_kernel(cycle_);
  const double ms = timer.elapsed_ms();
  // The kernel is deterministic; checking its checksum also keeps the
  // compiler from discarding it.
  static const std::uint64_t expected = sum;
  if (sum != expected) throw Error("host probe checksum changed");
  samples_.emplace_back(t, ms);
}

double HostProbe::median_ms() const {
  std::vector<double> ms;
  for (const auto& sample : samples_) ms.push_back(sample.second);
  return median_of(std::move(ms));
}

void HostProbe::maybe_sample() {
  if (samples_.empty() || now() - samples_.back().first >= 0.1) sample();
}

double HostProbe::speed_factor(double t) const {
  if (samples_.empty()) return 1.0;
  std::vector<double> near;
  for (const auto& [ts, ms] : samples_) {
    if (ts >= t - 1.0 && ts <= t + 1.0) near.push_back(ms);
  }
  if (near.size() < 3) {
    std::vector<std::pair<double, double>> by_distance;
    for (const auto& [ts, ms] : samples_) {
      by_distance.emplace_back(std::abs(ts - t), ms);
    }
    const std::size_t k = std::min<std::size_t>(5, by_distance.size());
    std::partial_sort(by_distance.begin(),
                      by_distance.begin() + static_cast<std::ptrdiff_t>(k),
                      by_distance.end());
    near.clear();
    for (std::size_t i = 0; i < k; ++i) near.push_back(by_distance[i].second);
  }
  return kReferenceProbeMs / median_of(near);
}

std::vector<Timed> timed_setup(HostProbe& probe, int repeats, bool cpu_bound,
                               const std::function<void()>& setup) {
  // Three probes between set-ups, so that the median near each one
  // outvotes a single slow probe.
  const auto probe_thrice = [&] {
    for (int p = 0; p < 3; ++p) probe.sample();
  };
  std::vector<Timed> seconds;
  probe_thrice();
  for (int r = 0; r < repeats; ++r) {
    const double t = probe.now();
    const Stopwatch timer;
    setup();
    seconds.push_back(Timed{t, timer.elapsed_seconds(), cpu_bound});
    probe_thrice();
  }
  return seconds;
}

namespace {

// Raw and host-speed-scaled samples of one quantity.
struct Scaled {
  SampleSet raw;
  SampleSet scaled;
};

Scaled scale(const HostProbe& probe, const std::vector<Timed>& samples) {
  Scaled out;
  for (const Timed& s : samples) {
    out.raw.add(s.value);
    out.scaled.add(s.cpu_bound ? s.value * probe.speed_factor(s.t) : s.value);
  }
  return out;
}

}  // namespace

void report_end_to_end(const EndToEnd& e2e, bool traced, Report& report) {
  const Scaled setup = scale(e2e.probe, e2e.setup_s);
  const Scaled latency = scale(e2e.probe, e2e.latency_ms);
  const Scaled solve = scale(e2e.probe, e2e.solve_ms);
  const std::size_t ops = latency.raw.count();
  const std::size_t setups = setup.raw.count();
  const std::size_t solves = solve.raw.count();
  const auto gated = [&](const std::string& name, double value,
                         const std::string& unit, std::size_t samples) {
    if (traced) {
      report.detail(name, value, unit, samples);
    } else {
      report.metric(name, value, unit, samples);
    }
  };
  gated("setup_s", setup.scaled.percentile(50), "s", setups);
  gated("latency_p50_ms", latency.scaled.percentile(50), "ms", ops);
  gated("latency_p90_ms", latency.scaled.percentile(90), "ms", ops);
  gated("solve_ms", solve.scaled.percentile(50), "ms", solves);
  gated("eval_ratio", e2e.eval_ratio.mean(), "ratio",
        e2e.eval_ratio.count());
  report.detail("raw.setup_s", setup.raw.percentile(50), "s", setups);
  report.detail("raw.latency_p50_ms", latency.raw.percentile(50), "ms", ops);
  report.detail("raw.latency_p90_ms", latency.raw.percentile(90), "ms", ops);
  report.detail("raw.solve_ms", solve.raw.percentile(50), "ms", solves);
  report.detail("raw.throughput_per_s",
                static_cast<double>(ops) / e2e.window_s, "1/s", ops);
  report.detail("host.probe_ms", e2e.probe.median_ms(), "ms",
                e2e.probe.samples());
}

std::int64_t next_req() {
  static std::atomic<std::int64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

// The innermost open span of this thread: its id and its req.
struct SpanContext {
  std::int64_t id = 0;
  std::int64_t req = 0;
};

SpanContext& current_span() {
  thread_local SpanContext context;
  return context;
}

}  // namespace

Span::Span(obs::TraceSession* session, const char* name, const char* layer,
           std::int64_t req)
    : span_(session, name, layer) {
  if (!span_) return;
  static std::atomic<std::int64_t> next_id{1};
  SpanContext& context = current_span();
  parent_ = context.id;
  parent_req_ = context.req;
  context.id = next_id.fetch_add(1, std::memory_order_relaxed);
  if (req >= 0) context.req = req;
  span_.arg("id", context.id);
  span_.arg("parent", parent_);
  span_.arg("req", context.req);
}

Span::~Span() {
  if (!span_) return;
  current_span() = SpanContext{parent_, parent_req_};
}

SolverOptions oggp(const Instance& inst) {
  return SolverOptions{inst.k, inst.beta, Algorithm::kOGGP};
}

SolverOptions ggp(const Instance& inst) {
  return SolverOptions{inst.k, inst.beta, Algorithm::kGGP};
}

SolveResult timed_solve(obs::TraceSession* session, const Instance& inst,
                        bool bottleneck, double* ms) {
  Span span(session, "kpbs.solve", "kpbs");
  const Stopwatch timer;
  SolveResult result =
      solve_kpbs(inst.demand, bottleneck ? oggp(inst) : ggp(inst));
  if (ms != nullptr) *ms = timer.elapsed_ms();
  span.arg("algo", std::string_view(bottleneck ? "oggp" : "ggp"));
  span.arg("steps", static_cast<std::int64_t>(result.schedule.step_count()));
  span.arg("eval_ratio", result.evaluation_ratio);
  return result;
}

bool schedule_ok(const BipartiteGraph& demand, const Schedule& s, int k,
                 Weight beta) {
  const int clamped = clamp_k(demand, k);
  if (!schedule_is_valid(demand, s, clamped)) return false;
  ScheduleValidatorOptions options;
  options.k = clamped;
  options.beta = beta;
  options.check_approximation_bound = true;
  return ScheduleValidator(options).validate(demand, s).ok();
}

bool same_schedule(const Schedule& a, const Schedule& b) {
  if (a.step_count() != b.step_count()) return false;
  for (std::size_t i = 0; i < a.step_count(); ++i) {
    const std::vector<Communication>& x = a.steps()[i].comms;
    const std::vector<Communication>& y = b.steps()[i].comms;
    if (x.size() != y.size()) return false;
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (x[j].sender != y[j].sender || x[j].receiver != y[j].receiver ||
          x[j].amount != y[j].amount) {
        return false;
      }
    }
  }
  return true;
}

rpc::SolveRequest solve_request(const Instance& inst) {
  rpc::SolveRequest req;
  req.k = inst.k;
  req.beta = inst.beta;
  req.senders = inst.demand.left_count();
  req.receivers = inst.demand.right_count();
  for (EdgeId e = 0; e < inst.demand.edge_count(); ++e) {
    if (!inst.demand.alive(e)) continue;
    const Edge& edge = inst.demand.edge(e);
    req.entries.push_back({edge.left, edge.right, edge.weight});
  }
  return req;
}

TrafficMatrix request_matrix(const rpc::SolveRequest& req) {
  TrafficMatrix matrix(req.senders, req.receivers);
  for (const rpc::TrafficEntry& e : req.entries) {
    matrix.add(e.sender, e.receiver, e.bytes);
  }
  return matrix;
}

Instance dense_instance(Rng& rng, NodeId n, int edges, Weight max_weight,
                        int k) {
  std::vector<std::int64_t> pairs(static_cast<std::size_t>(n) *
                                  static_cast<std::size_t>(n));
  std::iota(pairs.begin(), pairs.end(), 0);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  const auto m = std::min(static_cast<std::size_t>(edges), pairs.size());
  TrafficMatrix traffic(n, n);
  for (std::size_t i = 0; i < m; ++i) {
    traffic.set(static_cast<NodeId>(pairs[i] / n),
                static_cast<NodeId>(pairs[i] % n),
                rng.uniform_int(1, max_weight));
  }
  BipartiteGraph demand = traffic.to_graph_bytes();
  return Instance{std::move(traffic), std::move(demand), k, 1, 1.0};
}

RoundTrip traced_solve(ClientSession& client, const rpc::SolveRequest& request,
                       obs::TraceSession* session) {
  RoundTrip trip;
  trip.req = next_req();
  Span span(session, "net.rpc", "net", trip.req);
  try {
    trip.response = client.solve(request);
  } catch (const RpcRemoteError& e) {
    span.arg("error",
             std::string_view(rpc::rpc_error_code_name(e.response().code)));
    throw;
  }
  span.arg("served_from",
           std::string_view(rpc::served_from_name(trip.response.served_from)));
  span.arg("server_ms", trip.response.solve_ms);
  return trip;
}

void trace_codec(obs::TraceSession* session, const rpc::SolveRequest& request,
                 const RoundTrip& trip) {
  if (session == nullptr) return;
  Span codec(session, "net.codec", "net", trip.req);
  std::vector<char> wire_request;
  std::vector<char> wire_response;
  rpc::encode_solve_request(wire_request, request);
  rpc::encode_solve_response(wire_response, trip.response);
  (void)rpc::decode_solve_request(wire_request);
  (void)rpc::decode_solve_response(wire_response);
  codec.arg("request_bytes", static_cast<std::int64_t>(wire_request.size()));
  codec.arg("response_bytes",
            static_cast<std::int64_t>(wire_response.size()));
}

FluidOptions paper_tcp(std::uint64_t seed) {
  FluidOptions tcp;
  tcp.congestion_alpha = 0.08;
  tcp.jitter_stddev = 0.03;
  tcp.unfairness_stddev = 0.8;
  tcp.seed = seed;
  return tcp;
}

FluidOptions ideal_transport() { return FluidOptions{}; }

Platform unit_platform(const Instance& inst) {
  const double t = inst.bytes_per_unit;
  return heterogeneous_platform(
      inst.demand.left_count(), inst.demand.right_count(), t, t,
      static_cast<double>(clamp_k(inst.demand, inst.k)) * t,
      static_cast<double>(inst.beta), {}, {});
}

}  // namespace redist::e2e
