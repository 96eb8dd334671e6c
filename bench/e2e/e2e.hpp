// Shared vocabulary of the end-to-end benchmark (bench/e2e/README.md).
//
// redist_e2e times the library only from outside: every number comes from a
// Stopwatch or a benchmark-owned span around a call into a public function.
// Nothing here adds code to src/.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "redist.hpp"

namespace redist::e2e {

/// One invocation, as given on the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< length of the measurement window
  bool trace = false;   ///< per-layer run instead of the end-to-end one
  bool smoke = false;   ///< tiny inputs: the ctest smoke run

  /// Set-ups per run; setup_s is their median.
  int setup_repeats() const { return smoke ? 1 : 5; }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (1 for a count)
  bool detail = false;      ///< informational: not one of BENCHMARK.json's
};

/// What one run reports: its metrics and the tally of operations checked.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);
  /// A number printed and written to the result file but not gated.
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 1);

  /// Counts one checked operation; `ok == false` counts it failed and
  /// prints `what` to stderr (the first few failures only).
  void record(bool ok, const std::string& what);

  const std::vector<Metric>& metrics() const { return metrics_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The measurement window: open until `seconds` of wall time have passed;
/// the operation running at the deadline completes and is counted.
class Window {
 public:
  explicit Window(double seconds) : seconds_(seconds) {}
  bool open() const { return clock_.elapsed_seconds() < seconds_; }
  double elapsed_seconds() const { return clock_.elapsed_seconds(); }

 private:
  double seconds_;
  Stopwatch clock_;
};

/// Telemetry of a traced run: the benchmark's own span session, and the
/// registry the library's existing counters record into while installed.
/// The session is never installed globally, so no in-library span fires.
struct Tracing {
  obs::TraceSession session;
  obs::MetricsRegistry registry;
  SampleSet plain_ms;   ///< window operations run without telemetry
  SampleSet traced_ms;  ///< window operations run with it

  /// traced p50 / plain p50 - 1.
  double overhead_frac() const;
};

/// One window operation. In a traced run every other operation is
/// instrumented (registry installed, spans recorded) and the rest run
/// plain, so the two medians give the tracing overhead; untraced runs are
/// always plain.
class Instrument {
 public:
  Instrument(Tracing* tracing, std::uint64_t op);

  Instrument(const Instrument&) = delete;
  Instrument& operator=(const Instrument&) = delete;

  /// The session spans go to: null for a plain operation.
  obs::TraceSession* session() const {
    return on_ ? &tracing_->session : nullptr;
  }
  /// Files the operation's latency with the plain or the traced samples.
  void done(double ms);

 private:
  Tracing* tracing_;
  bool on_;
  std::optional<obs::ScopedTelemetry> telemetry_;
};

/// Host-speed probe. On a shared host, co-tenant load slows CPU-bound code
/// by up to ~60% for seconds to minutes at a time, which moves every
/// wall-clock median far more than a 10% regression would. The probe is a
/// fixed graph-search kernel that shares no code with the library; it runs
/// between operations throughout the run, and each CPU-bound sample is
/// scaled by (reference probe time / probe time around it), i.e. reported
/// in milliseconds at the reference host speed. Host slowdowns cancel; a
/// change to the library does not, because the probe runs no library code.
class HostProbe {
 public:
  HostProbe();

  /// Seconds since the probe's timeline started (any thread may call).
  double now() const { return clock_.elapsed_seconds(); }
  /// Runs the kernel once and records its time. Not thread-safe.
  void sample();
  /// sample() when at least 100 ms have passed since the last one.
  void maybe_sample();
  /// reference / median probe time within a second of `t` (or of the five
  /// nearest probes when fewer ran there).
  double speed_factor(double t) const;
  /// Median probe time over the run, and the number of probes.
  double median_ms() const;
  std::size_t samples() const { return samples_.size(); }

 private:
  Stopwatch clock_;
  std::vector<std::uint32_t> cycle_;
  std::vector<std::pair<double, double>> samples_;  // (t, ms)
};

/// One wall-clock sample and when it was taken on the probe's timeline.
/// Samples dominated by loopback bulk transfer (socket_mesh's runs) are not
/// scaled: they did not slow with the probe (their raw median stayed within
/// ±3% while the probe moved ±15%).
struct Timed {
  double t = 0;
  double value = 0;
  bool cpu_bound = true;
};

/// Runs `setup` `repeats` times, probing host speed around each, and
/// returns the wall time of each; the last repetition's state is the one
/// the run keeps.
std::vector<Timed> timed_setup(HostProbe& probe, int repeats, bool cpu_bound,
                               const std::function<void()>& setup);

/// What every workload measures end to end.
struct EndToEnd {
  HostProbe probe;
  std::vector<Timed> setup_s;
  std::vector<Timed> latency_ms;  ///< one sample per window operation
  std::vector<Timed> solve_ms;    ///< OGGP solve wall time
  double window_s = 0;
  RunningStats eval_ratio;  ///< OGGP cost / lower bound, per instance
};

/// The end-to-end metrics, wall-clock ones at the reference host speed; the
/// raw medians and operations per second go out as details. A traced run
/// reports them all as details: its window carries the tracing overhead.
void report_end_to_end(const EndToEnd& e2e, bool traced, Report& report);

/// A process-unique id for one operation or probe call; spans carry it as
/// `req` so everything one request caused can be joined.
std::int64_t next_req();

/// A benchmark span: an obs::TraceSpan on the benchmark's own session,
/// stamped with `id`, the enclosing span's id (`parent`) and `req` (given,
/// or inherited from the enclosing span). A null session records nothing.
class Span {
 public:
  Span(obs::TraceSession* session, const char* name, const char* layer,
       std::int64_t req = -1);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const char* key, std::int64_t v) { span_.arg(key, v); }
  void arg(const char* key, double v) { span_.arg(key, v); }
  void arg(const char* key, std::string_view v) { span_.arg(key, v); }

 private:
  obs::TraceSpan span_;
  std::int64_t parent_ = 0;
  std::int64_t parent_req_ = 0;
};

/// One scheduling instance: the byte-level traffic, the demand graph the
/// solver consumes (in units of `bytes_per_unit` bytes) and the solver
/// parameters.
struct Instance {
  TrafficMatrix traffic;
  BipartiteGraph demand;
  int k = 1;
  Weight beta = 1;
  double bytes_per_unit = 1;
};

SolverOptions oggp(const Instance& inst);
SolverOptions ggp(const Instance& inst);

/// solve_kpbs with OGGP (or GGP), timed into `ms` when given, inside a
/// "kpbs.solve" span carrying the algorithm, step count and ratio.
SolveResult timed_solve(obs::TraceSession* session, const Instance& inst,
                        bool bottleneck, double* ms = nullptr);

/// validate_schedule plus the 2x lower-bound check of ScheduleValidator.
bool schedule_ok(const BipartiteGraph& demand, const Schedule& s, int k,
                 Weight beta);

bool same_schedule(const Schedule& a, const Schedule& b);

/// The rpc.v1 request scheduling `inst` (demand weights travel as bytes).
rpc::SolveRequest solve_request(const Instance& inst);

/// The byte matrix a request carries, as the daemon keys and solves it.
TrafficMatrix request_matrix(const rpc::SolveRequest& req);

/// Dense n x n instance with `edges` distinct pairs of weight U[1, max]
/// (the scheduler daemon's unit of work, as in bench/service_cache).
Instance dense_instance(Rng& rng, NodeId n, int edges, Weight max_weight,
                        int k);

/// One rpc.v1 round trip: the response and the req id its spans carry.
struct RoundTrip {
  rpc::SolveResponse response;
  std::int64_t req = 0;
};

/// Sends `request`; with a session, records a "net.rpc" span (the
/// client-side latency) with the server time and provenance, or the error
/// code of a rethrown RpcRemoteError.
RoundTrip traced_solve(ClientSession& client, const rpc::SolveRequest& request,
                       obs::TraceSession* session);

/// Records a "net.codec" span for round trip `trip`: the encode and decode
/// of the same request/response pair, and their wire sizes. Kept out of the
/// round trip's latency.
void trace_codec(obs::TraceSession* session, const rpc::SolveRequest& request,
                 const RoundTrip& trip);

// ---------------------------------------------------------------------------
// Per-layer probes (layers.cpp). Each records spans into `session`; the
// per-layer metrics are computed from those spans alone by layer_metrics.

/// Decomposed GGP and OGGP solves: solve_kpbs, then regularize, wrgp_peel
/// (driven by a PeelingContext as wrgp_peel_warm drives it, with every
/// matching selection and ledger update timed) and kpbs_lower_bound. Reads
/// the existing matching counters from `registry`, which it installs.
void probe_solver(obs::TraceSession* session, obs::MetricsRegistry& registry,
                  const std::vector<Instance>& instances);

/// Cache keying (canonicalize + fingerprint) and SolveCache hit lookups;
/// with `rpc`, also a cold, an exact-hit and a near-miss (+1 byte on every
/// entry) round trip per instance against an in-process SchedulerService.
void probe_service(obs::TraceSession* session,
                   const std::vector<Instance>& instances, bool rpc);

/// The transport models the netsim layer is evaluated under.
FluidOptions paper_tcp(std::uint64_t seed);
FluidOptions ideal_transport();

/// OGGP and brute force through netsim under both transport models, on
/// the platform `platform_for` gives each instance.
void probe_netsim(obs::TraceSession* session,
                  const std::vector<Instance>& instances,
                  const std::function<Platform(const Instance&)>& platform_for);

/// The platform a demand unit maps to when the workload has none of its
/// own: cards move one unit per second, the backbone admits k of them, and
/// a barrier costs beta units.
Platform unit_platform(const Instance& inst);

/// OGGP and GGP solve time at each size of an instance family, for the
/// fitted exponent of solve time in n.
void probe_scaling(obs::TraceSession* session,
                   const std::function<Instance(NodeId n)>& family,
                   const std::vector<NodeId>& sizes, int repeats);

/// Every per-layer metric, computed from the session's spans. Layers the
/// workload never reached report 0.
void layer_metrics(const Tracing& tracing, Report& report);

// ---------------------------------------------------------------------------
// Workloads. Each runs set-up, the window and its correctness checks, then
// reports the end-to-end metrics, or with `tracing` the per-layer ones.

void run_paper_testbed(const RunConfig& cfg, Tracing* tracing, Report& report);
void run_sparse_giant(const RunConfig& cfg, Tracing* tracing, Report& report);
void run_daemon_mix(const RunConfig& cfg, Tracing* tracing, Report& report);
void run_socket_mesh(const RunConfig& cfg, Tracing* tracing, Report& report);

}  // namespace redist::e2e
