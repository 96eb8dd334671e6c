// daemon_mix — the scheduler daemon under a repeat-heavy request stream.
//
// An in-process SchedulerService with its shipped defaults (2 handlers,
// cache 64, admission 512 rps / burst 64). Two clients dialled with
// ClientSession::dial_rpc run a closed loop, each over a request sequence
// drawn from the seed before timing starts: 70% exact repeats of a
// 24-instance hot set solved during set-up, 15% near misses (a hot instance
// with every entry's bytes + d, d in [1, 50]) and 15% fresh instances.
// Instances are dense: n = 48, m = 1200, bytes U[1, 1000], k = 8. Hits are
// cache reads that bypass the solver; cold and near-miss requests are dense
// many-weight OGGP solves with many probes per step, the opposite matching
// regime to sparse_giant, and they insert into (and evict from) the cache.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "e2e.hpp"

namespace redist::e2e {

namespace {

constexpr int kClients = 2;
constexpr std::size_t kDraws = std::size_t{1} << 16;
constexpr std::size_t kNearChecks = 8;

struct Shape {
  NodeId n = 48;
  int edges = 1200;
  Weight max_bytes = 1000;
  int k = 8;
  std::int64_t hot = 24;
};

enum class Kind : std::uint8_t { kHit, kNear, kFresh };

// One request of a client's sequence, drawn before timing starts.
struct Draw {
  Kind kind = Kind::kHit;
  std::int64_t hot = 0;  // hot-set index (hit, near)
  Weight d = 0;          // near-miss drift
  std::uint64_t fresh_seed = 0;

  // Requests with equal keys carry the same instance.
  std::pair<int, std::uint64_t> key() const {
    if (kind == Kind::kFresh) return {2, fresh_seed};
    const Weight drift = kind == Kind::kNear ? d : 0;
    return {static_cast<int>(kind),
            static_cast<std::uint64_t>(hot * 64 + drift)};
  }
};

// What a client saw for one request.
struct Answer {
  Draw draw;
  bool ok = false;
  std::string error;   // the exception that ended the request, if any
  int refusals = 0;    // admission refusals before it was answered
  bool traced = false;
  double t = 0;        // when it was sent, on the host probe's timeline
  rpc::ServedFrom served_from = rpc::ServedFrom::kCold;
  double latency_ms = 0;
  double server_ms = 0;
  std::uint64_t schedule_hash = 0;
  std::string schedule_text;  // warm near misses only, for the re-solve check
};

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<Draw> draw_sequence(Rng& rng, const Shape& shape) {
  std::vector<Draw> draws(kDraws);
  for (Draw& d : draws) {
    const std::int64_t u = rng.uniform_int(0, 99);
    d.kind = u < 70 ? Kind::kHit : u < 85 ? Kind::kNear : Kind::kFresh;
    d.hot = rng.uniform_int(0, shape.hot - 1);
    d.d = rng.uniform_int(1, 50);
    d.fresh_seed = rng.next();
  }
  return draws;
}

rpc::SolveRequest build(const Draw& d, const Shape& shape,
                        const std::vector<rpc::SolveRequest>& hot) {
  if (d.kind == Kind::kFresh) {
    Rng rng(d.fresh_seed);
    return solve_request(
        dense_instance(rng, shape.n, shape.edges, shape.max_bytes, shape.k));
  }
  rpc::SolveRequest req = hot[static_cast<std::size_t>(d.hot)];
  if (d.kind == Kind::kNear) {
    for (rpc::TrafficEntry& e : req.entries) e.bytes += d.d;
  }
  return req;
}

// Runs f(0) .. f(n - 1) on n threads, joins them all, then rethrows the
// first failure.
void on_threads(int n, const std::function<void(int)>& f) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      try {
        f(c);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Lets the probe thread run the host probe with no request in flight, so
// that it measures the host rather than the daemon's solves beside it.
class Gate {
 public:
  // Held by a client around one request; waits while the gate is closed.
  class Pass {
   public:
    explicit Pass(Gate& gate) : gate_(gate) {
      std::unique_lock lock(gate_.mu_);
      gate_.cv_.wait(lock, [&] { return gate_.open_; });
      ++gate_.inside_;
    }
    ~Pass() {
      {
        const std::lock_guard lock(gate_.mu_);
        --gate_.inside_;
      }
      gate_.cv_.notify_all();
    }

    Pass(const Pass&) = delete;
    Pass& operator=(const Pass&) = delete;

   private:
    Gate& gate_;
  };

  // Closes the gate, waits for the passes in flight to end, runs `f` and
  // reopens the gate, also when `f` throws.
  void alone(const std::function<void()>& f) {
    std::unique_lock lock(mu_);
    open_ = false;
    cv_.wait(lock, [&] { return inside_ == 0; });
    lock.unlock();
    std::exception_ptr error;
    try {
      f();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    open_ = true;
    lock.unlock();
    cv_.notify_all();
    if (error) std::rethrow_exception(error);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int inside_ = 0;
};

// Sends one request and checks what can be checked on the spot. Admission
// refusals are retried after 1 ms, as the daemon asks clients to, and the
// latency includes those waits.
Answer ask(ClientSession& client, const Draw& draw, rpc::SolveRequest request,
           obs::TraceSession* session,
           const std::vector<rpc::SolveResponse>& hot_answers) {
  Answer a;
  a.draw = draw;
  try {
    const Stopwatch timer;
    std::optional<RoundTrip> trip;
    while (!trip) {
      try {
        trip = traced_solve(client, request, session);
      } catch (const RpcRemoteError& e) {
        if (e.response().code != rpc::RpcErrorCode::kRateLimited) throw;
        ++a.refusals;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    a.latency_ms = timer.elapsed_ms();
    trace_codec(session, request, *trip);
    const rpc::SolveResponse& response = trip->response;
    a.served_from = response.served_from;
    a.server_ms = response.solve_ms;
    a.schedule_hash = fnv1a(response.schedule_text);
    a.ok = response.request_id == request.request_id;
    if (draw.kind == Kind::kHit) {
      const auto h = static_cast<std::size_t>(draw.hot);
      a.ok = a.ok && response.schedule_text == hot_answers[h].schedule_text;
    } else if (draw.kind == Kind::kNear &&
               response.served_from == rpc::ServedFrom::kWarmNearMiss) {
      a.schedule_text = response.schedule_text;
    }
  } catch (const Error& e) {
    a.error = e.what();
  }
  return a;
}

// A warm-seeded near miss must equal an unseeded solve of its instance.
bool matches_unseeded(const rpc::SolveRequest& request,
                      const std::string& schedule_text) {
  const SolverOptions options{request.k, request.beta, Algorithm::kOGGP};
  return schedule_to_string(
             solve_kpbs(request_matrix(request).to_graph_bytes(), options)
                 .schedule) == schedule_text;
}

}  // namespace

void run_daemon_mix(const RunConfig& cfg, Tracing* tracing, Report& report) {
  Shape shape;
  if (cfg.smoke) {
    shape.n = 24;
    shape.edges = 300;
    shape.hot = 4;
  }
  const auto hot_count = static_cast<std::size_t>(shape.hot);

  // Set-up: the daemon, two connections, and the hot set solved cold — its
  // answers are the references every later hit must equal byte for byte.
  EndToEnd e2e;
  std::unique_ptr<service::SchedulerService> daemon;
  // Earlier set-ups' daemons, stopped only after the timed set-ups: stop()
  // waits out the accept poll (up to 100 ms), which is not set-up work.
  std::vector<std::unique_ptr<service::SchedulerService>> retired;
  std::vector<ClientSession> clients;
  std::vector<Instance> hot;
  std::vector<rpc::SolveRequest> hot_requests;
  std::vector<rpc::SolveResponse> hot_answers;
  e2e.setup_s = timed_setup(e2e.probe, cfg.setup_repeats(), true, [&] {
    clients.clear();
    if (daemon) retired.push_back(std::move(daemon));
    daemon = std::make_unique<service::SchedulerService>();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(ClientSession::dial_rpc(daemon->port()));
    }
    Rng rng(cfg.seed);
    hot.clear();
    hot_requests.clear();
    for (std::size_t i = 0; i < hot_count; ++i) {
      hot.push_back(
          dense_instance(rng, shape.n, shape.edges, shape.max_bytes, shape.k));
      hot_requests.push_back(solve_request(hot.back()));
    }
    hot_answers.assign(hot_count, rpc::SolveResponse{});
    // Each client takes the next unsolved instance, so that neither waits
    // on the other's harder share.
    std::atomic<std::size_t> next{0};
    on_threads(kClients, [&](int c) {
      for (std::size_t i = next++; i < hot_count; i = next++) {
        hot_answers[i] =
            clients[static_cast<std::size_t>(c)].solve(hot_requests[i]);
      }
    });
  });
  retired.clear();
  for (const rpc::SolveResponse& answer : hot_answers) {
    report.record(answer.served_from == rpc::ServedFrom::kCold,
                  "daemon_mix: hot-set fill was not served cold");
    e2e.eval_ratio.add(answer.evaluation_ratio);
  }

  std::vector<std::vector<Draw>> draws;
  Rng draw_rng(cfg.seed ^ 0xD1A9ULL);
  for (int c = 0; c < kClients; ++c) {
    draws.push_back(draw_sequence(draw_rng, shape));
  }

  // The window: two closed-loop clients, and a third thread that every
  // 250 ms runs the host probe alone between requests and, in a traced run,
  // switches telemetry on or off.
  std::vector<std::vector<Answer>> logs(kClients);
  std::atomic<bool> instrumented{false};
  Gate gate;
  const std::size_t entries_before = daemon->cache().entry_count();
  const Window window(cfg.seconds);
  on_threads(kClients + 1, [&](int c) {
    if (c == kClients) {
      std::optional<obs::ScopedTelemetry> telemetry;
      while (window.open()) {
        if (tracing != nullptr) {
          if (telemetry) {
            telemetry.reset();
          } else {
            telemetry.emplace(&tracing->registry, nullptr);
          }
          instrumented.store(telemetry.has_value());
        }
        gate.alone([&] { e2e.probe.sample(); });
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
      instrumented.store(false);
      return;
    }
    const auto client = static_cast<std::size_t>(c);
    for (std::size_t j = 0; window.open(); ++j) {
      const Draw& draw = draws[client][j % kDraws];
      rpc::SolveRequest request = build(draw, shape, hot_requests);
      request.request_id = (static_cast<std::uint64_t>(c) << 40) | j;
      std::optional<Gate::Pass> pass(gate);
      const bool traced = instrumented.load();
      const double t = e2e.probe.now();
      Answer a = ask(clients[client], draw, std::move(request),
                     traced ? &tracing->session : nullptr, hot_answers);
      pass.reset();
      a.t = t;
      a.traced = traced;
      logs[client].push_back(std::move(a));
    }
  });
  e2e.window_s = window.elapsed_seconds();
  const std::size_t entries_after = daemon->cache().entry_count();
  clients.clear();
  daemon.reset();

  // Checks and samples, outside the window.
  std::size_t refused = 0;
  std::size_t inserts = 0;
  std::size_t near_checked = 0;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> first_hash;
  for (const std::vector<Answer>& log : logs) {
    for (const Answer& a : log) {
      refused += static_cast<std::size_t>(a.refusals);
      bool ok = a.ok;
      if (ok) {
        // Even the cache-hit round trips slowed with the host probe (22%
        // over a 23% probe change across runs), unlike socket_mesh's bulk
        // transfers, so every request is a CPU-bound sample.
        e2e.latency_ms.push_back(Timed{a.t, a.latency_ms});
        const bool solved = a.served_from != rpc::ServedFrom::kCacheHit;
        if (tracing != nullptr) {
          (a.traced ? tracing->traced_ms : tracing->plain_ms)
              .add(a.latency_ms);
        }
        if (solved) {
          e2e.solve_ms.push_back(Timed{a.t, a.server_ms});
          ++inserts;
        }
        // Every repeat of one near-miss or fresh instance must agree.
        ok = first_hash.emplace(a.draw.key(), a.schedule_hash)
                 .first->second == a.schedule_hash;
        if (ok && !a.schedule_text.empty() && near_checked < kNearChecks) {
          ++near_checked;
          ok = matches_unseeded(build(a.draw, shape, hot_requests),
                                a.schedule_text);
        }
      }
      report.record(ok, "daemon_mix: wrong or failed answer" +
                            (a.error.empty() ? "" : ": " + a.error));
    }
  }

  report_end_to_end(e2e, tracing != nullptr, report);
  if (tracing == nullptr) return;
  {
    Span span(&tracing->session, "service.window", "service", next_req());
    span.arg("evictions", static_cast<std::int64_t>(inserts) -
                              static_cast<std::int64_t>(entries_after) +
                              static_cast<std::int64_t>(entries_before));
    span.arg("refused", static_cast<std::int64_t>(refused));
  }
  const std::vector<Instance> sample(
      hot.begin(), hot.begin() + std::min<std::ptrdiff_t>(8, shape.hot));
  probe_solver(&tracing->session, tracing->registry, sample);
  probe_service(&tracing->session, sample, false);
  // The same density at n / 2, and at n / 4 and n for the exponent.
  Rng family_rng(cfg.seed ^ 0xFA111ULL);
  const auto family = [&](NodeId n) {
    const double density = static_cast<double>(shape.edges) /
                           static_cast<double>(shape.n * shape.n);
    const double edges = density * static_cast<double>(n * n);
    return dense_instance(family_rng, n, static_cast<int>(edges),
                          shape.max_bytes, shape.k);
  };
  // Brute-force fluid simulation of 1200 flows under the TCP model takes
  // seconds per instance, so netsim runs on the n / 2 member.
  std::vector<Instance> halves;
  for (int i = 0; i < 4; ++i) halves.push_back(family(shape.n / 2));
  probe_netsim(&tracing->session, halves, unit_platform);
  probe_scaling(&tracing->session, family,
                {shape.n / 4, shape.n / 2, shape.n}, 3);
  layer_metrics(*tracing, report);
}

}  // namespace redist::e2e
