// SchedulerService + SolveCache semantics: exact cache hits are
// bit-identical replays of the original solve, near-miss warm seeding
// never changes a schedule byte (proven against unseeded cold solves over
// the golden corpus), LFU eviction keeps the hot entries, admission
// control answers typed rate-limit errors, and a concurrent submit storm
// over real sockets is data-race-free (the TSan job runs this file).
#include "service/scheduler_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "graph/graphio.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"
#include "net/client_session.hpp"
#include "obs/introspect.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "robust/retry.hpp"
#include "service/fingerprint.hpp"
#include "service/solve_cache.hpp"
#include "validate/schedule_validator.hpp"

#ifndef REDIST_TEST_DATA_DIR
#error "REDIST_TEST_DATA_DIR must point at tests/data"
#endif

namespace redist::service {
namespace {

BipartiteGraph load_golden(const std::string& file) {
  const std::string path = std::string(REDIST_TEST_DATA_DIR) + "/" + file;
  std::ifstream in(path);
  if (!in) throw Error("cannot open golden instance: " + path);
  return read_graph(in);
}

/// Request carrying the graph's demands verbatim (weight == bytes).
rpc::SolveRequest request_from_graph(const BipartiteGraph& g, int k,
                                     Weight beta) {
  rpc::SolveRequest req;
  req.k = k;
  req.beta = beta;
  req.senders = g.left_count();
  req.receivers = g.right_count();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    req.entries.push_back(
        {edge.left, edge.right, static_cast<Bytes>(edge.weight)});
  }
  return req;
}

/// The daemon's exact solver input for `req`, for ground-truth solves.
BipartiteGraph graph_of_request(const rpc::SolveRequest& req) {
  TrafficMatrix m(req.senders, req.receivers);
  for (const rpc::TrafficEntry& e : req.entries) {
    m.add(e.sender, e.receiver, e.bytes);
  }
  return m.to_graph_bytes();
}

TEST(SolveCacheTest, ExactHitIsBitIdenticalToTheOriginalSolve) {
  SchedulerService daemon;
  rpc::SolveRequest req = request_from_graph(load_golden("golden_02.graph"),
                                             /*k=*/4, /*beta=*/1);
  req.request_id = 1;
  const rpc::SolveResponse cold = daemon.serve_solve(req);
  EXPECT_EQ(cold.served_from, rpc::ServedFrom::kCold);

  // Ground truth: the daemon's answer must equal a direct library solve of
  // the same instance, byte for byte.
  const SolveResult direct =
      solve_kpbs(graph_of_request(req), {req.k, req.beta, req.algorithm});
  EXPECT_EQ(cold.schedule_text, schedule_to_string(direct.schedule));
  EXPECT_EQ(cold.lb_min_steps, direct.lower_bound.min_steps);
  EXPECT_EQ(cold.lb_num, direct.lower_bound.min_transmission.num());
  EXPECT_EQ(cold.lb_den, direct.lower_bound.min_transmission.den());

  // Replay: same instance, new request identity — served from cache with
  // every solver-derived byte identical.
  req.request_id = 2;
  const rpc::SolveResponse hit = daemon.serve_solve(req);
  EXPECT_EQ(hit.served_from, rpc::ServedFrom::kCacheHit);
  EXPECT_EQ(hit.request_id, 2u);
  EXPECT_EQ(hit.schedule_text, cold.schedule_text);
  EXPECT_EQ(hit.lb_min_steps, cold.lb_min_steps);
  EXPECT_EQ(hit.lb_num, cold.lb_num);
  EXPECT_EQ(hit.lb_den, cold.lb_den);
  EXPECT_EQ(hit.evaluation_ratio, cold.evaluation_ratio);
  EXPECT_EQ(hit.solve_id, cold.solve_id);
  EXPECT_EQ(daemon.cache().entry_count(), 1u);
  daemon.stop();
}

TEST(SolveCacheTest, EntryOrderDoesNotChangeTheFingerprint) {
  // The wire order of traffic entries is client-chosen; the canonical form
  // (row-major matrix scan) must erase it.
  rpc::SolveRequest forward = request_from_graph(
      load_golden("golden_03.graph"), /*k=*/4, /*beta=*/1);
  rpc::SolveRequest reversed = forward;
  std::reverse(reversed.entries.begin(), reversed.entries.end());

  SchedulerService daemon;
  forward.request_id = 1;
  reversed.request_id = 2;
  const rpc::SolveResponse first = daemon.serve_solve(forward);
  const rpc::SolveResponse second = daemon.serve_solve(reversed);
  EXPECT_EQ(first.served_from, rpc::ServedFrom::kCold);
  EXPECT_EQ(second.served_from, rpc::ServedFrom::kCacheHit);
  EXPECT_EQ(second.schedule_text, first.schedule_text);
  daemon.stop();
}

TEST(SolveCacheTest, FingerprintSeparatesShapeFromWeights) {
  TrafficMatrix m(3, 3);
  m.add(0, 1, 100);
  m.add(2, 0, 50);
  const SolverOptions options{4, 1, Algorithm::kOGGP};

  TrafficMatrix drifted(3, 3);
  drifted.add(0, 1, 120);  // same positions, different volumes
  drifted.add(2, 0, 50);

  const CanonicalInstance a = canonicalize(m, options);
  const CanonicalInstance b = canonicalize(drifted, options);
  const InstanceFingerprint fa = fingerprint_instance(a);
  const InstanceFingerprint fb = fingerprint_instance(b);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_EQ(a.weight_distance(b), 20);
  EXPECT_EQ(fa.shape, fb.shape);
  EXPECT_NE(fa.full, fb.full);

  // Any solver-option change is a different shape (and full) fingerprint:
  // cached results are only reusable under identical options.
  SolverOptions other_k = options;
  other_k.k = 5;
  const InstanceFingerprint fk = fingerprint_instance(canonicalize(m, other_k));
  EXPECT_NE(fk.shape, fa.shape);
  EXPECT_NE(fk.full, fa.full);

  // A different position with identical total volume is a different shape.
  TrafficMatrix moved(3, 3);
  moved.add(0, 2, 100);
  moved.add(2, 0, 50);
  const InstanceFingerprint fm =
      fingerprint_instance(canonicalize(moved, options));
  EXPECT_NE(fm.shape, fa.shape);
}

TEST(SolveCacheTest, WarmNearMissMatchesColdSolveOnGoldenCorpus) {
  // The load-bearing warm-path property: a near-miss solve (warm-seeded
  // from the nearest cached shape sibling) must emit the same schedule an
  // unseeded solve of the same instance would — same bytes, same makespan —
  // and the schedule must validate. Proven across the golden corpus.
  const char* corpus[] = {"golden_02.graph", "golden_03.graph",
                          "golden_07.graph", "golden_09.graph",
                          "golden_11.graph", "golden_13.graph"};
  obs::MetricsRegistry registry;
  obs::Journal journal(4096);
  obs::ScopedTelemetry telemetry(&registry, nullptr);
  obs::ScopedJournal scoped_journal(&journal);

  SchedulerService daemon;
  std::uint64_t request_id = 0;
  for (const char* file : corpus) {
    const BipartiteGraph g = load_golden(file);
    rpc::SolveRequest base = request_from_graph(g, /*k=*/4, /*beta=*/1);
    base.request_id = ++request_id;
    ASSERT_EQ(daemon.serve_solve(base).served_from, rpc::ServedFrom::kCold)
        << file;

    // Drift every volume by +1: same shape, different full fingerprint.
    rpc::SolveRequest drifted = base;
    drifted.request_id = ++request_id;
    for (rpc::TrafficEntry& e : drifted.entries) e.bytes += 1;

    const rpc::SolveResponse warm = daemon.serve_solve(drifted);
    EXPECT_EQ(warm.served_from, rpc::ServedFrom::kWarmNearMiss) << file;

    const BipartiteGraph drifted_graph = graph_of_request(drifted);
    const SolveResult cold = solve_kpbs(
        drifted_graph, {drifted.k, drifted.beta, drifted.algorithm});
    EXPECT_EQ(warm.schedule_text, schedule_to_string(cold.schedule)) << file;

    const Schedule schedule = schedule_from_string(warm.schedule_text);
    EXPECT_EQ(schedule.cost(drifted.beta), cold.schedule.cost(drifted.beta))
        << file;
    ScheduleValidatorOptions options;
    options.k = clamp_k(drifted_graph, drifted.k);
    options.beta = drifted.beta;
    EXPECT_TRUE(
        ScheduleValidator(options).validate(drifted_graph, schedule).ok())
        << file;
  }
  daemon.stop();

  // The warm path is observable: near-miss counters, installed-seed
  // counters and kCacheWarmSeed journal events all fired once per file.
  std::uint64_t near_misses = 0;
  std::uint64_t seeds_installed = 0;
  for (const auto& [name, count] : registry.snapshot().counters) {
    if (name == "service.cache.near_misses") near_misses = count;
    if (name == "kpbs.warm_seed.installed") seeds_installed = count;
  }
  EXPECT_EQ(near_misses, std::size(corpus));
  EXPECT_EQ(seeds_installed, std::size(corpus));
  std::size_t warm_seed_events = 0;
  for (const obs::JournalEvent& event : journal.snapshot()) {
    if (event.kind == obs::JournalEventKind::kCacheWarmSeed) {
      ++warm_seed_events;
    }
  }
  EXPECT_EQ(warm_seed_events, std::size(corpus));
}

TEST(SolveCacheTest, LfuEvictionDropsTheColdestEntry) {
  const SolverOptions options{2, 1, Algorithm::kOGGP};
  // Three single-entry instances with distinct *positions* (distinct
  // shapes), so lookups of an evicted one report a clean miss.
  TrafficMatrix m1(4, 4), m2(4, 4), m3(4, 4);
  m1.add(0, 0, 10);
  m2.add(1, 1, 10);
  m3.add(2, 2, 10);
  const CanonicalInstance i1 = canonicalize(m1, options);
  const CanonicalInstance i2 = canonicalize(m2, options);
  const CanonicalInstance i3 = canonicalize(m3, options);
  const InstanceFingerprint f1 = fingerprint_instance(i1);
  const InstanceFingerprint f2 = fingerprint_instance(i2);
  const InstanceFingerprint f3 = fingerprint_instance(i3);

  SolveCache cache(2);
  cache.insert_solve(f1, i1, {"s1", 1, 0, 1, 1.0, 101, nullptr});
  cache.insert_solve(f2, i2, {"s2", 1, 0, 1, 1.0, 102, nullptr});
  EXPECT_EQ(cache.entry_count(), 2u);

  // Heat up i1; i2 stays at zero hits.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.lookup(f1, i1).kind, SolveCache::Lookup::Kind::kHit);
  }

  // At capacity the LFU victim is i2, not the recently inserted i3.
  cache.insert_solve(f3, i3, {"s3", 1, 0, 1, 1.0, 103, nullptr});
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.lookup(f1, i1).kind, SolveCache::Lookup::Kind::kHit);
  EXPECT_EQ(cache.lookup(f3, i3).kind, SolveCache::Lookup::Kind::kHit);
  EXPECT_EQ(cache.lookup(f2, i2).kind, SolveCache::Lookup::Kind::kMiss);
}

TEST(SolveCacheTest, NearMissPrefersTheNearestShapeSibling) {
  const SolverOptions options{2, 1, Algorithm::kOGGP};
  TrafficMatrix base(3, 3);
  base.add(0, 0, 100);
  base.add(1, 2, 100);

  TrafficMatrix near(3, 3);
  near.add(0, 0, 110);  // L1 distance 10 + 0
  near.add(1, 2, 100);
  TrafficMatrix far(3, 3);
  far.add(0, 0, 500);  // L1 distance 400 + 300
  far.add(1, 2, 400);

  const CanonicalInstance bi = canonicalize(base, options);
  const CanonicalInstance ni = canonicalize(near, options);
  const CanonicalInstance fi = canonicalize(far, options);

  const auto near_handle = std::make_shared<const Matching>();
  const auto far_handle = std::make_shared<const Matching>();
  SolveCache cache(8);
  cache.insert_solve(fingerprint_instance(ni), ni,
               {"near", 1, 0, 1, 1.0, 1, near_handle});
  cache.insert_solve(fingerprint_instance(fi), fi,
               {"far", 1, 0, 1, 1.0, 2, far_handle});

  const SolveCache::Lookup lookup = cache.lookup(fingerprint_instance(bi), bi);
  ASSERT_EQ(lookup.kind, SolveCache::Lookup::Kind::kNearMiss);
  EXPECT_EQ(lookup.warm_seed, near_handle);
  EXPECT_EQ(lookup.weight_distance, 10);
}

TEST(SchedulerServiceTest, RateLimitAnswersTypedErrorAndConnectionSurvives) {
  SchedulerServiceOptions options;
  options.admission_rate_rps = 1e-6;  // effectively: the burst is all there is
  options.admission_burst = 1;
  SchedulerService daemon(options);
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = 1;
  EXPECT_EQ(session.solve(req).request_id, 1u);  // consumes the burst token

  req.request_id = 2;
  try {
    (void)session.solve(req);
    FAIL() << "second request should have been rate-limited";
  } catch (const RpcRemoteError& e) {
    EXPECT_EQ(e.response().code, rpc::RpcErrorCode::kRateLimited);
    EXPECT_EQ(e.response().request_id, 2u);
  }
  daemon.stop();
}

TEST(SchedulerServiceTest, ConcurrentSubmitStormServesEveryRequest) {
  // Many clients hammering two instances through real sockets: every
  // request must be answered correctly, and after the first two solves
  // everything is a cache hit. This is the TSan workout for the daemon's
  // accept/pool/cache/admission interplay.
  SchedulerServiceOptions options;
  options.threads = 4;
  SchedulerService daemon(options);

  const rpc::SolveRequest req_a =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  const rpc::SolveRequest req_b =
      request_from_graph(load_golden("golden_09.graph"), /*k=*/5, /*beta=*/1);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> ok{0};
  std::atomic<int> cache_hits{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientSession session = ClientSession::dial_rpc(daemon.port());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        rpc::SolveRequest req = (i % 2 == 0) ? req_a : req_b;
        req.request_id =
            static_cast<std::uint64_t>(c) * 1000 +
            static_cast<std::uint64_t>(i) + 1;
        const rpc::SolveResponse response = session.solve(req);
        if (response.request_id == req.request_id &&
            !response.schedule_text.empty()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
        if (response.served_from == rpc::ServedFrom::kCacheHit) {
          cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  daemon.stop();

  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(daemon.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  // Two distinct instances → at most two cold solves per fingerprint can
  // race in; everything else must hit.
  EXPECT_GE(cache_hits.load(), kClients * kRequestsPerClient - 2 * kClients);
  EXPECT_LE(daemon.cache().entry_count(), 2u);
}

TEST(SchedulerServiceTest, StatuszExposesTheCacheSection) {
  obs::MetricsRegistry registry;
  obs::ScopedTelemetry telemetry(&registry, nullptr);

  SchedulerService daemon;
  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = 1;
  (void)daemon.serve_solve(req);
  req.request_id = 2;
  (void)daemon.serve_solve(req);
  daemon.stop();

  const obs::IntrospectionServer server(&registry, nullptr);
  const auto response = server.respond("statusz");
  EXPECT_NE(response.body.find("\"cache\":{"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"hits\":1"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"misses\":1"), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("\"entries\":1"), std::string::npos)
      << response.body;

  // Without any service activity the section reports null, not zeros.
  const obs::IntrospectionServer bare(nullptr, nullptr);
  EXPECT_NE(bare.respond("statusz").body.find("\"cache\":null"),
            std::string::npos);
}

TEST(SchedulerServiceTest, ServeSolveSurfacesDomainFailuresAsError) {
  // serve_solve surfaces solver/domain failures as redist::Error (the
  // socket handler maps them to kInternal). The rpc decoder pre-rejects
  // degenerate cluster sizes, but in-process callers reach the
  // TrafficMatrix contract directly.
  SchedulerService daemon;
  rpc::SolveRequest req;
  req.request_id = 1;
  req.k = 1;
  req.beta = 1;
  req.senders = 0;  // TrafficMatrix requires positive dimensions
  req.receivers = 2;
  EXPECT_THROW((void)daemon.serve_solve(req), Error);

  // An empty-but-valid instance is not an error: it solves to the empty
  // schedule and caches like any other result.
  rpc::SolveRequest empty;
  empty.request_id = 2;
  empty.k = 1;
  empty.beta = 1;
  empty.senders = 2;
  empty.receivers = 2;
  const rpc::SolveResponse response = daemon.serve_solve(empty);
  EXPECT_EQ(response.served_from, rpc::ServedFrom::kCold);
  empty.request_id = 3;
  EXPECT_EQ(daemon.serve_solve(empty).served_from,
            rpc::ServedFrom::kCacheHit);
  daemon.stop();
}

}  // namespace
}  // namespace redist::service
