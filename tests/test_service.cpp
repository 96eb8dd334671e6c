// SchedulerService + SolveCache semantics: the key built from wire entries
// and its demand graph equal the dense matrix's (differential over random
// entry lists), exact cache hits are bit-identical replays of the original
// solve, a request with drifted volumes is a plain miss solved cold
// (checked against direct solves over the golden corpus), LFU eviction
// keeps the hot entries, admission control (charged per solver run, so
// hits are served with the bucket empty) and unservable requests answer
// typed errors on a connection that stays usable, statusz over the same
// rpc connection reports the cache and skips admission, and a concurrent
// submit storm over real sockets is data-race-free (the TSan job runs this
// file).
#include "service/scheduler_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/graphio.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/regularize.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/schedule_validator.hpp"
#include "kpbs/solver.hpp"
#include "net/client_session.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "robust/retry.hpp"
#include "service/fingerprint.hpp"
#include "service/solve_cache.hpp"

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

/// A random instance as wire entries: unsorted, with repeated
/// (sender, receiver) pairs and zero-byte entries. In-process callers may
/// send zeros; the rpc decoder refuses them. `dense` gets the same sums.
std::vector<rpc::TrafficEntry> random_entries(Rng& rng, TrafficMatrix& dense) {
  std::vector<rpc::TrafficEntry> entries;
  const auto count =
      rng.uniform_int(0, 3 * dense.senders() * dense.receivers());
  for (std::int64_t c = 0; c < count; ++c) {
    const rpc::TrafficEntry e{
        static_cast<NodeId>(rng.uniform_int(0, dense.senders() - 1)),
        static_cast<NodeId>(rng.uniform_int(0, dense.receivers() - 1)),
        rng.uniform_int(0, 4) == 0 ? 0 : rng.uniform_int(1, 1000)};
    entries.push_back(e);
    dense.add(e.sender, e.receiver, e.bytes);
  }
  return entries;
}

TEST(SolveCacheTest, EntriesKeyEqualsTheDenseMatrixKey) {
  // The daemon keys the wire entries directly; the key (and so the
  // fingerprint) must be the one the dense matrix of the same sums gives,
  // whatever the entry order, duplicates and zeros.
  Rng rng(22);
  for (int trial = 0; trial < 300; ++trial) {
    // Up to 24 x 24: positions past one byte, so the sort takes two passes.
    TrafficMatrix dense(static_cast<NodeId>(rng.uniform_int(1, 24)),
                        static_cast<NodeId>(rng.uniform_int(1, 24)));
    std::vector<rpc::TrafficEntry> entries = random_entries(rng, dense);
    if (trial % 3 == 0) {
      // Row-major but with duplicates kept: the merge path, pre-sorted.
      std::stable_sort(entries.begin(), entries.end(),
                       [](const rpc::TrafficEntry& a,
                          const rpc::TrafficEntry& b) {
                         return a.sender != b.sender ? a.sender < b.sender
                                                     : a.receiver < b.receiver;
                       });
    }
    const SolverOptions options{static_cast<int>(rng.uniform_int(1, 4)), 1,
                                Algorithm::kOGGP};
    const CanonicalInstance expected = canonicalize(dense, options);
    const CanonicalInstance keyed =
        canonicalize(dense.senders(), dense.receivers(), entries, options);
    ASSERT_EQ(keyed, expected) << "trial " << trial;
    EXPECT_EQ(fingerprint_instance(keyed), fingerprint_instance(expected));
  }
}

TEST(SolveCacheTest, DemandGraphEqualsToGraphBytesEdgeForEdge) {
  // A miss solves demand_graph(key); its edge ids, endpoints and weights
  // must be to_graph_bytes()'s, so cold schedules stay byte-identical.
  const auto expect_same = [](const BipartiteGraph& graph,
                              const BipartiteGraph& expected) {
    ASSERT_EQ(graph.left_count(), expected.left_count());
    ASSERT_EQ(graph.right_count(), expected.right_count());
    ASSERT_EQ(graph.edge_count(), expected.edge_count());
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
      EXPECT_EQ(graph.edge(e).left, expected.edge(e).left) << e;
      EXPECT_EQ(graph.edge(e).right, expected.edge(e).right) << e;
      EXPECT_EQ(graph.edge(e).weight, expected.edge(e).weight) << e;
    }
  };
  const SolverOptions options{3, 1, Algorithm::kOGGP};
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    TrafficMatrix dense(static_cast<NodeId>(rng.uniform_int(1, 9)),
                        static_cast<NodeId>(rng.uniform_int(1, 9)));
    const std::vector<rpc::TrafficEntry> entries = random_entries(rng, dense);
    expect_same(demand_graph(canonicalize(dense.senders(), dense.receivers(),
                                          entries, options)),
                dense.to_graph_bytes());
  }
  for (const char* file : {"golden_02.graph", "golden_07.graph",
                           "golden_13.graph"}) {
    rpc::SolveRequest req = request_from_graph(load_golden(file), 3, 1);
    std::reverse(req.entries.begin(), req.entries.end());
    expect_same(demand_graph(canonicalize(req.senders, req.receivers,
                                          req.entries, options)),
                graph_of_request(req));
  }
}

TEST(SolveCacheTest, HugeSparseRequestIsKeyedWithoutADenseMatrix) {
  // 65536 x 65536 cells would take 32 GB as a dense matrix; the key and
  // the demand graph of 1000 entries cost O(m log m) and O(n1 + n2).
  constexpr NodeId kNodes = 65536;
  Rng rng(24);
  std::vector<rpc::TrafficEntry> entries;
  for (int c = 0; c < 1000; ++c) {
    entries.push_back({static_cast<NodeId>(rng.uniform_int(0, kNodes - 1)),
                       static_cast<NodeId>(rng.uniform_int(0, kNodes - 1)),
                       rng.uniform_int(1, 1000)});
  }
  const CanonicalInstance instance =
      canonicalize(kNodes, kNodes, entries, {4, 1, Algorithm::kOGGP});
  EXPECT_TRUE(std::is_sorted(instance.cells.begin(), instance.cells.end()));
  Bytes total = 0;
  for (const rpc::TrafficEntry& e : entries) total += e.bytes;
  const BipartiteGraph graph = demand_graph(instance);
  EXPECT_EQ(graph.left_count(), kNodes);
  EXPECT_EQ(graph.right_count(), kNodes);
  EXPECT_EQ(graph.edge_count(), static_cast<EdgeId>(instance.cells.size()));
  EXPECT_EQ(graph.total_weight(), total);
}

TEST(SolveCacheTest, ByteCountsPastDoublePrecisionReachTheSchedule) {
  // 2^53 + 1 bytes used to pass through a double and come back as 2^53:
  // the schedule must carry every byte the request asked for.
  constexpr Bytes kPastDouble = (Bytes{1} << 53) + 1;
  SchedulerService daemon;
  rpc::SolveRequest req;
  req.request_id = 1;
  req.k = 2;
  req.senders = 2;
  req.receivers = 2;
  req.entries = {{0, 0, kPastDouble}, {1, 1, 1}};
  const Schedule schedule =
      schedule_from_string(daemon.serve_solve(req).schedule_text);
  Weight carried = 0;
  for (const Step& step : schedule.steps()) {
    for (const Communication& c : step.comms) {
      if (c.sender == 0 && c.receiver == 0) carried += c.amount;
    }
  }
  EXPECT_EQ(carried, kPastDouble);
  daemon.stop();
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

TEST(SolveCacheTest, FingerprintCoversWeightsOptionsAndPositions) {
  TrafficMatrix m(3, 3);
  m.add(0, 1, 100);
  m.add(2, 0, 50);
  const SolverOptions options{4, 1, Algorithm::kOGGP};
  const InstanceFingerprint fa = fingerprint_instance(canonicalize(m, options));

  // Same positions, different volumes.
  TrafficMatrix drifted(3, 3);
  drifted.add(0, 1, 120);
  drifted.add(2, 0, 50);
  EXPECT_NE(fingerprint_instance(canonicalize(drifted, options)), fa);

  // Any solver-option change is a different fingerprint: cached results
  // are only reusable under identical options.
  SolverOptions other_k = options;
  other_k.k = 5;
  EXPECT_NE(fingerprint_instance(canonicalize(m, other_k)), fa);

  // A different position with identical volumes.
  TrafficMatrix moved(3, 3);
  moved.add(0, 2, 100);
  moved.add(2, 0, 50);
  EXPECT_NE(fingerprint_instance(canonicalize(moved, options)), fa);
}

TEST(SolveCacheTest, DriftedRequestIsSolvedColdOnGoldenCorpus) {
  // A request with every volume drifted from a cached one is an ordinary
  // miss: it is solved cold, emits the schedule a direct solve of the same
  // instance emits — same bytes, same makespan — and the schedule
  // validates. Checked across the golden corpus.
  const char* corpus[] = {"golden_02.graph", "golden_03.graph",
                          "golden_07.graph", "golden_09.graph",
                          "golden_11.graph", "golden_13.graph"};
  obs::MetricsRegistry registry;
  obs::ScopedTelemetry telemetry(&registry, nullptr);
  const auto misses = [&registry] {
    std::uint64_t count = 0;
    for (const auto& [name, value] : registry.snapshot().counters) {
      if (name == "service.cache.misses") count = value;
    }
    return count;
  };

  SchedulerService daemon;
  std::uint64_t request_id = 0;
  for (const char* file : corpus) {
    const BipartiteGraph g = load_golden(file);
    rpc::SolveRequest base = request_from_graph(g, /*k=*/4, /*beta=*/1);
    base.request_id = ++request_id;
    ASSERT_EQ(daemon.serve_solve(base).served_from, rpc::ServedFrom::kCold)
        << file;

    // Drift every volume by +1: same positions, different fingerprint.
    rpc::SolveRequest drifted = base;
    drifted.request_id = ++request_id;
    for (rpc::TrafficEntry& e : drifted.entries) e.bytes += 1;

    const std::uint64_t misses_before = misses();
    const rpc::SolveResponse served = daemon.serve_solve(drifted);
    EXPECT_EQ(served.served_from, rpc::ServedFrom::kCold) << file;
    EXPECT_EQ(misses() - misses_before, 1u) << file;

    const BipartiteGraph drifted_graph = graph_of_request(drifted);
    const SolveResult cold = solve_kpbs(
        drifted_graph, {drifted.k, drifted.beta, drifted.algorithm});
    EXPECT_EQ(served.schedule_text, schedule_to_string(cold.schedule))
        << file;

    const Schedule schedule = schedule_from_string(served.schedule_text);
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
}

TEST(SolveCacheTest, LfuEvictionDropsTheColdestEntry) {
  const SolverOptions options{2, 1, Algorithm::kOGGP};
  // Three single-entry instances with distinct positions.
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
  cache.insert_solve(f1, i1, {"s1", 1, 0, 1, 1.0, 101});
  cache.insert_solve(f2, i2, {"s2", 1, 0, 1, 1.0, 102});
  EXPECT_EQ(cache.entry_count(), 2u);

  // Heat up i1; i2 stays at zero hits.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cache.lookup(f1, i1).has_value());
  }

  // At capacity the LFU victim is i2, not the recently inserted i3.
  cache.insert_solve(f3, i3, {"s3", 1, 0, 1, 1.0, 103});
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_TRUE(cache.lookup(f1, i1).has_value());
  EXPECT_TRUE(cache.lookup(f3, i3).has_value());
  EXPECT_FALSE(cache.lookup(f2, i2).has_value());
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

  // A different instance: a miss needs a solver run, and so a token.
  req = request_from_graph(load_golden("golden_06.graph"), /*k=*/2,
                           /*beta=*/1);
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

TEST(SchedulerServiceTest,
     UnallocatableClusterGetsTypedErrorAndConnectionSurvives) {
  // The decoder accepts any positive cluster size, but INT32_MAX x
  // INT32_MAX nodes cannot be laid out for a solve (regularization needs
  // about n1 + n2 node ids). That must come back as a typed kInternal
  // error, not end the daemon, and the same session must then be served
  // normally.
  SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  rpc::SolveRequest huge;
  huge.request_id = 1;
  huge.senders = std::numeric_limits<NodeId>::max();
  huge.receivers = std::numeric_limits<NodeId>::max();
  huge.entries.push_back({0, 0, 1});
  try {
    (void)session.solve(huge);
    FAIL() << "an unallocatable cluster should get a typed error";
  } catch (const RpcRemoteError& e) {
    EXPECT_EQ(e.response().code, rpc::RpcErrorCode::kInternal);
    EXPECT_EQ(e.response().request_id, 1u);
  }

  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = 2;
  const rpc::SolveResponse response = session.solve(req);
  EXPECT_EQ(response.request_id, 2u);
  EXPECT_EQ(response.served_from, rpc::ServedFrom::kCold);
  EXPECT_EQ(response.schedule_text,
            schedule_to_string(solve_kpbs(graph_of_request(req),
                                          {req.k, req.beta, req.algorithm})
                                   .schedule));
  daemon.stop();
}

TEST(SchedulerServiceTest,
     OverflowingDuplicateEntriesGetTypedErrorAndConnectionSurvives) {
  // The daemon sums duplicate (sender, receiver) entries. Two INT64_MAX
  // entries for one pair sum past any byte count, and two for distinct
  // pairs overflow the demand graph's total weight. Each gets a typed
  // kInternal reply, then the same session is served normally.
  constexpr Bytes kMax = std::numeric_limits<Bytes>::max();
  SchedulerService daemon;
  ClientSession session = ClientSession::dial_rpc(daemon.port());
  std::uint64_t request_id = 0;
  for (const std::vector<rpc::TrafficEntry>& entries :
       {std::vector<rpc::TrafficEntry>{{0, 1, kMax}, {1, 0, 5}, {0, 1, kMax}},
        std::vector<rpc::TrafficEntry>{{0, 1, kMax}, {1, 0, kMax}}}) {
    rpc::SolveRequest overflow;
    overflow.request_id = ++request_id;
    overflow.senders = 2;
    overflow.receivers = 2;
    overflow.entries = entries;
    EXPECT_THROW((void)daemon.serve_solve(overflow), Error);
    try {
      (void)session.solve(overflow);
      FAIL() << "an overflowing weight sum should get a typed error";
    } catch (const RpcRemoteError& e) {
      EXPECT_EQ(e.response().code, rpc::RpcErrorCode::kInternal);
      EXPECT_EQ(e.response().request_id, request_id);
    }
  }

  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = ++request_id;
  const rpc::SolveResponse response = session.solve(req);
  EXPECT_EQ(response.request_id, request_id);
  EXPECT_EQ(response.served_from, rpc::ServedFrom::kCold);
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
  // The daemon renders statusz from the installed registry and its own
  // request count, on the rpc connection that also carries solves.
  obs::MetricsRegistry registry;
  obs::ScopedTelemetry telemetry(&registry, nullptr);

  SchedulerService daemon;
  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = 1;
  (void)daemon.serve_solve(req);
  req.request_id = 2;
  (void)daemon.serve_solve(req);

  ClientSession session = ClientSession::dial_rpc(daemon.port());
  const std::string before = session.introspect("statusz");
  EXPECT_NE(before.find("\"cache\":{\"entries\":1,\"hits\":1,\"misses\":1"),
            std::string::npos)
      << before;
  EXPECT_NE(before.find("\"requests_served\":0"), std::string::npos)
      << before;

  req.request_id = 3;
  EXPECT_EQ(session.solve(req).served_from, rpc::ServedFrom::kCacheHit);
  const std::string after = session.introspect("statusz");
  EXPECT_NE(after.find("\"hits\":2"), std::string::npos) << after;
  EXPECT_NE(after.find("\"requests_served\":1"), std::string::npos) << after;

  // An unknown endpoint is a typed bad request; the session survives it.
  try {
    (void)session.introspect("nope");
    FAIL() << "an unknown endpoint should get a typed error";
  } catch (const RpcRemoteError& e) {
    EXPECT_EQ(e.response().code, rpc::RpcErrorCode::kBadRequest);
  }
  EXPECT_NE(session.introspect("healthz").find("\"status\":\"ok\""),
            std::string::npos);
  daemon.stop();
}

TEST(SchedulerServiceTest, IntrospectionSkipsAdmissionControl) {
  // With the admission bucket empty, solves are refused but the daemon
  // still answers statusz, which does not count as a solve request.
  SchedulerServiceOptions options;
  options.admission_rate_rps = 1e-6;  // effectively: the burst is all there is
  options.admission_burst = 1;
  SchedulerService daemon(options);
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = 1;
  (void)session.solve(req);  // consumes the burst token

  EXPECT_NE(session.introspect("statusz").find("\"requests_served\":1"),
            std::string::npos);
  req = request_from_graph(load_golden("golden_06.graph"), /*k=*/2,
                           /*beta=*/1);
  req.request_id = 2;
  try {
    (void)session.solve(req);
    FAIL() << "second solve should have been rate-limited";
  } catch (const RpcRemoteError& e) {
    EXPECT_EQ(e.response().code, rpc::RpcErrorCode::kRateLimited);
  }
  EXPECT_NE(session.introspect("statusz").find("\"requests_served\":2"),
            std::string::npos);
  daemon.stop();
}

TEST(SchedulerServiceTest, CacheHitIsServedWithTheBucketEmpty) {
  // A token pays for a solver run, so a hit is served byte-identical even
  // when the bucket is empty, and only the refused miss counts as limited.
  obs::MetricsRegistry registry;
  obs::ScopedTelemetry telemetry(&registry, nullptr);
  SchedulerServiceOptions options;
  options.admission_rate_rps = 1e-6;  // effectively: the burst is all there is
  options.admission_burst = 1;
  SchedulerService daemon(options);
  ClientSession session = ClientSession::dial_rpc(daemon.port());

  rpc::SolveRequest req =
      request_from_graph(load_golden("golden_05.graph"), /*k=*/2, /*beta=*/1);
  req.request_id = 1;
  const rpc::SolveResponse cold = session.solve(req);  // the burst token
  ASSERT_EQ(cold.served_from, rpc::ServedFrom::kCold);
  for (std::uint64_t id = 2; id <= 4; ++id) {
    req.request_id = id;
    const rpc::SolveResponse hit = session.solve(req);
    EXPECT_EQ(hit.request_id, id);
    EXPECT_EQ(hit.served_from, rpc::ServedFrom::kCacheHit);
    EXPECT_EQ(hit.schedule_text, cold.schedule_text);
    EXPECT_EQ(hit.solve_id, cold.solve_id);
  }
  EXPECT_EQ(registry.counter("service.rate_limited").value(), 0u);

  rpc::SolveRequest miss =
      request_from_graph(load_golden("golden_06.graph"), /*k=*/2, /*beta=*/1);
  miss.request_id = 5;
  EXPECT_THROW((void)session.solve(miss), RpcRemoteError);
  EXPECT_EQ(registry.counter("service.rate_limited").value(), 1u);
  req.request_id = 6;
  EXPECT_EQ(session.solve(req).schedule_text, cold.schedule_text);
  daemon.stop();
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
