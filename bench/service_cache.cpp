// Scheduler-daemon cache benchmark: cold solve vs exact cache hit vs
// warm-seeded near miss through SchedulerService::serve_solve. Emits
// BENCH_service_cache.json (diffed by scripts/bench_diff.py).
//
//   service_cache [--n=48] [--edges=1200] [--max-weight=1000]
//                 [--instances=6] [--k=8] [--beta=1] [--repeat=5]
//                 [--out=BENCH_service_cache.json]
//                 [--check-min-hit-speedup=0]
//
// Identity gates run before any timing is reported: every cache hit must
// replay the cold solve byte-for-byte, and every warm-seeded near-miss
// solve must match an unseeded solve of the same drifted instance
// byte-for-byte. --check-min-hit-speedup=X exits nonzero when serving
// from cache is not at least X times faster than solving cold (the CI
// service-smoke gate; the ISSUE floor is 10x).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "redist.hpp"

namespace {

using namespace redist;

/// Dense instance with exactly n x n nodes and `edges` distinct pairs
/// (same construction as bench/warm_start.cpp — the daemon's unit of work
/// is one such solve).
BipartiteGraph dense_instance(std::uint64_t seed, NodeId n, int edges,
                              Weight max_weight) {
  Rng rng(seed);
  std::vector<std::int64_t> pairs(static_cast<std::size_t>(n) *
                                  static_cast<std::size_t>(n));
  std::iota(pairs.begin(), pairs.end(), 0);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  const int m = std::min<int>(edges, static_cast<int>(pairs.size()));
  BipartiteGraph g(n, n);
  for (int i = 0; i < m; ++i) {
    const NodeId left = static_cast<NodeId>(pairs[static_cast<std::size_t>(i)] /
                                            static_cast<std::int64_t>(n));
    const NodeId right =
        static_cast<NodeId>(pairs[static_cast<std::size_t>(i)] %
                            static_cast<std::int64_t>(n));
    g.add_edge(left, right, rng.uniform_int(1, max_weight));
  }
  return g;
}

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

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const NodeId n = static_cast<NodeId>(flags.get_int("n", 48));
    const int edges = static_cast<int>(flags.get_int("edges", 1200));
    const Weight max_weight = flags.get_int("max-weight", 1000);
    const int instances = static_cast<int>(flags.get_int("instances", 6));
    const int k = static_cast<int>(flags.get_int("k", 8));
    const Weight beta = flags.get_int("beta", 1);
    const int repeat = static_cast<int>(flags.get_int("repeat", 5));
    const std::string out =
        flags.get_string("out", "BENCH_service_cache.json");
    const double min_hit_speedup =
        flags.get_double("check-min-hit-speedup", 0);
    flags.check_unused();

    std::vector<rpc::SolveRequest> requests;
    requests.reserve(static_cast<std::size_t>(instances));
    for (int i = 0; i < instances; ++i) {
      requests.push_back(request_from_graph(
          dense_instance(0x5EC + static_cast<std::uint64_t>(i), n, edges,
                         max_weight),
          k, beta));
    }

    service::SchedulerService daemon;

    // Cold pass: every instance enters the cache.
    std::vector<rpc::SolveResponse> cold;
    cold.reserve(requests.size());
    Stopwatch cold_timer;
    for (rpc::SolveRequest& req : requests) {
      req.request_id = cold.size() + 1;
      cold.push_back(daemon.serve_solve(req));
    }
    const double cold_ms = cold_timer.elapsed_ms();
    for (const rpc::SolveResponse& response : cold) {
      if (response.served_from != rpc::ServedFrom::kCold) {
        std::cerr << "FATAL: first solve not served cold\n";
        return 1;
      }
    }

    // Identity gate + timing for exact hits: best-of-repeat over the pool.
    bool hit_identical = true;
    double hit_ms = 0;
    for (int r = 0; r < repeat; ++r) {
      Stopwatch timer;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const rpc::SolveResponse hit = daemon.serve_solve(requests[i]);
        if (hit.served_from != rpc::ServedFrom::kCacheHit ||
            hit.schedule_text != cold[i].schedule_text) {
          hit_identical = false;
        }
      }
      const double ms = timer.elapsed_ms();
      if (r == 0 || ms < hit_ms) hit_ms = ms;
    }
    if (!hit_identical) {
      std::cerr << "FATAL: cache hit diverged from the original solve\n";
      return 1;
    }

    // Near-miss pass: drift every volume by +1 (same shape) and serve
    // through the cache (warm-seeded); reference is an unseeded library
    // solve of the identical drifted instance.
    bool near_identical = true;
    std::size_t near_misses = 0;
    double near_ms = 0;
    double near_cold_ms = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      rpc::SolveRequest drifted = requests[i];
      drifted.request_id = 1000 + i;
      for (rpc::TrafficEntry& e : drifted.entries) e.bytes += 1;

      Stopwatch warm_timer;
      const rpc::SolveResponse warm = daemon.serve_solve(drifted);
      near_ms += warm_timer.elapsed_ms();
      if (warm.served_from == rpc::ServedFrom::kWarmNearMiss) ++near_misses;

      TrafficMatrix matrix(drifted.senders, drifted.receivers);
      for (const rpc::TrafficEntry& e : drifted.entries) {
        matrix.add(e.sender, e.receiver, e.bytes);
      }
      Stopwatch cold_drift_timer;
      const SolveResult reference =
          solve_kpbs(matrix.to_graph_bytes(),
                     {drifted.k, drifted.beta, drifted.algorithm});
      near_cold_ms += cold_drift_timer.elapsed_ms();
      if (warm.schedule_text != schedule_to_string(reference.schedule)) {
        near_identical = false;
      }
    }
    daemon.stop();
    if (!near_identical) {
      std::cerr << "FATAL: warm-seeded near-miss diverged from the "
                   "unseeded solve\n";
      return 1;
    }

    const double hit_speedup = hit_ms > 0 ? cold_ms / hit_ms : 0;
    const double near_speedup = near_ms > 0 ? near_cold_ms / near_ms : 0;

    Table table({"path", "total_ms", "per_solve_ms", "speedup_vs_cold"});
    const double count = static_cast<double>(requests.size());
    table.add_row({"cold", Table::fmt(cold_ms, 2),
                   Table::fmt(cold_ms / count, 3), Table::fmt(1.0, 2)});
    table.add_row({"cache_hit", Table::fmt(hit_ms, 2),
                   Table::fmt(hit_ms / count, 3),
                   Table::fmt(hit_speedup, 2)});
    table.add_row({"warm_near_miss", Table::fmt(near_ms, 2),
                   Table::fmt(near_ms / count, 3),
                   Table::fmt(near_speedup, 2)});
    table.print(std::cout);
    std::cout << near_misses << "/" << requests.size()
              << " drifted instances warm-seeded\n";

    std::ofstream os(out);
    if (!os) throw Error("cannot write: " + out);
    os << "{\n"
       << "  \"bench\": \"service_cache\",\n"
       << "  \"config\": {\"n\": " << n << ", \"edges\": " << edges
       << ", \"max_weight\": " << max_weight << ", \"instances\": "
       << instances << ", \"k\": " << k << ", \"beta\": " << beta
       << ", \"repeat\": " << repeat << "},\n"
       << "  \"cache\": {\"cold_ms\": " << Table::fmt(cold_ms, 3)
       << ", \"hit_ms\": " << Table::fmt(hit_ms, 3)
       << ", \"hit_speedup\": " << Table::fmt(hit_speedup, 3)
       << ", \"hit_identical\": " << (hit_identical ? "true" : "false")
       << ",\n             \"near_miss_ms\": " << Table::fmt(near_ms, 3)
       << ", \"near_cold_ms\": " << Table::fmt(near_cold_ms, 3)
       << ", \"near_speedup\": " << Table::fmt(near_speedup, 3)
       << ", \"near_identical\": " << (near_identical ? "true" : "false")
       << ", \"near_misses\": " << near_misses << "}\n"
       << "}\n";
    std::cout << "wrote " << out << '\n';

    if (near_misses != requests.size()) {
      std::cerr << "FATAL: " << (requests.size() - near_misses)
                << " drifted instance(s) missed the warm path\n";
      return 1;
    }
    if (min_hit_speedup > 0 && hit_speedup < min_hit_speedup) {
      std::cerr << "FAIL: cache-hit speedup " << Table::fmt(hit_speedup, 2)
                << "x below the required " << Table::fmt(min_hit_speedup, 2)
                << "x\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
