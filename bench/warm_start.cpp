// Peeling benchmark: GGP/OGGP solve time on dense instances, batch-solver
// throughput and the flight recorder's overhead. Emits BENCH_warm_start.json
// (see docs/PERF.md).
//
//   warm_start [--n=64] [--edges=2048] [--max-weight=1000] [--instances=6]
//              [--k=8] [--beta=1] [--repeat=3] [--threads=0]
//              [--out=BENCH_warm_start.json] [--check-max-journal-overhead=0]
//
// Solve times are the median of --repeat passes over the instance pool.
// The journal-overhead probe makes 2 * repeat + 1 rounds over the pool; each
// round solves every instance twice with OGGP, once plain and once with the
// flight recorder (obs/journal.hpp) installed, alternating which goes first.
// It reports the median of the per-pair time ratios with their interquartile
// range: pairing cancels the drifts (co-tenant load, clock boost) that two
// separately timed series pick up. plain_ms/journaled_ms are the median
// round totals.
// --check-max-journal-overhead=F exits nonzero when the median overhead
// exceeds F.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "redist.hpp"

namespace {

using namespace redist;

// Dense instance with exactly n x n nodes and `edges` distinct pairs —
// unlike RandomGraphConfig (which samples sizes), the bench needs the
// advertised n/m on every instance.
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

// Milliseconds to solve `g` once.
double time_solve(const BipartiteGraph& g, int k, Weight beta,
                  Algorithm algo) {
  const Stopwatch timer;
  const Schedule s = solve_kpbs(g, {k, beta, algo}).schedule;
  const double ms = timer.elapsed_ms();
  if (s.step_count() == 0 && !g.empty()) {
    throw Error("empty schedule for non-empty instance");
  }
  return ms;
}

double median(const SampleSet& s) { return s.percentile(50); }

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const NodeId n = static_cast<NodeId>(flags.get_int("n", 64));
    const int edges = static_cast<int>(flags.get_int("edges", 2048));
    const Weight max_weight = flags.get_int("max-weight", 1000);
    const int instances = static_cast<int>(flags.get_int("instances", 6));
    const int k = static_cast<int>(flags.get_int("k", 8));
    const Weight beta = flags.get_int("beta", 1);
    const int repeat = static_cast<int>(flags.get_int("repeat", 3));
    const int threads = static_cast<int>(flags.get_int("threads", 0));
    const std::string out =
        flags.get_string("out", "BENCH_warm_start.json");
    const double max_journal_overhead =
        flags.get_double("check-max-journal-overhead", 0);
    flags.check_unused();
    if (repeat < 1) throw Error("--repeat must be >= 1");

    std::vector<BipartiteGraph> pool;
    pool.reserve(static_cast<std::size_t>(instances));
    for (int i = 0; i < instances; ++i) {
      pool.push_back(dense_instance(0xBEEF + static_cast<std::uint64_t>(i),
                                    n, edges, max_weight));
    }

    std::vector<std::pair<std::string, double>> solve_ms;
    for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
      SampleSet passes;
      for (int r = 0; r < repeat; ++r) {
        double pass_ms = 0;
        for (const BipartiteGraph& g : pool) {
          pass_ms += time_solve(g, k, beta, algo);
        }
        passes.add(pass_ms);
      }
      solve_ms.emplace_back(algorithm_name(algo), median(passes));
    }

    // Journal overhead: every instance is solved plain and journaled back
    // to back, alternating which goes first, and each such pair yields one
    // time ratio. The events land in a real-size ring so the measurement
    // includes wraparound costs.
    const int rounds = 2 * repeat + 1;
    obs::Journal journal(8192);
    SampleSet plain_ms;
    SampleSet journaled_ms;
    SampleSet ratios;
    for (int r = 0; r < rounds; ++r) {
      double plain_total = 0;
      double journaled_total = 0;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        double plain = 0;
        double journaled = 0;
        for (int half = 0; half < 2; ++half) {
          if ((half == 0) == ((r + static_cast<int>(i)) % 2 == 0)) {
            plain = time_solve(pool[i], k, beta, Algorithm::kOGGP);
          } else {
            const obs::ScopedJournal scoped_journal(&journal);
            journaled = time_solve(pool[i], k, beta, Algorithm::kOGGP);
          }
        }
        plain_total += plain;
        journaled_total += journaled;
        ratios.add(plain > 0 ? journaled / plain : 1.0);
      }
      plain_ms.add(plain_total);
      journaled_ms.add(journaled_total);
    }
    const double journal_overhead = median(ratios) - 1.0;
    const double journal_iqr = ratios.percentile(75) - ratios.percentile(25);

    // Batch throughput: same OGGP instances, 1 worker vs a pool.
    std::vector<KpbsRequest> requests;
    for (const BipartiteGraph& g : pool) {
      KpbsRequest request;
      request.demand = g;
      request.options = SolverOptions{k, beta, Algorithm::kOGGP};
      requests.push_back(std::move(request));
    }
    BatchOptions sequential;
    sequential.threads = 1;
    BatchOptions pooled;
    pooled.threads = threads;
    double batch_seq_ms = 0;
    double batch_pool_ms = 0;
    for (int r = 0; r < repeat; ++r) {
      Stopwatch timer;
      solve_kpbs_batch(requests, sequential);
      const double seq = timer.elapsed_ms();
      timer.reset();
      solve_kpbs_batch(requests, pooled);
      const double par = timer.elapsed_ms();
      if (r == 0 || seq < batch_seq_ms) batch_seq_ms = seq;
      if (r == 0 || par < batch_pool_ms) batch_pool_ms = par;
    }

    std::ofstream os(out);
    if (!os) throw Error("cannot write: " + out);
    os << "{\n"
       << "  \"bench\": \"warm_start\",\n"
       << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
       << "},\n"
       << "  \"config\": {\"n\": " << n << ", \"edges\": " << edges
       << ", \"max_weight\": " << max_weight
       << ", \"instances\": " << instances << ", \"k\": " << k
       << ", \"beta\": " << beta << ", \"repeat\": " << repeat << "},\n"
       << "  \"algorithms\": [\n";
    for (std::size_t i = 0; i < solve_ms.size(); ++i) {
      os << "    {\"name\": \"" << solve_ms[i].first << "\", \"solve_ms\": "
         << Table::fmt(solve_ms[i].second, 3) << "}"
         << (i + 1 < solve_ms.size() ? "," : "") << '\n';
    }
    os << "  ],\n"
       << "  \"batch\": {\"instances\": " << requests.size()
       << ", \"sequential_ms\": " << Table::fmt(batch_seq_ms, 3)
       << ", \"pooled_ms\": " << Table::fmt(batch_pool_ms, 3)
       << ", \"pool_speedup\": "
       << Table::fmt(batch_pool_ms > 0 ? batch_seq_ms / batch_pool_ms : 0, 3)
       << ", \"throughput_per_s\": "
       << Table::fmt(batch_pool_ms > 0
                         ? 1e3 * static_cast<double>(requests.size()) /
                               batch_pool_ms
                         : 0,
                     1)
       << "},\n"
       << "  \"journal\": {\"pairs\": " << ratios.count()
       << ", \"events\": " << journal.total_recorded()
       << ", \"plain_ms\": " << Table::fmt(median(plain_ms), 3)
       << ", \"journaled_ms\": " << Table::fmt(median(journaled_ms), 3)
       << ", \"overhead_frac\": " << Table::fmt(journal_overhead, 4)
       << ", \"overhead_iqr\": " << Table::fmt(journal_iqr, 4) << "}\n"
       << "}\n";
    os.close();

    for (const auto& [name, ms] : solve_ms) {
      std::cout << name << ": " << Table::fmt(ms, 2) << " ms\n";
    }
    std::cout << "journal: " << ratios.count() << " pairs, OGGP "
              << Table::fmt(median(plain_ms), 2) << " -> "
              << Table::fmt(median(journaled_ms), 2) << " ms (overhead "
              << Table::fmt(journal_overhead * 100.0, 2) << "%, IQR "
              << Table::fmt(journal_iqr * 100.0, 2) << "%)\n";
    std::cout << "batch: sequential " << Table::fmt(batch_seq_ms, 2)
              << " ms, pooled " << Table::fmt(batch_pool_ms, 2)
              << " ms\nwrote " << out << '\n';

    if (max_journal_overhead > 0 &&
        journal_overhead > max_journal_overhead) {
      std::cerr << "FAIL: journal overhead " << journal_overhead
                << " above allowed " << max_journal_overhead << '\n';
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
