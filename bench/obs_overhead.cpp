// Instrumentation overhead of an OGGP solve (docs/OBSERVABILITY.md).
//
//   obs_overhead [--n=64] [--edges=2048] [--instances=6] [--repeat=3]
//                [--check-max-journal-overhead=0]
//
// Each of 2 * repeat + 1 rounds solves every dense n x n instance three
// times back to back in rotating order: plain, with the flight recorder
// (the library's one event stream) installed, and with it plus a
// MetricsRegistry made fresh for the solve. A sink run over its
// neighbouring plain run is one paired ratio; pairing cancels the drift
// (co-tenant load, clock boost) that separately timed series pick up.
// Prints each median overhead with its interquartile range and the journal
// events per solve; --check-max-journal-overhead=F exits nonzero when the
// journal's median exceeds F. The all-sinks figure is not gated.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <vector>

#include "redist.hpp"

namespace {

using namespace redist;

// Exactly n x n nodes and `edges` distinct pairs, weights U[1, 1000].
BipartiteGraph dense_instance(std::uint64_t seed, NodeId n, int edges) {
  Rng rng(seed);
  std::vector<std::int64_t> pairs(static_cast<std::size_t>(n) * n);
  std::iota(pairs.begin(), pairs.end(), 0);
  std::shuffle(pairs.begin(), pairs.end(), rng);
  BipartiteGraph g(n, n);
  for (int i = 0; i < std::min<int>(edges, static_cast<int>(pairs.size()));
       ++i) {
    const std::int64_t pair = pairs[static_cast<std::size_t>(i)];
    g.add_edge(static_cast<NodeId>(pair / n), static_cast<NodeId>(pair % n),
               rng.uniform_int(1, 1000));
  }
  return g;
}

double report(const char* label, const SampleSet& ratios) {
  const double overhead = ratios.percentile(50) - 1.0;
  std::cout << label << ": overhead " << Table::fmt(overhead * 100.0, 2)
            << "% (IQR "
            << Table::fmt(
                   (ratios.percentile(75) - ratios.percentile(25)) * 100.0, 2)
            << "%, " << ratios.count() << " pairs)\n";
  return overhead;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Flags flags(argc, argv);
    const NodeId n = static_cast<NodeId>(flags.get_int("n", 64));
    const int edges = static_cast<int>(flags.get_int("edges", 2048));
    const int instances = static_cast<int>(flags.get_int("instances", 6));
    const int repeat = static_cast<int>(flags.get_int("repeat", 3));
    const double max_journal_overhead =
        flags.get_double("check-max-journal-overhead", 0);
    flags.check_unused();
    if (n < 1 || instances < 1 || repeat < 1) {
      throw Error("--n, --instances and --repeat must be >= 1");
    }

    std::vector<BipartiteGraph> pool;
    for (int i = 0; i < instances; ++i) {
      pool.push_back(dense_instance(0xBEEF + static_cast<std::uint64_t>(i),
                                    n, edges));
    }
    obs::Journal journal(8192);  // real size: wraparound costs included
    SampleSet journal_ratios;
    SampleSet all_sinks_ratios;
    std::uint64_t events = 0;
    for (int r = 0; r < 2 * repeat + 1; ++r) {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        double ms[3] = {0, 0, 0};  // plain, journal, all sinks
        for (int turn = 0; turn < 3; ++turn) {
          const int mode = (turn + r + static_cast<int>(i)) % 3;
          obs::MetricsRegistry registry;
          const obs::ScopedTelemetry scoped(mode == 2 ? &registry : nullptr,
                                            mode == 0 ? nullptr : &journal);
          const std::uint64_t recorded = journal.total_recorded();
          const Stopwatch timer;
          solve_kpbs(pool[i], {8, 1, Algorithm::kOGGP});
          ms[mode] = timer.elapsed_ms();
          if (mode == 2) events += journal.total_recorded() - recorded;
        }
        journal_ratios.add(ms[1] / ms[0]);
        all_sinks_ratios.add(ms[2] / ms[0]);
      }
    }

    const double journal_overhead = report("journal", journal_ratios);
    report("journal+metrics", all_sinks_ratios);
    std::cout << "journal events per solve: "
              << events / all_sinks_ratios.count() << '\n';
    if (max_journal_overhead > 0 && journal_overhead > max_journal_overhead) {
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
