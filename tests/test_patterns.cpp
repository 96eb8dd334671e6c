#include "workload/patterns.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "kpbs/lower_bound.hpp"
#include "kpbs/solver.hpp"

namespace redist {
namespace {

// The two shapes below are built here: no workload generates them, and
// they matter to the solver only as inputs.

// One-to-one exchange (a random permutation), each pair a uniform size in
// [min_bytes, max_bytes]: the best case, a single step.
TrafficMatrix permutation_matrix(Rng& rng, NodeId nodes, Bytes min_bytes,
                                 Bytes max_bytes) {
  std::vector<NodeId> perm(static_cast<std::size_t>(nodes));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  TrafficMatrix m(nodes, nodes);
  for (NodeId i = 0; i < nodes; ++i) {
    m.set(i, perm[static_cast<std::size_t>(i)],
          rng.uniform_int(min_bytes, max_bytes));
  }
  return m;
}

// All pairs with Zipf sizes: the rank r pair (ranks shuffled) ships
// max_bytes / r^exponent, a few giant messages among many small ones —
// the input that stresses preemption.
TrafficMatrix zipf_matrix(Rng& rng, NodeId nodes, Bytes max_bytes,
                          double exponent) {
  std::vector<std::int64_t> order(static_cast<std::size_t>(nodes) *
                                  static_cast<std::size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  TrafficMatrix m(nodes, nodes);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const auto size = static_cast<Bytes>(
        static_cast<double>(max_bytes) /
        std::pow(static_cast<double>(rank + 1), exponent));
    if (size >= 1) {
      m.set(static_cast<NodeId>(order[rank] / nodes),
            static_cast<NodeId>(order[rank] % nodes), size);
    }
  }
  return m;
}

TEST(Patterns, HotspotConcentratesTraffic) {
  Rng rng(1);
  const TrafficMatrix m = hotspot_traffic(rng, 6, 6, 2, 0.7, 100'000);
  Bytes hot = 0;
  for (NodeId i = 0; i < 6; ++i) hot += m.at(i, 2);
  EXPECT_GT(hot, m.total() / 2);
  // Every sender ships roughly its configured volume (cold jitter only
  // shrinks it).
  for (NodeId i = 0; i < 6; ++i) {
    Bytes row = 0;
    for (NodeId j = 0; j < 6; ++j) row += m.at(i, j);
    EXPECT_LE(row, 100'000);
    EXPECT_GT(row, 60'000);
  }
}

TEST(Patterns, HotspotValidation) {
  Rng rng(2);
  EXPECT_THROW(hotspot_traffic(rng, 2, 2, 5, 0.5, 100), Error);
  EXPECT_THROW(hotspot_traffic(rng, 2, 2, 0, 0.0, 100), Error);
  EXPECT_THROW(hotspot_traffic(rng, 2, 2, 0, 1.0, 100), Error);
  EXPECT_THROW(hotspot_traffic(rng, 2, 2, 0, 0.5, 0), Error);
}

TEST(Patterns, HotspotStressesSingleReceiverBound) {
  // With a hot receiver, W(G) concentrates there; the scheduler must still
  // produce a feasible schedule whose cost tracks the lower bound.
  Rng rng(3);
  const TrafficMatrix m = hotspot_traffic(rng, 8, 8, 0, 0.8, 1'000'000);
  const BipartiteGraph g = m.to_graph(100'000.0);
  const Schedule s = solve_kpbs(g, {4, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 4);
  EXPECT_LE(Rational(s.cost(1)),
            Rational(2) * kpbs_lower_bound(g, 4, 1).value());
}

TEST(Patterns, PermutationIsOneToOne) {
  Rng rng(4);
  const TrafficMatrix m = permutation_matrix(rng, 10, 100, 200);
  for (NodeId i = 0; i < 10; ++i) {
    int row_nonzero = 0;
    for (NodeId j = 0; j < 10; ++j) row_nonzero += (m.at(i, j) > 0);
    EXPECT_EQ(row_nonzero, 1);
  }
  for (NodeId j = 0; j < 10; ++j) {
    int col_nonzero = 0;
    for (NodeId i = 0; i < 10; ++i) col_nonzero += (m.at(i, j) > 0);
    EXPECT_EQ(col_nonzero, 1);
  }
}

TEST(Patterns, PermutationSchedulesInOneStep) {
  Rng rng(5);
  const TrafficMatrix m = permutation_matrix(rng, 6, 50'000, 50'000);
  const BipartiteGraph g = m.to_graph(50'000.0);
  const Schedule s = solve_kpbs(g, {6, 1, Algorithm::kOGGP}).schedule;
  validate_schedule(g, s, 6);
  EXPECT_EQ(s.step_count(), 1u);
}

TEST(Patterns, BandedCoversEveryRowOnce) {
  const std::int64_t rows = 1000;
  const TrafficMatrix m = banded_traffic(rows, 8, 5, 3);
  EXPECT_EQ(m.total(), rows * 8);
  // Each sender touches a contiguous window of receivers.
  for (NodeId i = 0; i < 5; ++i) {
    NodeId first = -1;
    NodeId last = -1;
    for (NodeId j = 0; j < 3; ++j) {
      if (m.at(i, j) > 0) {
        if (first == -1) first = j;
        last = j;
      }
    }
    ASSERT_NE(first, -1);
    for (NodeId j = first; j <= last; ++j) EXPECT_GT(m.at(i, j), 0);
  }
}

TEST(Patterns, ZipfIsHeavyTailed) {
  Rng rng(6);
  const TrafficMatrix m = zipf_matrix(rng, 8, 1'000'000, 1.2);
  Bytes biggest = 0;
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) biggest = std::max(biggest, m.at(i, j));
  }
  EXPECT_EQ(biggest, 1'000'000);  // rank-1 pair gets the full size
  // Heavy tail: the top pair alone carries a large share of the volume and
  // most pairs are tiny compared to it.
  EXPECT_GT(biggest * 5, m.total());
  int tiny = 0;
  int nonzero = 0;
  for (NodeId i = 0; i < 8; ++i) {
    for (NodeId j = 0; j < 8; ++j) {
      if (m.at(i, j) > 0) {
        ++nonzero;
        tiny += (m.at(i, j) < biggest / 20);
      }
    }
  }
  EXPECT_GT(tiny * 2, nonzero);
}

TEST(Patterns, ZipfSchedulesValidly) {
  Rng rng(7);
  const TrafficMatrix m = zipf_matrix(rng, 8, 1'000'000, 1.0);
  const BipartiteGraph g = m.to_graph(10'000.0);
  for (const Algorithm algo : {Algorithm::kGGP, Algorithm::kOGGP}) {
    const Schedule s = solve_kpbs(g, {3, 1, algo}).schedule;
    validate_schedule(g, s, 3);
  }
}

}  // namespace
}  // namespace redist
