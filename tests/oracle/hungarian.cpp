#include "oracle/hungarian.hpp"

#include <limits>
#include <vector>

namespace redist {

namespace {

// Classic O(n^3) Hungarian algorithm for the min-cost assignment problem,
// 1-based internally (row 0 / column 0 are sentinels). Returns, for each
// column j (1..n), the row assigned to it.
std::vector<int> hungarian_min_cost(
    const std::vector<std::vector<std::int64_t>>& a) {
  const int n = static_cast<int>(a.size());
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> u(static_cast<std::size_t>(n) + 1, 0);
  std::vector<std::int64_t> v(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> p(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> way(static_cast<std::size_t>(n) + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<std::int64_t> minv(static_cast<std::size_t>(n) + 1, kInf);
    std::vector<char> used(static_cast<std::size_t>(n) + 1, 0);
    do {
      used[static_cast<std::size_t>(j0)] = 1;
      const int i0 = p[static_cast<std::size_t>(j0)];
      std::int64_t delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) continue;
        const std::int64_t cur =
            a[static_cast<std::size_t>(i0 - 1)][static_cast<std::size_t>(
                j - 1)] -
            u[static_cast<std::size_t>(i0)] - v[static_cast<std::size_t>(j)];
        if (cur < minv[static_cast<std::size_t>(j)]) {
          minv[static_cast<std::size_t>(j)] = cur;
          way[static_cast<std::size_t>(j)] = j0;
        }
        if (minv[static_cast<std::size_t>(j)] < delta) {
          delta = minv[static_cast<std::size_t>(j)];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[static_cast<std::size_t>(j)]) {
          u[static_cast<std::size_t>(p[static_cast<std::size_t>(j)])] += delta;
          v[static_cast<std::size_t>(j)] -= delta;
        } else {
          minv[static_cast<std::size_t>(j)] -= delta;
        }
      }
      j0 = j1;
    } while (p[static_cast<std::size_t>(j0)] != 0);
    do {
      const int j1 = way[static_cast<std::size_t>(j0)];
      p[static_cast<std::size_t>(j0)] = p[static_cast<std::size_t>(j1)];
      j0 = j1;
    } while (j0 != 0);
  }
  return p;  // p[j] = row assigned to column j (1-based)
}

}  // namespace

Matching max_weight_perfect_matching(const BipartiteGraph& g) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "perfect matching requires equal sides");
  const int n = static_cast<int>(g.left_count());
  Matching result;
  if (n == 0) return result;

  // Dense best-edge table: per pair, the heaviest alive edge.
  std::vector<std::vector<EdgeId>> best(
      static_cast<std::size_t>(n),
      std::vector<EdgeId>(static_cast<std::size_t>(n), kNoEdge));
  Weight max_w = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    EdgeId& slot = best[static_cast<std::size_t>(edge.left)]
                       [static_cast<std::size_t>(edge.right)];
    if (slot == kNoEdge || g.edge(slot).weight < edge.weight) slot = e;
    max_w = std::max(max_w, edge.weight);
  }

  // Minimize (max_w - w); missing pairs cost enough that any all-real
  // perfect matching beats any matching using them.
  const std::int64_t missing =
      (max_w + 1) * (static_cast<std::int64_t>(n) + 1);
  std::vector<std::vector<std::int64_t>> cost(
      static_cast<std::size_t>(n),
      std::vector<std::int64_t>(static_cast<std::size_t>(n), missing));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const EdgeId e =
          best[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (e != kNoEdge) {
        cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            max_w - g.edge(e).weight;
      }
    }
  }

  const std::vector<int> assignment = hungarian_min_cost(cost);
  for (int j = 1; j <= n; ++j) {
    const int i = assignment[static_cast<std::size_t>(j)];
    const EdgeId e = best[static_cast<std::size_t>(i - 1)]
                         [static_cast<std::size_t>(j - 1)];
    REDIST_CHECK_MSG(e != kNoEdge, "no perfect matching exists");
    result.edges.push_back(e);
  }
  REDIST_CHECK(is_perfect_matching(g, result));
  return result;
}

}  // namespace redist
