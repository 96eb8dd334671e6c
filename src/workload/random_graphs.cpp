#include "workload/random_graphs.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

namespace redist {

BipartiteGraph random_bipartite(Rng& rng, const RandomGraphConfig& config) {
  REDIST_CHECK(config.max_left >= 1 && config.max_right >= 1);
  REDIST_CHECK(config.max_edges >= 1);
  REDIST_CHECK(config.min_weight >= 1 &&
               config.min_weight <= config.max_weight);

  const auto n1 = static_cast<NodeId>(rng.uniform_int(1, config.max_left));
  const auto n2 = static_cast<NodeId>(rng.uniform_int(1, config.max_right));
  const std::int64_t max_pairs =
      static_cast<std::int64_t>(n1) * static_cast<std::int64_t>(n2);
  const std::int64_t m =
      rng.uniform_int(1, std::min<std::int64_t>(config.max_edges, max_pairs));

  BipartiteGraph g(n1, n2);
  if (m * 2 >= max_pairs) {
    // Dense case: shuffle all pairs and take a prefix.
    std::vector<std::int64_t> pairs(static_cast<std::size_t>(max_pairs));
    std::iota(pairs.begin(), pairs.end(), 0);
    std::shuffle(pairs.begin(), pairs.end(), rng);
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int64_t p = pairs[static_cast<std::size_t>(i)];
      g.add_edge(static_cast<NodeId>(p / n2), static_cast<NodeId>(p % n2),
                 rng.uniform_int(config.min_weight, config.max_weight));
    }
  } else {
    // Sparse case: rejection sampling of distinct pairs.
    std::unordered_set<std::int64_t> seen;
    while (static_cast<std::int64_t>(seen.size()) < m) {
      const std::int64_t p = rng.uniform_int(0, max_pairs - 1);
      if (seen.insert(p).second) {
        g.add_edge(static_cast<NodeId>(p / n2), static_cast<NodeId>(p % n2),
                   rng.uniform_int(config.min_weight, config.max_weight));
      }
    }
  }
  return g;
}

}  // namespace redist
