#include "oracle/weight_regular.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace redist {

BipartiteGraph random_weight_regular(Rng& rng, NodeId n, int layers,
                                     Weight min_weight, Weight max_weight) {
  REDIST_CHECK(n >= 1 && layers >= 1);
  REDIST_CHECK(min_weight >= 1 && min_weight <= max_weight);
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::map<std::pair<NodeId, NodeId>, Weight> merged;
  for (int layer = 0; layer < layers; ++layer) {
    std::shuffle(perm.begin(), perm.end(), rng);
    const Weight w = rng.uniform_int(min_weight, max_weight);
    for (NodeId i = 0; i < n; ++i) {
      merged[{i, perm[static_cast<std::size_t>(i)]}] += w;
    }
  }
  BipartiteGraph g(n, n);
  for (const auto& [pair, w] : merged) g.add_edge(pair.first, pair.second, w);
  Weight c = 0;
  REDIST_CHECK(g.is_weight_regular(&c));
  return g;
}

}  // namespace redist
