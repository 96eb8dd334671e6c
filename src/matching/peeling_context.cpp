#include "matching/peeling_context.hpp"

#include <algorithm>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace redist {

namespace {

// The edges of a seed() that can seed a search over `g`: ids that name
// alive edges, each kept only if neither endpoint is claimed by an earlier
// kept edge. The result is a matching of `g`.
Matching usable_seed(const BipartiteGraph& g, const Matching& seed) {
  std::vector<char> left_used(static_cast<std::size_t>(g.left_count()), 0);
  std::vector<char> right_used(static_cast<std::size_t>(g.right_count()), 0);
  Matching kept;
  for (EdgeId e : seed.edges) {
    if (e < 0 || e >= g.edge_count() || !g.alive(e)) continue;
    const Edge& edge = g.edge(e);
    char& left = left_used[static_cast<std::size_t>(edge.left)];
    char& right = right_used[static_cast<std::size_t>(edge.right)];
    if (left != 0 || right != 0) continue;
    left = right = 1;
    kept.edges.push_back(e);
  }
  return kept;
}

#ifdef REDIST_VALIDATE
// Distinct alive-edge weights, ascending: the recomputation the ledger is
// cross-checked against.
std::vector<Weight> distinct_alive_weights(const BipartiteGraph& g) {
  std::vector<Weight> out;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.alive(e)) out.push_back(g.edge(e).weight);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}
#endif

}  // namespace

Matching PeelingContext::arbitrary_perfect(const BipartiteGraph& g) {
  // GGP's matching must stay bit-identical to max_matching(g), whose result
  // depends on the greedy seed — so no warm seed here, only buffer reuse.
  hk_.rebind(g);
  last_ = hk_.solve();
  return last_;
}

Matching PeelingContext::bottleneck_perfect(const BipartiteGraph& g) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "perfect matching requires equal sides");
  const auto target = static_cast<std::size_t>(g.left_count());
  if (target == 0) return Matching{};

  obs::MetricsRegistry* const metrics = obs::metrics();
  obs::TraceSpan search_span(obs::trace(), "bottleneck.search.warm");
  ensure_ledger(g);

  // Ascending distinct residual weights, by ledger traversal (no sort).
  ws_.clear();
  ws_.reserve(weight_count_.size());
  for (const auto& entry : weight_count_) ws_.push_back(entry.first);
#ifdef REDIST_VALIDATE
  REDIST_CHECK_MSG(ws_ == distinct_alive_weights(g),
                   "peeling context weight ledger out of sync");
#endif
  REDIST_CHECK_MSG(!ws_.empty(), "bottleneck: target unreachable");

  // Binary search for the optimal threshold, landing on the same index a
  // from-scratch search finds: feasibility at a threshold is a property of
  // the graph alone, not of how a probe computes its maximum matching. Three
  // warm shortcuts make the probes cheap:
  //  * the probe at ws_[0] is skipped — WRGP residuals are weight-regular,
  //    so a perfect matching always exists there (Hall); the canonical
  //    replay below still hard-checks it;
  //  * a probe whose seed survives the threshold intact is feasible with no
  //    search at all (the seed is itself a perfect matching of the probe
  //    subgraph);
  //  * other probes augment from the seed under an O(1) weight-threshold
  //    predicate instead of an O(m) mask fill.
  obs::Counter* const probe_counter =
      metrics != nullptr ? &metrics->counter("bottleneck.probes") : nullptr;
  obs::Counter* const seed_hits =
      metrics != nullptr ? &metrics->counter("warm.seed.hits") : nullptr;
  obs::Counter* const seed_misses =
      metrics != nullptr ? &metrics->counter("warm.seed.misses") : nullptr;

  std::size_t lo = 0;
  std::size_t hi = ws_.size() - 1;
  // `cur` must be a matching of `g` for the seed-hit count below to mean
  // anything: the previous step's matching is one (same graph, peeled), a
  // cross-instance seed is filtered into one.
  Matching cur = seed_pending_ ? usable_seed(g, last_) : last_;
  seed_pending_ = false;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    obs::TraceSpan probe_span(obs::trace(), "bottleneck.probe");
    if (probe_counter != nullptr) probe_counter->add();
    std::size_t surviving = 0;
    for (EdgeId e : cur.edges) {
      if (g.alive(e) && g.edge(e).weight >= ws_[mid]) ++surviving;
    }
    if (surviving >= target) {  // seed already perfect at this threshold
      if (seed_hits != nullptr) seed_hits->add();
      if (probe_span) {
        probe_span.arg("threshold", ws_[mid]);
        probe_span.arg("feasible", true);
        probe_span.arg("seed_hit", true);
      }
      lo = mid;
      continue;
    }
    if (seed_misses != nullptr) seed_misses->add();
    hk_.rebind_threshold(g, ws_[mid]);
    Matching candidate = hk_.solve_seeded(cur);
    const bool feasible = candidate.size() >= target;
    if (probe_span) {
      probe_span.arg("threshold", ws_[mid]);
      probe_span.arg("feasible", feasible);
      probe_span.arg("seed_hit", false);
    }
    if (feasible) {
      lo = mid;
      cur = std::move(candidate);
    } else {
      hi = mid - 1;
    }
  }

  // Canonical replay: a greedy-seeded run at the optimal threshold, so the
  // returned matching (not just its bottleneck value) depends on the
  // residual graph alone — the matching a from-scratch search returns.
  obs::TraceSpan replay_span(obs::trace(), "bottleneck.replay");
  if (replay_span) replay_span.arg("threshold", ws_[lo]);
  hk_.rebind_threshold(g, ws_[lo]);
  Matching result = hk_.solve();
  REDIST_CHECK_MSG(result.size() == target,
                   "no perfect matching exists (size "
                       << result.size() << " of " << target << ")");
  // Warm search and canonical replay must agree on the bottleneck value:
  // a strictly larger minimum would mean threshold ws_[lo + 1] was feasible,
  // contradicting the binary search.
  REDIST_CHECK_MSG(min_weight(g, result) == ws_[lo],
                   "warm bottleneck value diverged from threshold "
                       << ws_[lo]);
  if (search_span) {
    search_span.arg("distinct_weights", ws_.size());
    search_span.arg("bottleneck", ws_[lo]);
  }
  last_ = result;
  return result;
}

void PeelingContext::before_peel(const BipartiteGraph& g, const Matching& m,
                                 Weight amount) {
  if (!tracking_weights_) return;  // GGP path: ledger never materialized
  REDIST_CHECK(amount > 0);
  for (EdgeId e : m.edges) {
    const Weight old_weight = g.edge(e).weight;
    REDIST_CHECK_MSG(old_weight >= amount,
                     "peel amount exceeds residual weight");
    const auto it = weight_count_.find(old_weight);
    REDIST_CHECK_MSG(it != weight_count_.end() && it->second > 0,
                     "peeling context weight ledger out of sync");
    if (--(it->second) == 0) weight_count_.erase(it);
    const Weight new_weight = old_weight - amount;
    if (new_weight > 0) ++weight_count_[new_weight];
  }
}

void PeelingContext::ensure_ledger(const BipartiteGraph& g) {
  obs::MetricsRegistry* const metrics = obs::metrics();
  if (tracking_weights_) {
    // Ledger carried over from the previous step: the O(m log m) rebuild
    // below was avoided.
    if (metrics != nullptr) metrics->counter("warm.ledger.hits").add();
    obs::journal_record(obs::JournalEventKind::kLedgerHit);
    return;
  }
  if (metrics != nullptr) {
    metrics->counter("warm.ledger.hits");  // materialize the pair in exports
    metrics->counter("warm.ledger.misses").add();
  }
  obs::journal_record(obs::JournalEventKind::kLedgerMiss,
                      static_cast<std::int64_t>(g.edge_count()));
  weight_count_.clear();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.alive(e)) ++weight_count_[g.edge(e).weight];
  }
  tracking_weights_ = true;
}

}  // namespace redist
