#include "matching/peeling_context.hpp"

#include <algorithm>
#include <utility>

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
  // depends on the greedy seed — so no warm seed here. Only the edges that
  // died leave GGP's usable set, so dropping their arcs is the rebind.
  if (ggp_snapshot_) {
    hk_.drop_dead(dead_);
  } else {
    hk_.rebind(g);
  }
  ggp_snapshot_ = true;
  Matching result = hk_.solve();
#ifdef REDIST_VALIDATE
  REDIST_CHECK_MSG(result.edges == max_matching(g).edges,
                   "kept Hopcroft-Karp snapshot diverged from a fresh bind");
#endif
  return result;
}

Matching PeelingContext::bottleneck_perfect(const BipartiteGraph& g) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "perfect matching requires equal sides");
  const auto target = static_cast<std::size_t>(g.left_count());
  if (target == 0) return Matching{};

  ggp_snapshot_ = false;
  obs::MetricsRegistry* const metrics = obs::metrics();
  obs::TraceSpan search_span(obs::trace(), "bottleneck.search.warm");
  ensure_ledger(g);
#ifdef REDIST_VALIDATE
  REDIST_CHECK_MSG(ws_ == distinct_alive_weights(g),
                   "peeling context weight ledger out of sync");
#endif
  REDIST_CHECK_MSG(!ws_.empty(), "bottleneck: target unreachable");

  // Binary search over the ledger for the optimal threshold, landing on the
  // same index a from-scratch search finds: feasibility at a threshold is a
  // property of the graph alone, not of how a probe computes its maximum
  // matching. Four shortcuts make the search cheap:
  //  * `hi` is capped at the largest weight <= the previous step's
  //    bottleneck b, and probed first. The cap cannot cut off the optimum:
  //    any perfect matching M' of the peeled residual was a perfect
  //    matching before the peel, with weights at least as large, so
  //    min'(M') <= min(M') <= b. The cap probe is the canonical greedy run,
  //    so when it is feasible it is the step's matching and no replay runs;
  //  * the probe at ws_[0] is skipped — WRGP residuals are weight-regular,
  //    so a perfect matching always exists there (Hall); the canonical
  //    replay below still hard-checks it;
  //  * below the cap, a probe whose seed survives the threshold intact is
  //    feasible with no search at all (the seed is itself a perfect
  //    matching of the probe subgraph);
  //  * other probes augment from the seed instead of a greedy start.
  obs::Counter* const probe_counter =
      metrics != nullptr ? &metrics->counter("bottleneck.probes") : nullptr;
  obs::Counter* const seed_hits =
      metrics != nullptr ? &metrics->counter("warm.seed.hits") : nullptr;
  obs::Counter* const seed_misses =
      metrics != nullptr ? &metrics->counter("warm.seed.misses") : nullptr;

  std::size_t lo = 0;
  std::size_t hi = ws_.size() - 1;
  bool probe_cap = last_bottleneck_ > 0;
  if (probe_cap) {
    const auto above =
        std::upper_bound(ws_.begin(), ws_.end(), last_bottleneck_);
    hi = above == ws_.begin()
             ? 0
             : static_cast<std::size_t>(above - ws_.begin()) - 1;
  }
  // `cur` must be a matching of `g` for the seed-hit count below to mean
  // anything: the previous step's matching is one (same graph, peeled), a
  // cross-instance seed is filtered into one.
  Matching cur = seed_pending_ ? usable_seed(g, last_) : last_;
  seed_pending_ = false;
  Matching result;  // the canonical matching at ws_[lo], once it is known
  while (lo < hi) {
    const bool cap = std::exchange(probe_cap, false);
    const std::size_t mid = cap ? hi : lo + (hi - lo + 1) / 2;
    obs::TraceSpan probe_span(obs::trace(), "bottleneck.probe");
    if (probe_counter != nullptr) probe_counter->add();
    std::size_t surviving = 0;
    for (EdgeId e : cur.edges) {
      if (g.alive(e) && g.edge(e).weight >= ws_[mid]) ++surviving;
    }
    if (!cap && surviving >= target) {  // seed perfect at this threshold
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
    Matching candidate = cap ? hk_.solve() : hk_.solve_seeded(cur);
    const bool feasible = candidate.size() >= target;
    if (probe_span) {
      probe_span.arg("threshold", ws_[mid]);
      probe_span.arg("feasible", feasible);
      probe_span.arg("seed_hit", false);
    }
    if (feasible) {
      lo = mid;
      (cap ? result : cur) = std::move(candidate);
    } else {
      hi = mid - 1;
    }
  }

  // Canonical replay: a greedy-seeded run at the optimal threshold, so the
  // returned matching depends on the residual graph alone — the matching a
  // from-scratch search returns. A feasible cap probe already was this run.
  if (result.size() < target) {
    obs::TraceSpan replay_span(obs::trace(), "bottleneck.replay");
    if (replay_span) replay_span.arg("threshold", ws_[lo]);
    hk_.rebind_threshold(g, ws_[lo]);
    result = hk_.solve();
  }
  REDIST_CHECK_MSG(result.size() == target,
                   "no perfect matching exists (size "
                       << result.size() << " of " << target << ")");
  // Warm search and canonical replay must agree on the bottleneck value:
  // a strictly larger minimum would mean threshold ws_[lo + 1] was feasible,
  // contradicting the binary search.
  REDIST_CHECK_MSG(min_weight(g, result) == ws_[lo],
                   "warm bottleneck value diverged from threshold "
                       << ws_[lo]);
#ifdef REDIST_VALIDATE
  // Bottleneck-optimality certificate. The capped search never probes above
  // the previous bottleneck, so check here that the threshold it settled on
  // respects the cap and that the next distinct weight has no perfect
  // matching.
  REDIST_CHECK_MSG(last_bottleneck_ == 0 || ws_[lo] <= last_bottleneck_,
                   "bottleneck " << ws_[lo] << " exceeds the previous step's "
                                 << last_bottleneck_);
  if (lo + 1 < ws_.size()) {
    hk_.rebind_threshold(g, ws_[lo + 1]);
    REDIST_CHECK_MSG(hk_.solve().size() < target,
                     "bottleneck " << ws_[lo] << " is not optimal: threshold "
                                   << ws_[lo + 1] << " has a perfect matching");
  }
#endif
  last_bottleneck_ = ws_[lo];
  if (search_span) {
    search_span.arg("distinct_weights", ws_.size());
    search_span.arg("bottleneck", ws_[lo]);
  }
  last_ = result;
  return result;
}

void PeelingContext::before_peel(const BipartiteGraph& g, const Matching& m,
                                 Weight amount) {
  REDIST_CHECK(amount > 0);
  dead_.clear();
  for (EdgeId e : m.edges) {
    const Weight old_weight = g.edge(e).weight;
    REDIST_CHECK_MSG(old_weight >= amount,
                     "peel amount exceeds residual weight");
    if (old_weight == amount) dead_.push_back(e);
    if (!tracking_weights_) continue;  // GGP path: ledger never materialized
    auto at = std::lower_bound(ws_.begin(), ws_.end(), old_weight);
    REDIST_CHECK_MSG(at != ws_.end() && *at == old_weight,
                     "peeling context weight ledger out of sync");
    if (--counts_[static_cast<std::size_t>(at - ws_.begin())] == 0) {
      counts_.erase(counts_.begin() + (at - ws_.begin()));
      ws_.erase(at);
    }
    const Weight new_weight = old_weight - amount;
    if (new_weight == 0) continue;
    at = std::lower_bound(ws_.begin(), ws_.end(), new_weight);
    if (at == ws_.end() || *at != new_weight) {
      counts_.insert(counts_.begin() + (at - ws_.begin()), 0);
      at = ws_.insert(at, new_weight);
    }
    ++counts_[static_cast<std::size_t>(at - ws_.begin())];
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
  ws_.clear();
  counts_.clear();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.alive(e)) ws_.push_back(g.edge(e).weight);
  }
  std::sort(ws_.begin(), ws_.end());
  for (std::size_t i = 0; i < ws_.size(); ++i) {
    if (i == 0 || ws_[i] != ws_[i - 1]) counts_.push_back(0);
    ++counts_.back();
  }
  ws_.erase(std::unique(ws_.begin(), ws_.end()), ws_.end());
  tracking_weights_ = true;
}

}  // namespace redist
