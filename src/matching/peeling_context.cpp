#include "matching/peeling_context.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace redist {

namespace {

constexpr Weight kNever = std::numeric_limits<Weight>::max();

// The heaviest alive edge among `adjacent`, or 0 if none is alive.
Weight heaviest(const BipartiteGraph& g, const std::vector<EdgeId>& adjacent) {
  Weight w = 0;
  for (EdgeId e : adjacent) w = std::max(w, g.edge(e).weight);
  return w;
}

// An upper bound on the optimal bottleneck with no previous step: a perfect
// matching covers every node, so it is at most each node's heaviest alive
// edge. 0 if some node has no alive edge.
Weight lightest_heaviest_edge(const BipartiteGraph& g) {
  Weight cap = std::numeric_limits<Weight>::max();
  for (NodeId v = 0; v < g.left_count(); ++v) {
    cap = std::min(cap, heaviest(g, g.edges_of_left(v)));
  }
  for (NodeId v = 0; v < g.right_count(); ++v) {
    cap = std::min(cap, heaviest(g, g.edges_of_right(v)));
  }
  return cap;
}

// The largest alive weight <= `bound`, or 0 if none.
Weight largest_weight_at_most(const BipartiteGraph& g, Weight bound) {
  Weight w = 0;
  for (const Edge& edge : g.edges()) {
    if (edge.weight <= bound) w = std::max(w, edge.weight);
  }
  return w;
}

}  // namespace

void PeelingContext::start(BipartiteGraph& g, bool bottleneck,
                           NodeId real_left, NodeId real_right) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "WRGP needs equal side sizes, got "
                       << g.left_count() << "x" << g.right_count());
  Weight c = 0;
  REDIST_CHECK_MSG(g.is_weight_regular(&c),
                   "WRGP requires a weight-regular graph");
  bind(g, bottleneck);
  writable_ = &g;
  real_left_ = real_left;
  real_right_ = real_right;
  regular_ = c;
}

void PeelingContext::bind(const BipartiteGraph& g, bool bottleneck) {
  g_ = &g;
  writable_ = nullptr;
  bottleneck_ = bottleneck;
  real_left_ = real_right_ = 0;
  clock_ = regular_ = last_bottleneck_ = threshold_ = 0;
  stale_ = false;
  const auto n = static_cast<std::size_t>(g.left_count());
  for (auto* buffer : {&fallen_, &free_, &real_out_, &mate_, &owner_, &via_}) {
    buffer->resize(n);
  }
  for (auto* buffer : {&written_, &width_}) buffer->resize(n);
  real_.resize(2 * n);  // the matched ones, and the ones that left since
  due_.resize(n);
  for (auto* buffer : {&next_, &prev_}) buffer->resize(n);
  std::size_t turns = 1;
  while (turns < n) turns *= 2;
  head_.resize(turns);
  released_.assign(n, 0);
  // A widest-path search pushes each free left node once, then at most
  // once per arc.
  heap_.resize(n + static_cast<std::size_t>(g.edge_count()));
  obs::MetricsRegistry* const metrics = obs::metrics();
  hk_.count_into(metrics);
  obs::MetricsRegistry* const search = bottleneck ? metrics : nullptr;
  probes_ = obs::counter_or_null(search, "bottleneck.probes");
  widest_paths_ = obs::counter_or_null(search, "bottleneck.widest_paths");
  rebinds_ = obs::counter_or_null(search, "bottleneck.rebinds");
}

Weight PeelingContext::step() {
  const Weight t = bottleneck_ ? select_oggp() : select_ggp();
  advance(t);
  if (!peeling()) flush_matching();  // the last step empties the graph
  return t;
}

Matching PeelingContext::arbitrary_perfect(const BipartiteGraph& g) {
  if (g_ != &g || bottleneck_) bind(g, false);
  select_ggp();
  return hk_.matching();
}

Matching PeelingContext::bottleneck_perfect(const BipartiteGraph& g) {
  REDIST_CHECK_MSG(g.left_count() == g.right_count(),
                   "perfect matching requires equal sides");
  if (g.left_count() == 0) return Matching{};
  if (g_ != &g || !bottleneck_) bind(g, true);
  select_oggp();
  return hk_.matching();
}

void PeelingContext::before_peel(const BipartiteGraph& g, const Matching& m,
                                 Weight amount) {
  REDIST_CHECK_MSG(&g == g_ && m.size() == hk_.size(),
                   "before_peel: not the matching this context chose");
  advance(amount);
  // The caller lowers every matched edge next.
  std::fill(written_.begin(), written_.end(), clock_);
  stale_ = false;
}

Weight PeelingContext::select_ggp() {
  // GGP's matching must stay bit-identical to max_matching(g), whose result
  // depends on the greedy seed — so no warm seed here. Only the edges that
  // died leave GGP's usable set, so dropping their arcs is the rebind.
  if (threshold_ == 0) {
    rebuild(1, Seed::kCold);
  } else {
    flush_matching();
    hk_.shrink({fallen_.data(), fallen_count_});
    hk_.maximize();
  }
  last_bottleneck_ = enroll_matching();
  const auto n = static_cast<std::size_t>(g_->left_count());
  REDIST_CHECK_MSG(hk_.size() == n,
                   "strategy did not return a perfect matching (size "
                       << hk_.size() << " of " << n << ")");
  return last_bottleneck_;
}

Weight PeelingContext::select_oggp() {
  const auto target = static_cast<std::size_t>(g_->left_count());

  // The cap T bounds the optimum t* from above. After a step with
  // bottleneck b, any perfect matching M' of the peeled residual was a
  // perfect matching before the peel, with weights at least as large, so
  // min'(M') <= min(M') <= b: T is the largest alive weight <= b.
  // Each step leaves hk_ bound at its b; the peel lowers only matched edges,
  // and edges outside the snapshot weigh < b. So the snapshot minus the
  // fallen edges is G_b, and while it holds a weight-b edge, T = b.
  const Weight b = last_bottleneck_;
  const bool reused = b > 0 && (idle_ > 0 || tight());
  Weight cap = b;
  if (reused) {
    // Keep the matching minus the fallen edges; complete() seeds the
    // edges this step would kill, then repairs.
    const std::span<const EdgeId> fallen(fallen_.data(), fallen_count_);
    for (std::size_t i = 0; i < fallen.size(); ++i) {
      free_[i] = g_->edges()[static_cast<std::size_t>(fallen[i])].left;
      flush(free_[i], fallen[i]);
    }
    std::sort(free_.begin(),
              free_.begin() + static_cast<std::ptrdiff_t>(fallen.size()));
    hk_.shrink(fallen);
    hk_.complete({free_.data(), fallen.size()});
    absorb(hk_.size() == target);
  } else {
    // The first step runs the cold solve; later ones repair the previous
    // matching's survivors, then take the edges this step would kill.
    flush_matching();
    cap = b > 0 ? largest_weight_at_most(*g_, b) : lightest_heaviest_edge(*g_);
    REDIST_CHECK_MSG(cap > 0,
                     "no perfect matching exists (no alive weight at or "
                     "below the cap)");
    rebuild(cap, b > 0 ? Seed::kSurvivors : Seed::kCold);
  }
  obs::add_count(probes_);

  // Widest augmenting paths from the probe's maximum matching of G_T. The
  // matching stays inside G_{t*} (induction on the paths): G_{t*} has a
  // perfect matching, so a path of width >= t* always exists and t never
  // drops below t*. The final matching is perfect inside G_t, so t <= t*.
  Weight t = cap;
  std::uint64_t widest = 0;
  if (hk_.size() < target) {
    flush_matching();  // the search reads every weight
    std::fill(owner_.begin(), owner_.end(), kNoNode);
    for (NodeId u = 0; u < g_->left_count(); ++u) {
      const EdgeId e = hk_.matched_edge_of_left(u);
      mate_[static_cast<std::size_t>(u)] = e;
      if (e != kNoEdge) owner_[static_cast<std::size_t>(g_->edge(e).right)] = u;
    }
    for (std::size_t d = hk_.size(); d < target; ++d, ++widest) {
      t = widest_augment(*g_, t);  // a path is never wider than t
      REDIST_CHECK_MSG(t > 0, "no perfect matching exists (size "
                                  << d << " of " << target << ")");
    }
    // The widest-path matching is already perfect with minimum t*. Repair
    // it at t* behind the weight-t* edges, so the step kills as many edges
    // as the seed can hold; the repair keeps it perfect inside G_{t*}.
    rebuild(t, Seed::kWidest);
  }
  if (!reused || t < cap) enroll_matching();  // a rebind chose the matching
  REDIST_CHECK_MSG(hk_.size() == target, "no perfect matching exists (size "
                                             << hk_.size() << " of " << target
                                             << ")");
  // A perfect matching inside G_t has minimum >= t; a strictly larger one
  // would mean the widest paths stopped below t*.
  REDIST_CHECK_MSG(tight(),
                   "warm bottleneck value diverged from threshold " << t);
  last_bottleneck_ = t;
  obs::add_count(widest_paths_, widest);
  obs::add_count(rebinds_, (reused ? 0U : 1U) + (t < cap ? 1U : 0U));
  return t;
}

void PeelingContext::advance(Weight t) {
  REDIST_CHECK_MSG(t > 0 && t == last_bottleneck_,
                   "peel amount " << t << " is not the step's minimum");
  clock_ += t;
  stale_ = true;
  if (!bottleneck_) return;  // enroll_matching() listed GGP's edges
  fallen_count_ = 0;
  real_out_count_ = 0;
  const std::vector<Edge>& edges = g_->edges();
  // real_ lists the real edges that joined the matching; drop the ones
  // that have left it since.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < real_count_; ++i) {
    const EdgeId e = real_[i];
    const NodeId u = edges[static_cast<std::size_t>(e)].left;
    if (hk_.matched_edge_of_left(u) == e) real_[kept++] = e;
  }
  real_count_ = real_out_count_ = kept;
  const auto out = real_out_.begin();
  std::copy_n(real_.begin(), kept, out);
  std::sort(out, out + static_cast<std::ptrdiff_t>(real_count_),
            [&edges](EdgeId a, EdgeId b) {
              return edges[static_cast<std::size_t>(a)].left <
                     edges[static_cast<std::size_t>(b)].left;
            });
  // The next threshold is t: an edge falls below it once less than t of
  // its weight is left, at the turn its reach falls in.
  const Weight turn = ++turn_;
  for (NodeId u = head_[static_cast<std::size_t>(turn) & (head_.size() - 1)];
       u != kNoNode;) {
    const NodeId next = next_[static_cast<std::size_t>(u)];
    if (due_[static_cast<std::size_t>(u)] == turn) {
      fallen_[fallen_count_++] = hk_.matched_edge_of_left(u);
      unlink(u);
    }
    u = next;
  }
}

void PeelingContext::flush(NodeId u, EdgeId e) {
  Weight& written = written_[static_cast<std::size_t>(u)];
  if (written == clock_) return;
  REDIST_CHECK_MSG(writable_ != nullptr,
                   "edge " << e << " was peeled but never written");
  writable_->decrease_weight(e, clock_ - written);
  written = clock_;
}

void PeelingContext::flush_matching() {
  if (!stale_) return;
  stale_ = false;
  for (NodeId u = 0; u < g_->left_count(); ++u) {
    const EdgeId e = hk_.matched_edge_of_left(u);
    if (e != kNoEdge) flush(u, e);
  }
}

void PeelingContext::rebuild(Weight threshold, Seed seed) {
  seed_.edges.clear();
  for (NodeId u = 0; seed == Seed::kSurvivors && u < g_->left_count(); ++u) {
    const EdgeId e = hk_.matched_edge_of_left(u);
    if (e != kNoEdge && g_->alive(e)) seed_.edges.push_back(e);
  }
  hk_.rebind_threshold(*g_, threshold);
  threshold_ = threshold;
  if (seed == Seed::kCold) {
    hk_.maximize();
  } else {
    const std::span<const EdgeId> at = hk_.threshold_edges();
    seed_.edges.insert(seed_.edges.end(), at.begin(), at.end());
    if (seed == Seed::kWidest) {
      seed_.edges.insert(seed_.edges.end(), mate_.begin(), mate_.end());
    }
    hk_.solve_seeded(seed_);
  }
  // Every weight was written before the rebind.
  std::fill(written_.begin(), written_.end(), clock_);
  stale_ = false;
}

Weight PeelingContext::enroll_matching() {
  idle_ = hk_.threshold_edges().size();
  real_count_ = 0;
  stale_ = false;
  origin_ = clock_;
  turn_ = 0;
  if (bottleneck_) {
    std::fill(head_.begin(), head_.end(), kNoNode);
    std::fill(due_.begin(), due_.end(), kUnlinked);
  }
  Weight least = kNever;
  fallen_count_ = real_out_count_ = 0;
  for (NodeId u = 0; u < g_->left_count(); ++u) {
    const EdgeId e = hk_.matched_edge_of_left(u);
    if (e == kNoEdge) continue;
    const Weight w = enroll(e);
    if (bottleneck_) {
      least = std::min(least, w);
      continue;
    }
    // GGP's step peels the least weight off every matched edge, and the
    // ones that weigh it die (flush_matching() ran before the solve, so
    // the weights are exact). List them and the real edges here, so
    // advance() need not pass over the matching again.
    fallen_count_ = w < least ? 0 : fallen_count_;
    least = std::min(least, w);
    if (w == least) fallen_[fallen_count_++] = e;
    if (real(g_->edges()[static_cast<std::size_t>(e)])) {
      real_out_[real_out_count_++] = e;
    }
  }
  return least;
}

Weight PeelingContext::enroll(EdgeId e) {
  const Edge& edge = g_->edges()[static_cast<std::size_t>(e)];
  REDIST_CHECK_MSG(
      edge.weight >= threshold_ && hk_.matched_edge_of_right(edge.right) == e,
      "edge " << e << " joined the matching below the threshold or at a "
                      "taken endpoint");
  const auto u = static_cast<std::size_t>(edge.left);
  written_[u] = clock_;
  if (!bottleneck_) return edge.weight;
  // The turn (peel since origin_, each of threshold_) after which less
  // than threshold_ is left on the edge.
  const Weight reach = clock_ + edge.weight;
  const Weight due = (reach - origin_) / threshold_;
  if (due_[u] != kUnlinked) unlink(edge.left);
  due_[u] = due;
  const std::size_t turn = static_cast<std::size_t>(due) & (head_.size() - 1);
  prev_[u] = kNoNode;
  next_[u] = head_[turn];
  if (head_[turn] != kNoNode) {
    prev_[static_cast<std::size_t>(head_[turn])] = edge.left;
  }
  head_[turn] = edge.left;
  if (edge.weight == threshold_) --idle_;
  if (real(edge)) real_[real_count_++] = e;
  return edge.weight;
}

void PeelingContext::absorb(bool perfect) {
  const std::vector<Edge>& edges = g_->edges();
  const auto right_of = [&edges](EdgeId e) {
    return static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].right);
  };
  if (!perfect) {  // widest paths and a rebind follow: only write weights
    for (const auto& [u, old] : hk_.changes()) {
      if (old != kNoEdge) flush(u, old);
      written_[static_cast<std::size_t>(u)] = clock_;
    }
    return;
  }
  ++probe_;
  for (const auto& [u, old] : hk_.changes()) {
    if (old != kNoEdge) released_[right_of(old)] = probe_;
  }
  for (const auto& [u, old] : hk_.changes()) {
    const EdgeId now = hk_.matched_edge_of_left(u);
    if (now != old && old != kNoEdge) {  // `old` left: write it down
      flush(u, old);
      if (edges[static_cast<std::size_t>(old)].weight == threshold_) ++idle_;
    }
    if (now == kNoEdge) continue;
    // Every edge enters at a right node that a leaving edge freed.
    std::uint64_t& freed_by = released_[right_of(now)];
    REDIST_CHECK_MSG(freed_by == probe_, "edge " << now
                                                 << " joined the matching at "
                                                    "a taken endpoint");
    freed_by = 0;
    if (now != old) enroll(now);
  }
}

bool PeelingContext::tight() const {
  // Every matched edge has at least threshold_ left, due at turn_ + 1 or
  // later, so an edge left with exactly threshold_ is due next.
  const Weight next_turn = turn_ + 1;
  for (NodeId u = head_[static_cast<std::size_t>(next_turn) &
                        (head_.size() - 1)];
       u != kNoNode; u = next_[static_cast<std::size_t>(u)]) {
    const auto l = static_cast<std::size_t>(u);
    const EdgeId e = hk_.matched_edge_of_left(u);
    if (due_[l] == next_turn &&
        written_[l] + g_->edges()[static_cast<std::size_t>(e)].weight ==
            clock_ + threshold_) {
      return true;
    }
  }
  return false;
}

void PeelingContext::unlink(NodeId u) {
  const auto l = static_cast<std::size_t>(u);
  const NodeId prev = prev_[l];
  const NodeId next = next_[l];
  if (prev != kNoNode) {
    next_[static_cast<std::size_t>(prev)] = next;
  } else {
    head_[static_cast<std::size_t>(due_[l]) & (head_.size() - 1)] = next;
  }
  if (next != kNoNode) prev_[static_cast<std::size_t>(next)] = prev;
  due_[l] = kUnlinked;
}

Weight PeelingContext::widest_augment(const BipartiteGraph& g, Weight t) {
  // Max-min Dijkstra over left nodes: a left node's width is the narrowest
  // unmatched edge on the widest alternating path reaching it from a free
  // left node (matched edges all weigh >= t, so they never narrow a path).
  const std::vector<Edge>& edges = g.edges();
  std::size_t heap_size = 0;
  const auto offer = [&](Weight w, NodeId v) {
    width_[static_cast<std::size_t>(v)] = w;
    heap_[heap_size++] = {w, v};
    std::push_heap(heap_.begin(),
                   heap_.begin() + static_cast<std::ptrdiff_t>(heap_size));
  };
  for (std::size_t v = 0; v < mate_.size(); ++v) {
    width_[v] = 0;
    via_[v] = kNoEdge;
  }
  for (std::size_t v = 0; v < mate_.size(); ++v) {
    if (mate_[v] == kNoEdge) offer(t, static_cast<NodeId>(v));
  }
  Weight best = 0;  // widest path found to a free right node
  EdgeId best_edge = kNoEdge;
  while (heap_size > 0) {
    std::pop_heap(heap_.begin(),
                  heap_.begin() + static_cast<std::ptrdiff_t>(heap_size));
    const auto [w, u] = heap_[--heap_size];
    if (w <= best) break;  // no wider path is left
    if (w < width_[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (EdgeId e : g.edges_of_left(u)) {
      const Edge& edge = edges[static_cast<std::size_t>(e)];
      const Weight through = std::min(w, edge.weight);  // dead edges weigh 0
      if (through <= best) continue;
      const NodeId mate = owner_[static_cast<std::size_t>(edge.right)];
      if (mate == kNoNode) {
        best = through;
        best_edge = e;
      } else if (through > width_[static_cast<std::size_t>(mate)]) {
        via_[static_cast<std::size_t>(mate)] = e;
        offer(through, mate);
      }
    }
  }
  // Flip the path back to its free left root.
  for (EdgeId e = best_edge; e != kNoEdge;) {
    const Edge& edge = edges[static_cast<std::size_t>(e)];
    const EdgeId next = via_[static_cast<std::size_t>(edge.left)];
    mate_[static_cast<std::size_t>(edge.left)] = e;
    owner_[static_cast<std::size_t>(edge.right)] = edge.left;
    e = next;
  }
  return best;
}

}  // namespace redist
