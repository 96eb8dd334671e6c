// The peeling engine behind GGP and OGGP (WRGP's matching selection).
//
// Consecutive WRGP steps differ only by the edges the previous step
// clamped, so PeelingContext carries the reusable state across them:
//
//  * the previous step's bottleneck b, which caps the next step's search
//    (peeling only lowers weights, so the optimum never rises);
//  * one Hopcroft–Karp solver whose snapshot and matching follow the peel:
//    a step unmatches and drops the matched edges that fell below its
//    threshold (1 for GGP, b for OGGP) and keeps the rest. OGGP rebinds
//    only when the threshold falls;
//  * the widest-path search's buffers, sized at the first step.
//
// An OGGP step is any perfect matching of the residual whose minimum edge
// weight is the optimal bottleneck t* (PAPER.md §1, Fig. 6). A step runs
// Fig. 6 from the top down: a cap probe at an upper bound T on t* (b while
// an edge still weighs b; else the largest alive weight <= b; on the first
// step, the lightest of the nodes' heaviest edges). While T = b, the probe
// keeps the matching, seeds the free left nodes' edges weighing b and
// repairs (HopcroftKarp::complete); otherwise it rebinds and repairs the
// previous step's surviving edges, then the edges weighing T. A perfect
// probe is the step. Otherwise widest augmenting paths from its matching
// find t*, and one repair at t* seeded with the weight-t* edges first and
// the widest-path matching after them gives the step.
//
// The peel is deferred. The context keeps a clock, the total amount
// peeled so far, and per matched edge the clock at which its weight was
// last written to the graph. An edge's weight is written when it leaves
// the matching, and for the whole matching before a scan reads every
// weight (a cap scan, widest paths, a rebind). While the threshold holds,
// every step peels exactly b, so a calendar of the turn at which each
// matched edge falls below b yields the step's fallen edges, and whether
// one is left with exactly b, without a pass over the matching. A reused
// OGGP step costs what changed: the fallen edges, the repair's searches,
// the edges its augmenting paths swap and the at most k real edges it
// emits.
//
// GGP keeps the cold run, so its matchings stay max_matching's, and its
// step writes every matched edge. start() and step() are the peel
// solve_kpbs runs; arbitrary_perfect(), bottleneck_perfect() and
// before_peel() drive the same engine one step at a time for wrgp_peel,
// which writes the weights itself. tests/oracle checks every OGGP step
// against a from-scratch threshold search and the paper's Fig. 6.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"

REDIST_LAYER("matching");

namespace redist {

class PeelingContext {
 public:
  PeelingContext() = default;

  /// Starts a deferred peel of `g` (weight-regular, equal sides) with GGP's
  /// or OGGP's matchings; step() writes g's weights. The edges between the
  /// first `real_left` left and `real_right` right nodes are real (the
  /// original bands of a Regularized graph); the rest are synthetic.
  void start(BipartiteGraph& g, bool bottleneck, NodeId real_left,
             NodeId real_right);
  /// True until the steps have peeled g's regular weight.
  bool peeling() const { return clock_ < regular_; }
  /// One WRGP step: selects the matching, peels it and returns its amount.
  /// real_edges() then lists the step's real edges by left node.
  REDIST_NOALLOC
  Weight step();
  std::span<const EdgeId> real_edges() const {
    return {real_out_.data(), real_out_count_};
  }

  /// Same matching as max_matching(g) (the GGP strategy), of the snapshot
  /// minus the edges that died.
  REDIST_DETERMINISTIC
  Matching arbitrary_perfect(const BipartiteGraph& g);

  /// Perfect matching maximizing the minimum edge weight (the OGGP
  /// strategy). Throws if no perfect matching exists; requires equal side
  /// sizes.
  REDIST_DETERMINISTIC
  Matching bottleneck_perfect(const BipartiteGraph& g);

  /// Records that `amount` is about to be peeled off every edge of `m`, the
  /// matching this context returned for the step; the caller then lowers
  /// the weights. Once per step, before the weights drop.
  REDIST_DETERMINISTIC
  void before_peel(const BipartiteGraph& g, const Matching& m, Weight amount);

 private:
  enum class Seed { kCold, kSurvivors, kWidest };
  static constexpr Weight kUnlinked = -1;

  void bind(const BipartiteGraph& g, bool bottleneck);
  Weight select_ggp();
  Weight select_oggp();
  /// Advances the clock by the step's amount `t`. For OGGP, lists the
  /// matched edges that fall below the next threshold and the step's real
  /// edges.
  void advance(Weight t);
  /// Writes the amount peeled off `e`, matched at left node `u`, since
  /// its last write.
  void flush(NodeId u, EdgeId e);
  void flush_matching();
  /// Rebinds at `threshold` and solves cold or seeded; the caller has
  /// written every weight.
  REDIST_ALLOW_ALLOC("a rebind is O(|J|), like the scans that precede it")
  void rebuild(Weight threshold, Seed seed);
  /// Registers a matching a rebind chose; returns its lightest edge. For
  /// GGP, also lists the step's fallen and real edges.
  Weight enroll_matching();
  /// Registers an edge that joined the matching; returns its weight.
  Weight enroll(EdgeId e);
  /// Registers the changes shrink() and complete() made to the matching;
  /// if it is not `perfect`, only writes the weights of the edges that left.
  void absorb(bool perfect);
  /// True iff some matched edge has exactly threshold_ left.
  bool tight() const;
  void unlink(NodeId u);
  bool real(const Edge& e) const {
    return e.left < real_left_ && e.right < real_right_;
  }
  /// Augments the matching in mate_/owner_ along a widest augmenting path
  /// over all alive edges, each path's width capped at `t`. Returns the
  /// path's width, or 0 when no augmenting path exists.
  REDIST_NOALLOC
  Weight widest_augment(const BipartiteGraph& g, Weight t);

  HopcroftKarp hk_;
  const BipartiteGraph* g_ = nullptr;
  BipartiteGraph* writable_ = nullptr;  // start(): the context writes g_
  bool bottleneck_ = false;
  NodeId real_left_ = 0;
  NodeId real_right_ = 0;
  Weight clock_ = 0;            // the amount peeled so far
  Weight regular_ = 0;          // start(): the clock's final value
  Weight last_bottleneck_ = 0;  // previous step's amount; 0 = none
  Weight threshold_ = 0;        // hk_'s threshold
  std::size_t idle_ = 0;        // unmatched snapshot edges at threshold_
  // Per left node, the clock at which its matched edge was last written,
  // and whether some matched edge has lost weight since.
  std::vector<Weight> written_;
  bool stale_ = false;
  // OGGP's calendar of the matched edges. Each step peels threshold_, so
  // an edge whose reach (the clock at which it dies) is r falls below the
  // threshold after turn (r - origin_) / threshold_. Per left node: that
  // due turn of its edge (kUnlinked if none) and its neighbours in the
  // list of head_[due mod head_.size()].
  Weight origin_ = 0;  // the clock at the last rebind
  Weight turn_ = 0;    // turns taken since
  std::vector<Weight> due_;
  std::vector<NodeId> next_;
  std::vector<NodeId> prev_;
  std::vector<NodeId> head_;
  std::vector<EdgeId> fallen_;  // matched edges below the next threshold
  std::size_t fallen_count_ = 0;
  std::vector<NodeId> free_;    // their left nodes, ascending
  std::vector<EdgeId> real_;    // OGGP: real edges since they joined
  std::size_t real_count_ = 0;
  std::vector<EdgeId> real_out_;  // the last step's real edges
  std::size_t real_out_count_ = 0;
  std::vector<std::uint64_t> released_;  // right -> probe that freed it
  std::uint64_t probe_ = 0;
  Matching seed_;  // a rebind's repair seed
  // Widest-path search state.
  std::vector<EdgeId> mate_;   // left node -> matched edge
  std::vector<NodeId> owner_;  // right node -> matched left node
  std::vector<Weight> width_;  // left node -> widest path width reaching it
  std::vector<EdgeId> via_;    // left node -> edge that path arrived by
  // Max-heap of (width, left node) with lazy deletion.
  std::vector<std::pair<Weight, NodeId>> heap_;
};

}  // namespace redist
