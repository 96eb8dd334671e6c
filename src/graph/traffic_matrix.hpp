// Traffic matrix: the application-level redistribution pattern.
//
// m(i, j) is the number of bytes node i of cluster C1 must send to node j of
// cluster C2. Dividing by the per-communication speed t (Section 2.2 of the
// paper) turns it into a communication graph whose edge weights are integer
// durations, which is what the K-PBS solvers consume.
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "graph/bipartite_graph.hpp"

REDIST_LAYER("graph");

namespace redist {

class TrafficMatrix {
 public:
  TrafficMatrix(NodeId n_senders, NodeId n_receivers);

  NodeId senders() const { return n1_; }
  NodeId receivers() const { return n2_; }

  Bytes at(NodeId i, NodeId j) const;
  void set(NodeId i, NodeId j, Bytes bytes);
  void add(NodeId i, NodeId j, Bytes bytes);

  /// Total bytes in the redistribution.
  Bytes total() const;
  /// Number of non-zero entries (edges of the communication graph).
  int nonzero_count() const;

  /// Builds the communication graph: one edge per non-zero entry, with
  /// weight time_units(bytes, bytes_per_time_unit). `bytes_per_time_unit`
  /// is t * u where t is the per-communication speed (bytes/s) and u the
  /// chosen time-unit length in seconds.
  BipartiteGraph to_graph(double bytes_per_time_unit) const;

  /// Builds the communication graph keeping raw byte counts as weights,
  /// exactly (speed folded in later); convenient when t == 1 unit.
  BipartiteGraph to_graph_bytes() const;

 private:
  std::size_t index(NodeId i, NodeId j) const;

  NodeId n1_;
  NodeId n2_;
  std::vector<Bytes> data_;
};

/// The one bytes -> time units conversion: ceil(bytes / bytes_per_time_unit),
/// at least 1. Throws redist::Error on a non-positive unit or a duration
/// that overflows a Weight.
Weight time_units(Bytes bytes, double bytes_per_time_unit);

}  // namespace redist
