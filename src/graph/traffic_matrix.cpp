#include "graph/traffic_matrix.hpp"

#include <cmath>

#include "common/error.hpp"

namespace redist {

TrafficMatrix::TrafficMatrix(NodeId n_senders, NodeId n_receivers)
    : n1_(n_senders),
      n2_(n_receivers),
      data_(static_cast<std::size_t>(n_senders) *
                static_cast<std::size_t>(n_receivers),
            0) {
  REDIST_CHECK_MSG(n_senders > 0 && n_receivers > 0,
                   "traffic matrix needs positive dimensions");
}

std::size_t TrafficMatrix::index(NodeId i, NodeId j) const {
  REDIST_CHECK_MSG(i >= 0 && i < n1_, "sender index out of range: " << i);
  REDIST_CHECK_MSG(j >= 0 && j < n2_, "receiver index out of range: " << j);
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(n2_) +
         static_cast<std::size_t>(j);
}

Bytes TrafficMatrix::at(NodeId i, NodeId j) const { return data_[index(i, j)]; }

void TrafficMatrix::set(NodeId i, NodeId j, Bytes bytes) {
  REDIST_CHECK_MSG(bytes >= 0, "negative traffic: " << bytes);
  data_[index(i, j)] = bytes;
}

void TrafficMatrix::add(NodeId i, NodeId j, Bytes bytes) {
  REDIST_CHECK_MSG(bytes >= 0, "negative traffic: " << bytes);
  Bytes& cell = data_[index(i, j)];
  Bytes sum = 0;
  REDIST_CHECK_MSG(!__builtin_add_overflow(cell, bytes, &sum),
                   "traffic at (" << i << ", " << j << ") overflows");
  cell = sum;
}

Bytes TrafficMatrix::total() const {
  Bytes sum = 0;
  for (Bytes b : data_) sum += b;
  return sum;
}

int TrafficMatrix::nonzero_count() const {
  int count = 0;
  for (Bytes b : data_) count += (b > 0);
  return count;
}

BipartiteGraph TrafficMatrix::to_graph(double bytes_per_time_unit) const {
  BipartiteGraph g(n1_, n2_);
  for (NodeId i = 0; i < n1_; ++i) {
    for (NodeId j = 0; j < n2_; ++j) {
      const Bytes b = data_[index(i, j)];
      if (b > 0) g.add_edge(i, j, time_units(b, bytes_per_time_unit));
    }
  }
  return g;
}

BipartiteGraph TrafficMatrix::to_graph_bytes() const {
  BipartiteGraph g(n1_, n2_);
  for (NodeId i = 0; i < n1_; ++i) {
    for (NodeId j = 0; j < n2_; ++j) {
      const Bytes b = data_[index(i, j)];
      if (b > 0) g.add_edge(i, j, b);
    }
  }
  return g;
}

Weight time_units(Bytes bytes, double bytes_per_time_unit) {
  REDIST_CHECK_MSG(bytes_per_time_unit > 0,
                   "bytes_per_time_unit must be positive");
  const double w =
      std::ceil(static_cast<double>(bytes) / bytes_per_time_unit);
  REDIST_CHECK_MSG(w < 0x1p63, "duration of " << bytes << " bytes at "
                                              << bytes_per_time_unit
                                              << " per unit overflows");
  return w >= 1 ? static_cast<Weight>(w) : 1;
}

}  // namespace redist
