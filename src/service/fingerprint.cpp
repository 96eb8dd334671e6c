#include "service/fingerprint.hpp"

#include <array>
#include <limits>
#include <numeric>

namespace redist::service {

namespace {

// Multiply-xorshift over whole 64-bit words. Each step is a bijection of
// its word, so a one-word change always changes the fingerprint; hits are
// verified against the stored CanonicalInstance anyway.
constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMultiplier = 0xff51afd7ed558ccdULL;

std::uint64_t mix(std::uint64_t state, std::uint64_t word) {
  state = (state ^ word) * kMultiplier;
  return state ^ (state >> 32);
}

using Cell = std::pair<std::uint64_t, Bytes>;

/// Stable LSD radix sort of positions below `end`, one byte a pass. It
/// never branches on the data; a comparison sort of 1200 shuffled entries
/// loses ~50 us to mispredictions (docs/PERF.md).
void radix_sort(std::vector<Cell>& cells, std::uint64_t end) {
  std::vector<Cell> sorted(cells.size());
  for (int shift = 0; shift < 64 && ((end - 1) >> shift) != 0; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const Cell& c : cells) ++start[((c.first >> shift) & 0xFF) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const Cell& c : cells) sorted[start[(c.first >> shift) & 0xFF]++] = c;
    cells.swap(sorted);
  }
}

}  // namespace

CanonicalInstance canonicalize(NodeId senders, NodeId receivers,
                               const std::vector<rpc::TrafficEntry>& entries,
                               const SolverOptions& options) {
  REDIST_CHECK_MSG(senders > 0 && receivers > 0,
                   "traffic matrix needs positive dimensions");
  CanonicalInstance instance{senders,      receivers,         options.k,
                             options.beta, options.algorithm, {}};
  auto& cells = instance.cells;
  cells.reserve(entries.size());
  const auto n2 = static_cast<std::uint64_t>(receivers);
  bool row_major = true;
  for (const rpc::TrafficEntry& e : entries) {
    REDIST_CHECK_MSG(e.sender >= 0 && e.sender < senders && e.receiver >= 0 &&
                         e.receiver < receivers && e.bytes >= 0,
                     "bad traffic entry " << e.sender << " -> " << e.receiver
                                          << ": " << e.bytes << " bytes");
    if (e.bytes == 0) continue;
    const std::uint64_t position = static_cast<std::uint64_t>(e.sender) * n2 +
                                   static_cast<std::uint64_t>(e.receiver);
    row_major = row_major && (cells.empty() || cells.back().first <= position);
    cells.emplace_back(position, e.bytes);
  }
  if (!row_major) radix_sort(cells, static_cast<std::uint64_t>(senders) * n2);
  std::size_t kept = 0;  // duplicates are summed in place
  for (const auto& [position, bytes] : cells) {
    if (kept == 0 || cells[kept - 1].first != position) {
      cells[kept++] = {position, bytes};
    } else {
      Bytes& sum = cells[kept - 1].second;
      REDIST_CHECK_MSG(!__builtin_add_overflow(sum, bytes, &sum),
                       "duplicate traffic entries overflow at " << position);
    }
  }
  cells.resize(kept);
  return instance;
}

CanonicalInstance canonicalize(const TrafficMatrix& m,
                               const SolverOptions& options) {
  std::vector<rpc::TrafficEntry> entries;
  for (NodeId i = 0; i < m.senders(); ++i) {
    for (NodeId j = 0; j < m.receivers(); ++j) {
      if (m.at(i, j) != 0) entries.push_back({i, j, m.at(i, j)});
    }
  }
  return canonicalize(m.senders(), m.receivers(), entries, options);
}

BipartiteGraph demand_graph(const CanonicalInstance& instance) {
  // regularize() needs about n1 + n2 node ids a side; check before allocating.
  REDIST_CHECK_MSG(
      instance.senders <=
          std::numeric_limits<NodeId>::max() - instance.receivers,
      "clusters too large to schedule: " << instance.senders << " x "
                                         << instance.receivers);
  BipartiteGraph graph(instance.senders, instance.receivers);
  const auto n2 = static_cast<std::uint64_t>(instance.receivers);
  for (const auto& [position, bytes] : instance.cells) {
    graph.add_edge(static_cast<NodeId>(position / n2),
                   static_cast<NodeId>(position % n2), bytes);
  }
  return graph;
}

InstanceFingerprint fingerprint_instance(const CanonicalInstance& instance) {
  std::uint64_t hash = kSeed;
  hash = mix(hash, static_cast<std::uint64_t>(instance.senders));
  hash = mix(hash, static_cast<std::uint64_t>(instance.receivers));
  hash = mix(hash, static_cast<std::uint64_t>(instance.k));
  hash = mix(hash, static_cast<std::uint64_t>(instance.beta));
  hash = mix(hash, static_cast<std::uint64_t>(instance.algorithm));
  for (const auto& [position, bytes] : instance.cells) {
    hash = mix(mix(hash, position), static_cast<std::uint64_t>(bytes));
  }
  return hash;
}

}  // namespace redist::service
