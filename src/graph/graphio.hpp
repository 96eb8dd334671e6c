// Serialization of bipartite graphs: a simple text format and GraphViz DOT.
//
// Text format:
//   line 1: `<n_left> <n_right> <edge_count>`
//   then one `<left> <right> <weight>` line per edge.
// Dead edges (weight 0) are skipped on write.
#pragma once

#include <iosfwd>
#include <string>

#include "common/contract_annotations.hpp"
#include "graph/bipartite_graph.hpp"

REDIST_LAYER("graph");

namespace redist {

/// Writes the alive edges of `g` in the text format above.
void write_graph(std::ostream& os, const BipartiteGraph& g);

/// Parses the text format; throws redist::Error on malformed input.
BipartiteGraph read_graph(std::istream& is);

/// GraphViz DOT rendering (left nodes `l0..`, right nodes `r0..`,
/// edge labels = weights).
std::string graph_to_dot(const BipartiteGraph& g,
                         const std::string& name = "G");

}  // namespace redist
