// Additional redistribution patterns beyond the paper's uniform all-pairs
// workload — the shapes that show up in real code-coupling deployments and
// exercise different corners of the scheduler:
//
//  * hotspot — one receiver (or sender) absorbs most traffic: stresses the
//              1-port constraint and the W(G) term of the bound;
//  * banded  — 1-D domain-decomposition overlap (M x N coupling), each
//              sender talks to a small contiguous window of receivers.
#pragma once

#include "common/contract_annotations.hpp"
#include "common/rng.hpp"
#include "graph/traffic_matrix.hpp"

REDIST_LAYER("workload");

namespace redist {

/// `hot_share` in (0,1): fraction of every sender's volume aimed at the
/// single hot receiver; the rest spreads uniformly over the others.
TrafficMatrix hotspot_traffic(Rng& rng, NodeId senders, NodeId receivers,
                              NodeId hot_receiver, double hot_share,
                              Bytes per_sender_bytes);

/// 1-D band overlap: `rows` domain rows split contiguously across senders
/// and receivers; traffic is the row-range intersection times row_bytes.
TrafficMatrix banded_traffic(std::int64_t rows, Bytes row_bytes,
                             NodeId senders, NodeId receivers);

}  // namespace redist
