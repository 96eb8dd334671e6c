// Scheduled all-to-all-v — the "fully working redistribution library" the
// paper's conclusion aims for, as a collective on the mpilite runtime.
//
// Every rank contributes one buffer per destination rank; the collective
//  1. gathers the byte-count matrix at rank 0 and broadcasts it,
//  2. solves K-PBS there (OGGP) with the caller's k,
//  3. broadcasts the schedule (using the text serialization of
//     kpbs/schedule_io.hpp — the same bytes a file would hold),
//  4. executes it step by step, separated by full barriers, with each rank
//     sending at most one and receiving at most one message per step
//     (1-port; ranks send and receive concurrently — full duplex); every
//     rank cuts the buffers into the same pieces with plan_bytes
//     (kpbs/schedule.hpp), so the run takes exactly the schedule's steps,
//  5. reassembles the received fragments per source rank.
//
// This is the local-redistribution setting of Section 2.4 (V1 = V2 = the
// ranks, k <= n); self-messages are copied locally without touching the
// network.
#pragma once

#include <vector>

#include "common/contract_annotations.hpp"
#include "common/types.hpp"
#include "mpilite/comm.hpp"

REDIST_LAYER("mpilite");

namespace redist {

struct AlltoallvOptions {
  int k = 0;          ///< max simultaneous communications; 0 = comm size
  Weight beta = 1;    ///< per-step setup weight for the solver
  Bytes bytes_per_time_unit = 65536;  ///< solver granularity
};

/// Collective: must be called by every rank of the communicator with
/// `send[j]` holding the payload for rank j (send[rank] = self-message,
/// delivered locally). Returns the buffers received from every source
/// rank (result[i] = payload from rank i). Blocking; internally spawns
/// one receiver thread per rank.
std::vector<std::vector<char>> scheduled_alltoallv(
    Communicator& comm, const std::vector<std::vector<char>>& send,
    const AlltoallvOptions& options = {});

}  // namespace redist
