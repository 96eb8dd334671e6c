// The paper's two redistribution implementations, rebuilt on mpilite's real
// TCP sockets (Section 5.2):
//
//  * brute force — "we start all communications simultaneously and wait
//    until all transfers are finished", leaving congestion to the transport
//    layer (here: real kernel TCP over loopback, plus rshaper-style token
//    bucket shaping of cards and backbone);
//  * scheduled — "we divide all communications into different steps,
//    synchronized by a barrier, and only one synchronous communication can
//    take place in each step for each sender".
//
// Ranks 0..n1-1 are the sender cluster C1, ranks n1..n1+n2-1 the receiver
// cluster C2. Receivers compare every delivered byte with the pair's
// deterministic pattern stream before reporting success.
//
// Both entry points run one attempt runner: an attempt wires a fresh mesh
// and sends over it, brute force or barrier-stepped. With robustness
// enabled (RobustnessOptions::enabled on socket_scheduled) a failed attempt —
// a reset link, a stalled peer tripping the idle deadline — is followed by
// another: receivers keep a per-pair delivery ledger at completed-message
// granularity, and the runtime rebuilds the residual traffic matrix from
// it, re-solves it with the K-PBS solver, and splices the recovery schedule
// into a fresh attempt (senders resuming the pattern stream at the
// receiver-reported offsets) until everything is delivered or the
// reschedule budget runs out.
#pragma once

#include "common/contract_annotations.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/options.hpp"
#include "kpbs/schedule.hpp"
#include "mpilite/comm.hpp"
#include "robust/retry.hpp"

REDIST_LAYER("mpilite");

namespace redist {

struct SocketClusterConfig {
  double card_out_bps = 0;   ///< per-sender shaping (rshaper equivalent)
  double card_in_bps = 0;    ///< per-receiver shaping
  double backbone_bps = 0;   ///< shared inter-cluster link shaping
  Bytes chunk_bytes = 16384; ///< shaping granularity
  Bytes burst_bytes = 32768; ///< bucket size
};

/// Robustness knobs of socket_scheduled. Disabled by default: one attempt,
/// no idle deadline and the first rank error rethrown, exactly what
/// socket_bruteforce does.
struct RobustnessOptions {
  bool enabled = false;
  /// Idle deadline on every link socket and on accept during wiring; must
  /// be positive when enabled (a blocked rank is how attempt failures
  /// cascade into clean unwinds rather than hangs).
  int io_timeout_ms = 2000;
  /// Retry budget for each connect-plus-handshake while wiring a mesh.
  robust::RetryPolicy connect_retry{5, 1, 250, 2.0, 0.25, 0x5EEDBACC};
  /// Backoff between redistribution attempts (max_attempts is ignored
  /// here; the attempt budget is 1 + max_reschedules).
  robust::RetryPolicy attempt_backoff{4, 5, 500, 2.0, 0.25, 0xBAC0FF};
  /// Residual re-solves after the first attempt (0 = retry-free).
  int max_reschedules = 3;
  /// Solver used to re-solve the residual matrix between attempts; set k
  /// (and beta) to match the original solve.
  SolverOptions resolve;
  /// When non-empty and a journal is installed (obs/journal.hpp), every
  /// spliced recovery dumps the flight recorder to
  /// `<journal_dir>/recovery_<run_id>.jsonl` — a forensic artifact joining
  /// solver, pool and socket events by the run's solve ID; the path lands
  /// in SocketRunResult::journal_dump_path.
  std::string journal_dir;
};

struct SocketRunResult {
  double seconds = 0;
  Bytes bytes_delivered = 0;
  std::size_t steps = 0;
  bool verified = false;
  int attempts = 1;        ///< redistribution attempts run
  int reschedules = 0;     ///< residual re-solves spliced in
  std::uint64_t link_retries = 0;  ///< connect retries across all meshes
  std::uint64_t run_id = 0;  ///< flight-recorder solve ID of this run
  std::string journal_dump_path;  ///< recovery dump, "" when none written
};

/// All flows at once over the socket mesh. Every entry point throws
/// redist::Error on an invalid config, a schedule that plan_bytes
/// (kpbs/schedule.hpp) rejects, or (unless recovering) a rank's failure.
SocketRunResult socket_bruteforce(const SocketClusterConfig& config,
                                  const TrafficMatrix& traffic);

/// Barrier-stepped execution of `schedule` (amounts in time units worth
/// `bytes_per_time_unit` bytes): each communication sends plan_bytes'
/// piece, so the run takes exactly the schedule's steps. A schedule that
/// misses or overshoots a pair, or sends on one with no demand, throws.
/// With robustness.enabled, failed attempts are followed by residual
/// re-solve + splice (see file header).
SocketRunResult socket_scheduled(const SocketClusterConfig& config,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit,
                                 const RobustnessOptions& robustness = {});

}  // namespace redist
