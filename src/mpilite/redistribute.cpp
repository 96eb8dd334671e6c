#include "mpilite/redistribute.hpp"

#include <algorithm>
#include <atomic>
#include <array>
#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "kpbs/solver.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/token_bucket.hpp"

namespace redist {

namespace {

constexpr std::uint32_t kDataTag = 0xDA7A0000;

using PairKey = std::pair<NodeId, NodeId>;

// Pair (i, j)'s payload is a deterministic byte stream that both ends
// derive independently, so the receiver verifies content, not just byte
// counts, and a recovery attempt can resume it at any offset. Byte `index`
// is (131 i + 31 j + index) mod 256: the stream repeats every 256 bytes, so
// one block plus one period holds every kPatternBlock-byte window.
constexpr std::size_t kPatternBlock = 4096;

class Pattern {
 public:
  Pattern(NodeId i, NodeId j) {
    for (std::size_t k = 0; k < bytes_.size(); ++k) {
      bytes_[k] = static_cast<char>(
          (static_cast<std::size_t>(i) * 131 +
           static_cast<std::size_t>(j) * 31 + k) &
          0xFF);
    }
  }

  /// The stream from position `index` on, valid for kPatternBlock bytes.
  const char* at(Bytes index) const {
    return bytes_.data() + static_cast<std::size_t>(index % 256);
  }

 private:
  std::array<char, kPatternBlock + 256> bytes_;
};

struct Shapers {
  std::vector<std::unique_ptr<TokenBucket>> out;  // per sender
  std::vector<std::unique_ptr<TokenBucket>> in;   // per receiver
  std::unique_ptr<TokenBucket> backbone;

  Shapers(const SocketClusterConfig& config, NodeId n1, NodeId n2) {
    for (NodeId i = 0; i < n1; ++i) {
      out.push_back(std::make_unique<TokenBucket>(config.card_out_bps,
                                                  config.burst_bytes));
    }
    for (NodeId j = 0; j < n2; ++j) {
      in.push_back(std::make_unique<TokenBucket>(config.card_in_bps,
                                                 config.burst_bytes));
    }
    backbone = std::make_unique<TokenBucket>(config.backbone_bps,
                                             config.burst_bytes);
  }
};

void send_piece(Communicator& comm, NodeId sender_index, NodeId receiver,
                NodeId n1, Bytes offset, Bytes bytes,
                const SocketClusterConfig& config, Shapers& shapers) {
  const Pattern pattern(sender_index, receiver);
  std::vector<char> payload(static_cast<std::size_t>(bytes));
  for (std::size_t b = 0; b < payload.size(); b += kPatternBlock) {
    std::memcpy(payload.data() + b,
                pattern.at(offset + static_cast<Bytes>(b)),
                std::min(kPatternBlock, payload.size() - b));
  }
  comm.send(static_cast<int>(n1 + receiver), kDataTag, payload.data(),
            payload.size(),
            {shapers.out[static_cast<std::size_t>(sender_index)].get(),
             shapers.backbone.get()},
            config.chunk_bytes);
}

// Runs body(0 .. n-1) on n threads under the caller's solve ID (the
// thread_local scope does not cross thread spawns by itself, and socket
// fault events must join the run in forensic dumps), then rethrows the
// first failure.
void run_threads(std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  const std::uint64_t run_id = obs::SolveIdScope::current();
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t, run_id]() {
      const obs::SolveIdScope scope(run_id);
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

struct Piece {
  NodeId receiver;
  Bytes offset;  ///< relative to this attempt's stream start for the pair
  Bytes bytes;
};

// Which messages one attempt sends: pieces[pair] is the pair's message
// sizes in send order (the receiver's view), sender_steps[i][s] sender i's
// messages in step s.
struct Layout {
  std::map<PairKey, std::vector<Bytes>> pieces;
  std::vector<std::vector<std::vector<Piece>>> sender_steps;
  std::size_t steps = 0;
};

// Lays `traffic` into the steps of `schedule` (amounts in time units worth
// `bytes_per_time_unit` bytes, clipped to the matrix). Whatever the
// schedule leaves over goes into one extra trailing step: for brute force
// (no schedule) that is every flow, for a schedule only rounding slack.
Layout layout_sender_steps(const TrafficMatrix& traffic,
                           const Schedule* schedule,
                           double bytes_per_time_unit) {
  std::map<PairKey, Bytes> remaining;
  for (NodeId i = 0; i < traffic.senders(); ++i) {
    for (NodeId j = 0; j < traffic.receivers(); ++j) {
      if (traffic.at(i, j) > 0) remaining[{i, j}] = traffic.at(i, j);
    }
  }
  const std::size_t planned =
      schedule == nullptr ? 0 : schedule->step_count();
  Layout layout;
  layout.sender_steps.assign(static_cast<std::size_t>(traffic.senders()),
                             std::vector<std::vector<Piece>>(planned + 1));
  std::map<PairKey, Bytes> offset;
  const auto lay = [&](std::size_t s, const PairKey& key, Bytes bytes) {
    Bytes& off = offset[key];
    layout.sender_steps[static_cast<std::size_t>(key.first)][s].push_back(
        Piece{key.second, off, bytes});
    layout.pieces[key].push_back(bytes);
    off += bytes;
  };
  for (std::size_t s = 0; s < planned; ++s) {
    std::set<NodeId> busy;
    for (const Communication& c : schedule->steps()[s].comms) {
      REDIST_CHECK_MSG(busy.insert(c.sender).second,
                       "1-port violation in step " << s);
      const auto it = remaining.find({c.sender, c.receiver});
      if (it == remaining.end()) continue;
      const double want =
          static_cast<double>(c.amount) * bytes_per_time_unit;
      const Bytes send = std::min<Bytes>(
          it->second, static_cast<Bytes>(std::llround(want)));
      if (send <= 0) continue;
      lay(s, it->first, send);
      it->second -= send;
      if (it->second == 0) remaining.erase(it);
    }
  }
  for (const auto& [key, bytes] : remaining) lay(planned, key, bytes);
  layout.steps = planned + (remaining.empty() ? 0 : 1);
  for (auto& steps : layout.sender_steps) steps.resize(layout.steps);
  return layout;
}

// Receiver-side drain with a per-pair delivery ledger: one thread per
// sender with traffic. Each drain thread owns exactly one ledger slot (its
// pair), updated only after a message is fully received and
// pattern-verified, so a failed attempt leaves behind the precise resume
// offset for its pair. A verification failure is unrecoverable
// (retransmission cannot unconsume wrong bytes) and clears `pattern_ok`.
void run_receiver(Communicator& comm, NodeId receiver_index, NodeId n1,
                  const Layout& layout, const SocketClusterConfig& config,
                  Shapers& shapers, const std::map<PairKey, Bytes>& base,
                  std::map<PairKey, Bytes>& ledger,
                  std::atomic<bool>& pattern_ok) {
  std::vector<NodeId> senders;
  for (NodeId i = 0; i < n1; ++i) {
    if (layout.pieces.count({i, receiver_index}) != 0) senders.push_back(i);
  }
  run_threads(senders.size(), [&](std::size_t d) {
    const NodeId i = senders[d];
    const PairKey key{i, receiver_index};
    const Pattern pattern(i, receiver_index);
    Bytes offset = base.at(key);
    Bytes& slot = ledger.at(key);
    for (const Bytes piece : layout.pieces.at(key)) {
      const std::vector<char> payload = comm.recv(
          static_cast<int>(i), kDataTag,
          {shapers.in[static_cast<std::size_t>(receiver_index)].get()},
          config.chunk_bytes);
      bool intact = static_cast<Bytes>(payload.size()) == piece;
      for (std::size_t b = 0; intact && b < payload.size();
           b += kPatternBlock) {
        intact = std::memcmp(payload.data() + b,
                             pattern.at(offset + static_cast<Bytes>(b)),
                             std::min(kPatternBlock, payload.size() - b)) ==
                 0;
      }
      if (!intact) {
        pattern_ok.store(false);
        throw Error("pattern verification failed");
      }
      offset += piece;
      slot = offset;
    }
  });
}

struct AttemptOutcome {
  std::exception_ptr error;  ///< first rank failure, null on success
  std::uint64_t connect_retries = 0;
  double started_s = -1;   ///< run clock at the start barrier, -1 if missed
  double finished_s = -1;  ///< run clock at the finish barrier, -1 if missed
};

// One pass over `residual`, resuming each pair's pattern stream at the
// ledger offset. Brute force (`stepped` false) starts every flow of a
// sender at once; otherwise senders walk the steps with one synchronous
// communication each and a barrier between steps. A fresh mesh per
// attempt: recovery re-establishes every link (exercising connect retry),
// and armed idle deadlines turn a dead rank into TimeoutErrors on its
// peers instead of a hang.
AttemptOutcome run_attempt(const SocketClusterConfig& config,
                           const TrafficMatrix& residual,
                           const Layout& layout, bool stepped,
                           const MeshOptions& mesh_options,
                           const Stopwatch& clock,
                           std::map<PairKey, Bytes>& ledger,
                           std::atomic<bool>& pattern_ok) {
  const NodeId n1 = residual.senders();
  const NodeId n2 = residual.receivers();
  // Resume offsets: snapshot before the attempt so senders read stable
  // values while receiver drains advance the live ledger.
  const std::map<PairKey, Bytes> base = ledger;

  Mesh mesh(static_cast<int>(n1 + n2), mesh_options);
  Shapers shapers(config, n1, n2);

  std::vector<int> sender_group;
  for (NodeId i = 0; i < n1; ++i) sender_group.push_back(static_cast<int>(i));

  AttemptOutcome outcome;
  const std::uint64_t run_id = obs::SolveIdScope::current();
  const std::vector<std::exception_ptr> errors =
      run_ranks_collect(mesh, [&, run_id](Communicator& comm) {
        const obs::SolveIdScope rank_scope(run_id);
        const int r = comm.rank();
        comm.barrier();  // synchronized start
        if (r == 0) outcome.started_s = clock.elapsed_seconds();
        if (r < static_cast<int>(n1)) {
          const NodeId me = static_cast<NodeId>(r);
          const auto send = [&](const Piece& piece) {
            send_piece(comm, me, piece.receiver, n1,
                       base.at({me, piece.receiver}) + piece.offset,
                       piece.bytes, config, shapers);
          };
          for (const auto& step :
               layout.sender_steps[static_cast<std::size_t>(me)]) {
            if (!stepped) {
              // Brute force: one thread per outgoing flow, all at once.
              run_threads(step.size(),
                          [&](std::size_t p) { send(step[p]); });
              continue;
            }
            for (const Piece& piece : step) send(piece);
            comm.barrier(sender_group);  // the paper's inter-step barrier
          }
        } else {
          run_receiver(comm, static_cast<NodeId>(r) - n1, n1, layout,
                       config, shapers, base, ledger, pattern_ok);
        }
        comm.barrier();  // synchronized finish
        if (r == 0) outcome.finished_s = clock.elapsed_seconds();
      });
  for (const auto& e : errors) {
    if (e && !outcome.error) outcome.error = e;
  }
  outcome.connect_retries = mesh.connect_retries();
  return outcome;
}

Bytes ledger_total(const std::map<PairKey, Bytes>& ledger) {
  Bytes total = 0;
  for (const auto& [pair, bytes] : ledger) total += bytes;
  return total;
}

// Config errors are the caller's, so they throw here, once, instead of
// failing every attempt.
void check_options(const SocketClusterConfig& config,
                   double bytes_per_time_unit,
                   const RobustnessOptions& robustness) {
  REDIST_CHECK_MSG(config.card_out_bps > 0 && config.card_in_bps > 0 &&
                       config.backbone_bps > 0,
                   "card and backbone rates must be positive");
  REDIST_CHECK_MSG(config.chunk_bytes > 0 && config.burst_bytes > 0,
                   "chunk and burst sizes must be positive");
  REDIST_CHECK_MSG(bytes_per_time_unit > 0,
                   "bytes_per_time_unit must be positive");
  if (!robustness.enabled) return;
  REDIST_CHECK_MSG(robustness.io_timeout_ms > 0,
                   "robust mode needs a positive io_timeout_ms");
  REDIST_CHECK_MSG(robustness.max_reschedules >= 0,
                   "negative reschedule budget");
}

// The one real-byte executor: attempts over a fresh mesh until everything
// is delivered or the reschedule budget runs out. Without robustness that
// is one attempt with no idle deadline whose first rank error is
// rethrown.
SocketRunResult run(const SocketClusterConfig& config,
                    const TrafficMatrix& traffic, const Schedule* schedule,
                    double bytes_per_time_unit,
                    const RobustnessOptions& robustness) {
  check_options(config, bytes_per_time_unit, robustness);

  obs::MetricsRegistry* const metrics = obs::metrics();
  obs::TraceSpan run_span(obs::trace(), "socket.robust");
  if (metrics != nullptr) metrics->counter("robust.run.count").add();

  // One flight-recorder ID for the whole run: the initial attempt, every
  // retry/fault on its links, and every residual re-solve journal under it
  // (the resolve options are stamped below), so a dump reconstructs the
  // run end to end.
  const std::uint64_t run_id = robustness.resolve.solve_id != 0
                                   ? robustness.resolve.solve_id
                                   : obs::allocate_solve_id();
  const obs::SolveIdScope run_scope(run_id);

  MeshOptions mesh_options;
  if (robustness.enabled) {
    mesh_options.io_timeout_ms = robustness.io_timeout_ms;
    mesh_options.connect_retry = robustness.connect_retry;
  }

  // Delivery ledger: absolute delivered bytes per pair, carried across
  // attempts. Entries exist for every pair with traffic so drain threads
  // never insert (each writes only its own slot).
  std::map<PairKey, Bytes> ledger;
  for (NodeId i = 0; i < traffic.senders(); ++i) {
    for (NodeId j = 0; j < traffic.receivers(); ++j) {
      if (traffic.at(i, j) > 0) ledger[{i, j}] = 0;
    }
  }

  std::atomic<bool> pattern_ok{true};
  SocketRunResult result;
  result.run_id = run_id;
  // `seconds` runs from the first attempt's start barrier to the last
  // attempt's finish barrier: the first mesh wiring is set-up, while
  // re-wiring, backoff and re-solve in later attempts are recovery.
  const Stopwatch clock;
  double started_s = -1;
  double finished_s = -1;
  Rng backoff_rng(robustness.attempt_backoff.seed);

  TrafficMatrix residual = traffic;
  Schedule recovery;
  const Schedule* current = schedule;

  const int max_attempts =
      robustness.enabled ? 1 + robustness.max_reschedules : 1;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    result.attempts = attempt;
    const Layout layout =
        layout_sender_steps(residual, current, bytes_per_time_unit);
    AttemptOutcome outcome;
    {
      obs::TraceSpan attempt_span(obs::trace(), "socket.robust.attempt");
      if (attempt_span) attempt_span.arg("attempt", attempt);
      obs::journal_record(obs::JournalEventKind::kAttemptBegin, attempt);
      try {
        outcome = run_attempt(config, residual, layout, current != nullptr,
                              mesh_options, clock, ledger, pattern_ok);
      } catch (const Error&) {
        // Mesh wiring failed outright (connect retries exhausted, accept
        // deadline): a failed attempt with nothing delivered.
        outcome.error = std::current_exception();
      }
      const bool failed = outcome.error != nullptr;
      if (attempt_span) attempt_span.arg("failed", failed);
      obs::journal_record(obs::JournalEventKind::kAttemptEnd, attempt,
                          failed ? 1 : 0,
                          static_cast<double>(ledger_total(ledger)));
    }
    if (outcome.error && !robustness.enabled) {
      std::rethrow_exception(outcome.error);
    }
    if (attempt == 1) started_s = outcome.started_s;
    finished_s = outcome.finished_s;
    result.steps += layout.steps;
    result.link_retries += outcome.connect_retries;
    if (!pattern_ok.load()) break;  // wrong bytes cannot be retransmitted
    if (!outcome.error || ledger_total(ledger) == traffic.total()) break;
    if (attempt == max_attempts) break;

    // Backoff, then rebuild the residual matrix from the ledger and
    // re-solve it into the recovery schedule for the next attempt.
    robust::sleep_ms(robust::backoff_delay_ms(robustness.attempt_backoff,
                                              attempt, backoff_rng));
    residual = TrafficMatrix(traffic.senders(), traffic.receivers());
    BipartiteGraph demand(traffic.senders(), traffic.receivers());
    for (const auto& [pair, delivered] : ledger) {
      const Bytes rest = traffic.at(pair.first, pair.second) - delivered;
      REDIST_CHECK_MSG(rest >= 0, "ledger over-delivered a pair");
      if (rest == 0) continue;
      residual.set(pair.first, pair.second, rest);
      demand.add_edge(pair.first, pair.second,
                      std::max<Weight>(1, static_cast<Weight>(std::ceil(
                                              static_cast<double>(rest) /
                                              bytes_per_time_unit))));
    }
    SolverOptions resolve_options = robustness.resolve;
    resolve_options.solve_id = run_id;
    recovery = solve_kpbs(demand, resolve_options).schedule;
    current = &recovery;
    ++result.reschedules;
    if (metrics != nullptr) metrics->counter("robust.run.reschedules").add();
    obs::journal_record(obs::JournalEventKind::kRecoverySpliced, attempt,
                        static_cast<std::int64_t>(demand.edge_count()));

    // Forensic artifact: after a splice, persist the flight recorder so
    // the fault storm that forced this recovery can be reconstructed even
    // if the process never reaches a clean exit.
    if (!robustness.journal_dir.empty()) {
      obs::Journal* const journal = obs::journal();
      if (journal != nullptr) {
        const std::string path = robustness.journal_dir + "/recovery_" +
                                 std::to_string(run_id) + ".jsonl";
        std::ofstream dump(path);
        if (dump) {
          obs::write_journal_jsonl(dump, *journal);
          result.journal_dump_path = path;
        }
      }
    }
  }

  result.seconds = (finished_s >= 0 ? finished_s : clock.elapsed_seconds()) -
                   std::max(started_s, 0.0);
  result.bytes_delivered = ledger_total(ledger);
  result.verified =
      pattern_ok.load() && result.bytes_delivered == traffic.total();
  if (metrics != nullptr) {
    metrics->counter("robust.run.attempts")
        .add(static_cast<std::uint64_t>(result.attempts));
    metrics->counter("robust.link.connect_retries")
        .add(result.link_retries);
    metrics->counter("robust.run.delivered_bytes")
        .add(result.bytes_delivered);
  }
  if (run_span) {
    run_span.arg("attempts", result.attempts);
    run_span.arg("reschedules", result.reschedules);
    run_span.arg("delivered", result.bytes_delivered);
    run_span.arg("verified", result.verified);
  }
  return result;
}

}  // namespace

SocketRunResult socket_bruteforce(const SocketClusterConfig& config,
                                  const TrafficMatrix& traffic) {
  return run(config, traffic, nullptr, 1.0, RobustnessOptions{});
}

SocketRunResult socket_scheduled(const SocketClusterConfig& config,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit) {
  return run(config, traffic, &schedule, bytes_per_time_unit,
             RobustnessOptions{});
}

SocketRunResult socket_scheduled(const SocketClusterConfig& config,
                                 const TrafficMatrix& traffic,
                                 const Schedule& schedule,
                                 double bytes_per_time_unit,
                                 const RobustnessOptions& robustness) {
  return run(config, traffic, &schedule, bytes_per_time_unit, robustness);
}

}  // namespace redist
