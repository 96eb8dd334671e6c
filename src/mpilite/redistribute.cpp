#include "mpilite/redistribute.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
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
// a window plus one period holds every window-sized run of it. Senders send
// chunks straight from it and receivers compare each chunk with it as it
// arrives, so the window must hold a chunk.
class Pattern {
 public:
  Pattern(NodeId i, NodeId j, Bytes window)
      : bytes_(static_cast<std::size_t>(window) + 256) {
    for (std::size_t k = 0; k < bytes_.size(); ++k) {
      bytes_[k] = static_cast<char>(
          (static_cast<std::size_t>(i) * 131 +
           static_cast<std::size_t>(j) * 31 + k) &
          0xFF);
    }
  }

  /// The stream from position `index` on, valid for a window.
  const char* at(Bytes index) const {
    return bytes_.data() + static_cast<std::size_t>(index % 256);
  }

 private:
  std::vector<char> bytes_;
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

// The messages of one attempt, step by step: plan_bytes' pieces of
// `schedule` (amounts in time units worth `bytes_per_time_unit` bytes), or
// for brute force (no schedule) every flow whole in one step.
BytePlan attempt_plan(const TrafficMatrix& traffic, const Schedule* schedule,
                      double bytes_per_time_unit) {
  if (schedule != nullptr) {
    return plan_bytes(traffic, *schedule, bytes_per_time_unit);
  }
  BytePlan plan(1);
  for (NodeId i = 0; i < traffic.senders(); ++i) {
    for (NodeId j = 0; j < traffic.receivers(); ++j) {
      if (traffic.at(i, j) > 0) {
        plan[0].push_back(BytePiece{i, j, traffic.at(i, j)});
      }
    }
  }
  if (plan[0].empty()) plan.clear();
  return plan;
}

// Receiver-side drain with a per-pair delivery ledger: one thread per
// sender with traffic. Each drain thread owns exactly one ledger slot (its
// pair), updated only after a message is fully received and
// pattern-verified, so a failed attempt leaves behind the precise resume
// offset for its pair. A verification failure is unrecoverable
// (retransmission cannot unconsume wrong bytes) and clears `pattern_ok`.
void run_receiver(Communicator& comm, NodeId receiver_index,
                  const BytePlan& plan, const SocketClusterConfig& config,
                  Shapers& shapers, const std::map<PairKey, Bytes>& base,
                  std::map<PairKey, Bytes>& ledger,
                  std::atomic<bool>& pattern_ok) {
  // Each sender's messages to this receiver, in send order.
  std::map<NodeId, std::vector<Bytes>> incoming;
  for (const std::vector<BytePiece>& pieces : plan) {
    for (const BytePiece& piece : pieces) {
      if (piece.receiver == receiver_index) {
        incoming[piece.sender].push_back(piece.bytes);
      }
    }
  }
  const std::vector<std::pair<NodeId, std::vector<Bytes>>> drains(
      incoming.begin(), incoming.end());
  run_threads(drains.size(), [&](std::size_t d) {
    const auto& [i, sizes] = drains[d];
    const PairKey key{i, receiver_index};
    const Pattern pattern(i, receiver_index, config.chunk_bytes);
    const std::vector<TokenBucket*> in_shapers{
        shapers.in[static_cast<std::size_t>(receiver_index)].get()};
    Bytes offset = base.at(key);
    Bytes& slot = ledger.at(key);
    for (const Bytes piece : sizes) {
      // Each chunk is compared as it arrives; the frame is read to its end
      // past a mismatch, so the link stays in step with the sender.
      bool intact = true;
      const std::uint64_t size = comm.recv_into(
          static_cast<int>(i), kDataTag,
          [&](const char* data, std::size_t n) {
            intact = intact && std::memcmp(data, pattern.at(offset), n) == 0;
            offset += static_cast<Bytes>(n);
          },
          in_shapers, config.chunk_bytes);
      if (!intact || size != static_cast<std::uint64_t>(piece)) {
        pattern_ok.store(false);
        throw Error("pattern verification failed");
      }
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
                           const BytePlan& plan, bool stepped,
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
  try {
    run_ranks(mesh, [&, run_id](Communicator& comm) {
      const obs::SolveIdScope rank_scope(run_id);
      const int r = comm.rank();
      comm.barrier();  // synchronized start
      if (r == 0) outcome.started_s = clock.elapsed_seconds();
      if (r < static_cast<int>(n1)) {
        const NodeId me = static_cast<NodeId>(r);
        const std::vector<TokenBucket*> out_shapers{
            shapers.out[static_cast<std::size_t>(me)].get(),
            shapers.backbone.get()};
        // What this attempt has sent on each of my pairs so far.
        std::vector<Bytes> sent(static_cast<std::size_t>(n2), 0);
        for (const std::vector<BytePiece>& pieces : plan) {
          // My pieces of the step, each with its stream offset.
          std::vector<std::pair<BytePiece, Bytes>> mine;
          for (const BytePiece& piece : pieces) {
            if (piece.sender != me) continue;
            Bytes& done = sent[static_cast<std::size_t>(piece.receiver)];
            mine.emplace_back(piece, base.at({me, piece.receiver}) + done);
            done += piece.bytes;
          }
          const auto send = [&](std::size_t p) {
            const BytePiece& piece = mine[p].first;
            const Bytes offset = mine[p].second;
            const Pattern pattern(me, piece.receiver,
                                  std::min(config.chunk_bytes, piece.bytes));
            const auto source = [&](std::uint64_t at, std::size_t) {
              return pattern.at(offset + static_cast<Bytes>(at));
            };
            comm.send_frame(static_cast<int>(n1 + piece.receiver), kDataTag,
                            static_cast<std::uint64_t>(piece.bytes), source,
                            out_shapers, config.chunk_bytes);
          };
          if (!stepped) {
            // Brute force: one thread per outgoing flow, all at once.
            run_threads(mine.size(), send);
            continue;
          }
          for (std::size_t p = 0; p < mine.size(); ++p) send(p);
          comm.barrier(sender_group);  // the paper's inter-step barrier
        }
      } else {
        run_receiver(comm, static_cast<NodeId>(r) - n1, plan, config,
                     shapers, base, ledger, pattern_ok);
      }
      comm.barrier();  // synchronized finish
      if (r == 0) outcome.finished_s = clock.elapsed_seconds();
    });
  } catch (...) {
    outcome.error = std::current_exception();
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
    const BytePlan plan =
        attempt_plan(residual, current, bytes_per_time_unit);
    AttemptOutcome outcome;
    {
      obs::TraceSpan attempt_span(obs::trace(), "socket.robust.attempt");
      if (attempt_span) attempt_span.arg("attempt", attempt);
      obs::journal_record(obs::JournalEventKind::kAttemptBegin, attempt);
      try {
        outcome = run_attempt(config, residual, plan, current != nullptr,
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
    result.steps += plan.size();
    result.link_retries += outcome.connect_retries;
    if (!pattern_ok.load()) break;  // wrong bytes cannot be retransmitted
    if (!outcome.error || ledger_total(ledger) == traffic.total()) break;
    if (attempt == max_attempts) break;

    // Backoff, then rebuild the residual matrix from the ledger and
    // re-solve it into the recovery schedule for the next attempt.
    robust::sleep_ms(robust::backoff_delay_ms(robustness.attempt_backoff,
                                              attempt, backoff_rng));
    residual = TrafficMatrix(traffic.senders(), traffic.receivers());
    for (const auto& [pair, delivered] : ledger) {
      const Bytes rest = traffic.at(pair.first, pair.second) - delivered;
      REDIST_CHECK_MSG(rest >= 0, "ledger over-delivered a pair");
      if (rest > 0) residual.set(pair.first, pair.second, rest);
    }
    const BipartiteGraph demand = residual.to_graph(bytes_per_time_unit);
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
                                 double bytes_per_time_unit,
                                 const RobustnessOptions& robustness) {
  return run(config, traffic, &schedule, bytes_per_time_unit, robustness);
}

}  // namespace redist
