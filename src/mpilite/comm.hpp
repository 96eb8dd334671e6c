// mpilite — a miniature message-passing runtime over real TCP sockets.
//
// The paper implemented its experiments "using MPICH"; this is the
// equivalent substrate at laptop scale: N ranks (threads) joined by a full
// mesh of loopback TCP connections, with blocking tagged send/recv and a
// dissemination barrier. Everything the redistribution engines need — and
// nothing more.
//
// Topology setup: every rank owns a listener on an ephemeral port; rank i
// actively connects to every rank j < i (announcing itself with a
// handshake) and accepts connections from every j > i. The kernel's accept
// backlog makes the ordering race-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/contract_annotations.hpp"
#include "common/sync.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "robust/retry.hpp"

REDIST_LAYER("mpilite");

namespace redist {

class Communicator;

/// Robustness knobs for a Mesh. The defaults reproduce the original
/// behavior exactly: block forever on a silent peer, fail link setup on
/// the first error.
struct MeshOptions {
  /// Idle deadline armed on every link socket (and on accept during
  /// wiring); <= 0 blocks forever. Progress resets the deadline, so a slow
  /// peer never trips it — only a silent one does (TimeoutError).
  int io_timeout_ms = 0;
  /// Retry budget for each connect-plus-handshake during wiring (transient
  /// refusals — injected or from a peer that has not reached listen() —
  /// are retried with capped exponential backoff).
  robust::RetryPolicy connect_retry{1, 1, 250, 2.0, 0.25, 0x5EEDBACC};
};

/// A fully-connected group of `size` ranks. Create once, then hand each
/// rank its Communicator and run them on separate threads.
class Mesh {
 public:
  explicit Mesh(int size) : Mesh(size, MeshOptions{}) {}
  Mesh(int size, const MeshOptions& options);

  int size() const { return size_; }

  /// Total connect retries spent wiring the mesh (0 when every link came
  /// up first try).
  std::uint64_t connect_retries() const { return connect_retries_.load(); }

  /// Communicator of one rank; each must be used by exactly one thread.
  Communicator& comm(int rank);

  /// After a rank failed: without idle deadlines, shuts down every link so
  /// that ranks blocked on the failed one unwind. With deadlines armed it
  /// does nothing: they stop the ranks that wait on the failed one, and
  /// the rest finish what they are sending.
  void unblock_ranks();

 private:
  friend class Communicator;

  // Tag matching: multiple threads of one rank may recv on the same link
  // with different tags (e.g. a data-drain thread and a barrier); frames
  // read for someone else's tag are parked in the inbox.
  struct Link {
    // Full-duplex socket: the write side is serialized by send_mutex, the
    // read side by the reader_active hand-off below (exactly one thread
    // reads the wire at a time, with recv_mutex released during the read).
    // That protocol spans two capabilities, which is beyond GUARDED_BY.
    TcpStream stream;  // redist-analyze: allow(mutex-guard) duplex protocol
    // send() holds the write token through the shaper (TokenBucket — now
    // lock-free, so no ordering edge) and the fault-injection seams,
    // hence the declared ordering.
    Mutex send_mutex REDIST_ACQUIRED_BEFORE(inject_mutex_)
        REDIST_LOCK_RANK(20);
    Mutex recv_mutex REDIST_LOCK_RANK(25);
    CondVar recv_cv;
    bool reader_active REDIST_GUARDED_BY(recv_mutex) = false;
    std::map<std::uint32_t, std::deque<std::vector<char>>> inbox
        REDIST_GUARDED_BY(recv_mutex);
  };

  int size_ = 0;
  bool deadlines_ = false;  // MeshOptions::io_timeout_ms > 0
  std::vector<std::unique_ptr<Communicator>> comms_;
  // links_[i][j]: stream rank i uses to talk to rank j (j != i).
  std::vector<std::vector<std::unique_ptr<Link>>> links_;
  std::atomic<std::uint64_t> connect_retries_{0};
};

class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return mesh_->size(); }

  /// Blocking tagged point-to-point. Messages between one pair with one
  /// tag arrive in order; frames with other tags encountered while waiting
  /// are parked whole for their eventual receiver (MPI-style tag matching).
  /// Note: a parked frame is drained by whichever thread was reading, so
  /// per-chunk receive shaping only applies to frames consumed directly.
  /// send_frame and recv_into stream; send and recv are whole-buffer forms.
  REDIST_ALLOW_BLOCK(
      "send_mutex is the per-link write token: the wire write and the "
      "shaper sleep happen under it by design, deadline-armed")
  void send_frame(int to, std::uint32_t tag, std::uint64_t size,
                  PayloadSource source,
                  const std::vector<TokenBucket*>& shapers = {},
                  Bytes chunk = 65536);
  void send(int to, std::uint32_t tag, const void* data, std::size_t size,
            const std::vector<TokenBucket*>& shapers = {},
            Bytes chunk = 65536) {
    send_frame(to, tag, size, source_of(data), shapers, chunk);
  }
  /// Returns the payload size; a parked frame reaches `sink` in pieces of
  /// at most `chunk` bytes too.
  std::uint64_t recv_into(int from, std::uint32_t expected_tag,
                          PayloadSink sink,
                          const std::vector<TokenBucket*>& shapers = {},
                          Bytes chunk = 65536);
  std::vector<char> recv(int from, std::uint32_t expected_tag,
                         const std::vector<TokenBucket*>& shapers = {},
                         Bytes chunk = 65536) {
    std::vector<char> payload;
    recv_into(from, expected_tag, append_to(payload), shapers, chunk);
    return payload;
  }

  /// Dissemination barrier over all ranks, or over a subgroup (every
  /// member must pass the same `group`, which must contain this rank).
  void barrier();
  void barrier(const std::vector<int>& group);

 private:
  friend class Mesh;
  Communicator(Mesh* mesh, int rank) : mesh_(mesh), rank_(rank) {}

  Mesh::Link& link_to(int peer);

  Mesh* mesh_ = nullptr;
  int rank_ = 0;
};

/// Runs `body(comm)` for every rank on its own thread and joins them.
/// The first rank to throw calls mesh.unblock_ranks(), and its exception
/// is rethrown once every rank has returned.
void run_ranks(Mesh& mesh, const std::function<void(Communicator&)>& body);

}  // namespace redist
