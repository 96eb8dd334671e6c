#include "mpilite/comm.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/error.hpp"
#include "net/client_session.hpp"

namespace redist {

namespace {
constexpr std::uint32_t kBarrierTag = 0xB0BA0000;
}

Mesh::Mesh(int size, const MeshOptions& options)
    : size_(size), deadlines_(options.io_timeout_ms > 0) {
  REDIST_CHECK_MSG(size >= 1, "mesh needs at least one rank");
  links_.resize(static_cast<std::size_t>(size));
  for (auto& row : links_) {
    row.resize(static_cast<std::size_t>(size));
  }
  for (int r = 0; r < size; ++r) {
    comms_.emplace_back(new Communicator(this, r));
  }
  if (size == 1) return;

  // One listener per rank on an ephemeral loopback port. An armed
  // io_timeout also bounds accept(), so a peer whose connect retries
  // exhausted cannot strand its counterpart in accept() forever.
  std::vector<TcpListener> listeners;
  listeners.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    listeners.push_back(TcpListener::bind_loopback(size));
    listeners.back().set_accept_timeout_ms(options.io_timeout_ms);
  }

  // Wire the mesh with one thread per rank: connect to lower ranks,
  // accept from higher ranks. The handshake carries the connector's rank.
  std::vector<std::thread> wires;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    wires.emplace_back([this, r, &listeners, &errors, &options]() {
      try {
        // Each wiring thread dials through ClientSession under a policy
        // whose jitter stream is decorrelated by rank. The session covers
        // connect + rank handshake per attempt: a failed handshake
        // redials from scratch, exactly the old hand-rolled semantics.
        ClientSessionOptions dial_options;
        dial_options.retry = options.connect_retry;
        dial_options.retry.seed += static_cast<std::uint64_t>(r);
        dial_options.io_timeout_ms = options.io_timeout_ms;
        for (int peer = 0; peer < r; ++peer) {
          int retries = 0;
          ClientSession session = ClientSession::dial(
              listeners[static_cast<std::size_t>(peer)].port(), dial_options,
              [r](TcpStream& stream) {
                const std::uint32_t me = static_cast<std::uint32_t>(r);
                stream.send_all(&me, sizeof(me));
              },
              &retries);
          connect_retries_.fetch_add(static_cast<std::uint64_t>(retries),
                                     std::memory_order_relaxed);
          auto link = std::make_unique<Link>();
          link->stream = std::move(session.stream());
          links_[static_cast<std::size_t>(r)][static_cast<std::size_t>(
              peer)] = std::move(link);
        }
        for (int expected = r + 1; expected < size_; ++expected) {
          TcpStream stream =
              listeners[static_cast<std::size_t>(r)].accept();
          stream.set_nodelay(true);
          stream.set_io_timeout_ms(options.io_timeout_ms);
          std::uint32_t who = 0;
          stream.recv_all(&who, sizeof(who));
          REDIST_CHECK_MSG(static_cast<int>(who) > r &&
                               static_cast<int>(who) < size_,
                           "bad handshake rank " << who);
          auto link = std::make_unique<Link>();
          link->stream = std::move(stream);
          auto& slot = links_[static_cast<std::size_t>(r)]
                             [static_cast<std::size_t>(who)];
          REDIST_CHECK_MSG(slot == nullptr, "duplicate connection");
          slot = std::move(link);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : wires) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

Communicator& Mesh::comm(int rank) {
  REDIST_CHECK_MSG(rank >= 0 && rank < size_, "rank out of range: " << rank);
  return *comms_[static_cast<std::size_t>(rank)];
}

void Mesh::unblock_ranks() {
  if (deadlines_) return;
  for (const auto& row : links_) {
    for (const auto& link : row) {
      if (link != nullptr) link->stream.shutdown();
    }
  }
}

Mesh::Link& Communicator::link_to(int peer) {
  REDIST_CHECK_MSG(peer >= 0 && peer < size() && peer != rank_,
                   "bad peer rank " << peer << " (self " << rank_ << ")");
  auto& link = mesh_->links_[static_cast<std::size_t>(rank_)]
                            [static_cast<std::size_t>(peer)];
  REDIST_CHECK(link != nullptr);
  return *link;
}

void Communicator::send_frame(int to, std::uint32_t tag, std::uint64_t size,
                              PayloadSource source,
                              const std::vector<TokenBucket*>& shapers,
                              Bytes chunk) {
  Mesh::Link& link = link_to(to);
  MutexLock guard(link.send_mutex);
  redist::send_frame(link.stream, tag, size, source, shapers, chunk);
}

std::uint64_t Communicator::recv_into(
    int from, std::uint32_t expected_tag, PayloadSink sink,
    const std::vector<TokenBucket*>& shapers, Bytes chunk) {
  Mesh::Link& link = link_to(from);
  MutexLock lock(link.recv_mutex);
  for (;;) {
    // Someone may already have parked our message.
    const auto it = link.inbox.find(expected_tag);
    if (it != link.inbox.end() && !it->second.empty()) {
      const std::vector<char> parked = std::move(it->second.front());
      it->second.pop_front();
      for (std::size_t at = 0; at < parked.size(); at += chunk) {
        sink(parked.data() + at, std::min(parked.size() - at,
                                          static_cast<std::size_t>(chunk)));
      }
      return parked.size();
    }
    if (!link.reader_active) {
      // Become the reader: pull the next frame off the wire with the lock
      // released; a frame for another tag is read whole for the inbox.
      // The wire failure is captured and rethrown after re-acquiring, so
      // every lock transition is straight-line code the thread-safety
      // analysis can verify.
      link.reader_active = true;
      lock.unlock();
      MessageHeader header;
      std::vector<char> foreign;
      std::exception_ptr wire_error;
      try {
        link.stream.recv_all(&header, sizeof(header));
        recv_payload(link.stream, header.size,
                     header.tag == expected_tag
                         ? sink
                         : PayloadSink(append_to(foreign)),
                     shapers, chunk);
      } catch (...) {
        wire_error = std::current_exception();
      }
      lock.lock();
      link.reader_active = false;
      link.recv_cv.notify_all();
      if (wire_error) std::rethrow_exception(wire_error);
      if (header.tag == expected_tag) return header.size;
      link.inbox[header.tag].push_back(std::move(foreign));
    } else {
      link.recv_cv.wait(link.recv_mutex);
    }
  }
}

void Communicator::barrier() {
  std::vector<int> all(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) all[static_cast<std::size_t>(r)] = r;
  barrier(all);
}

void Communicator::barrier(const std::vector<int>& group) {
  const auto it = std::find(group.begin(), group.end(), rank_);
  REDIST_CHECK_MSG(it != group.end(), "rank not in barrier group");
  const int m = static_cast<int>(group.size());
  if (m <= 1) return;
  const int index = static_cast<int>(it - group.begin());
  // Dissemination barrier: ceil(log2 m) rounds of token exchange.
  char token = 1;
  for (int hop = 1; hop < m; hop *= 2) {
    const int to = group[static_cast<std::size_t>((index + hop) % m)];
    const int from =
        group[static_cast<std::size_t>(((index - hop) % m + m) % m)];
    send(to, kBarrierTag + static_cast<std::uint32_t>(hop), &token,
         sizeof(token));
    (void)recv(from, kBarrierTag + static_cast<std::uint32_t>(hop));
  }
}

void run_ranks(Mesh& mesh, const std::function<void(Communicator&)>& body) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(mesh.size()));
  std::atomic<int> first{-1};  // the rank that failed first
  for (int r = 0; r < mesh.size(); ++r) {
    threads.emplace_back([&mesh, &body, &errors, &first, r]() {
      try {
        body(mesh.comm(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        int none = -1;
        if (first.compare_exchange_strong(none, r)) mesh.unblock_ranks();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first.load() >= 0) {
    std::rethrow_exception(errors[static_cast<std::size_t>(first.load())]);
  }
}

}  // namespace redist
