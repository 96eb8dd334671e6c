#include "mpilite/alltoallv.hpp"

#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "graph/traffic_matrix.hpp"
#include "kpbs/schedule_io.hpp"
#include "kpbs/solver.hpp"

namespace redist {

namespace {

constexpr std::uint32_t kCountsTag = 0xA2A00001;
constexpr std::uint32_t kPlanTag = 0xA2A00002;
constexpr std::uint32_t kDataTag = 0xA2A00003;

// Reads `count` int64 values from a received byte buffer.
std::vector<std::int64_t> decode_counts(const std::vector<char>& bytes,
                                        std::size_t count) {
  REDIST_CHECK(bytes.size() == count * sizeof(std::int64_t));
  std::vector<std::int64_t> values(count);
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return values;
}

}  // namespace

std::vector<std::vector<char>> scheduled_alltoallv(
    Communicator& comm, const std::vector<std::vector<char>>& send,
    const AlltoallvOptions& options) {
  const int n = comm.size();
  const int me = comm.rank();
  REDIST_CHECK_MSG(static_cast<int>(send.size()) == n,
                   "alltoallv needs one buffer per rank");
  REDIST_CHECK_MSG(options.bytes_per_time_unit >= 1,
                   "bytes_per_time_unit must be >= 1");

  // --- 1. Gather the byte-count matrix at rank 0 and broadcast it, so --
  // every rank derives the same byte plan. Row i holds rank i's counts.
  const auto cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<std::int64_t> counts;
  for (const std::vector<char>& buffer : send) {
    counts.push_back(static_cast<std::int64_t>(buffer.size()));
  }
  if (me == 0) {
    for (int r = 1; r < n; ++r) {
      const std::vector<std::int64_t> row = decode_counts(
          comm.recv(r, kCountsTag), static_cast<std::size_t>(n));
      counts.insert(counts.end(), row.begin(), row.end());
    }
    for (int r = 1; r < n; ++r) {
      comm.send(r, kPlanTag, counts.data(), cells * sizeof(std::int64_t));
    }
  } else {
    comm.send(0, kCountsTag, counts.data(),
              counts.size() * sizeof(std::int64_t));
    counts = decode_counts(comm.recv(0, kPlanTag), cells);
  }
  TrafficMatrix traffic(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::int64_t b =
          counts[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(j)];
      if (i != j && b > 0) traffic.set(i, j, b);
    }
  }

  // --- 2. Solve at rank 0; 3. broadcast the schedule as text. ------------
  std::string plan_text;
  if (me == 0) {
    Schedule schedule;
    if (traffic.total() > 0) {
      const BipartiteGraph g = traffic.to_graph(
          static_cast<double>(options.bytes_per_time_unit));
      const int k = options.k > 0 ? options.k : n;
      schedule = solve_kpbs(g, {k, options.beta, Algorithm::kOGGP}).schedule;
    }
    plan_text = schedule_to_string(schedule);
    for (int r = 1; r < n; ++r) {
      comm.send(r, kPlanTag, plan_text.data(), plan_text.size());
    }
  } else {
    const std::vector<char> text = comm.recv(0, kPlanTag);
    plan_text.assign(text.begin(), text.end());
  }
  const BytePlan plan =
      plan_bytes(traffic, schedule_from_string(plan_text),
                 static_cast<double>(options.bytes_per_time_unit));

  // --- 4. Execute. -------------------------------------------------------
  std::vector<std::vector<char>> received(static_cast<std::size_t>(n));
  // Self-message: local copy.
  received[static_cast<std::size_t>(me)] = send[static_cast<std::size_t>(me)];

  // Receiver thread: drains the pieces addressed to me in step order (at
  // most one per step, 1-port).
  std::thread receiver([&]() {
    for (const std::vector<BytePiece>& pieces : plan) {
      for (const BytePiece& piece : pieces) {
        if (piece.receiver != me) continue;
        comm.recv_into(piece.sender, kDataTag,
                       append_to(received[static_cast<std::size_t>(
                           piece.sender)]));
      }
    }
  });

  // Sender side: step by step, barrier-separated.
  std::vector<Bytes> offset(static_cast<std::size_t>(n), 0);
  for (const std::vector<BytePiece>& pieces : plan) {
    for (const BytePiece& piece : pieces) {
      if (piece.sender != me) continue;
      const auto to = static_cast<std::size_t>(piece.receiver);
      comm.send(piece.receiver, kDataTag, send[to].data() + offset[to],
                static_cast<std::size_t>(piece.bytes));
      offset[to] += piece.bytes;
    }
    comm.barrier();
  }
  receiver.join();

  // --- 5. Verify sizes. ---------------------------------------------------
  for (int src = 0; src < n; ++src) {
    if (src == me) continue;
    REDIST_CHECK_MSG(
        static_cast<std::int64_t>(
            received[static_cast<std::size_t>(src)].size()) ==
            traffic.at(src, me),
        "rank " << me << " received wrong byte count from " << src);
  }
  return received;
}

}  // namespace redist
