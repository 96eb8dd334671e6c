#include "mpilite/alltoallv.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "common/rng.hpp"

namespace redist {
namespace {

// Deterministic payload for pair (i, j).
std::vector<char> payload_for(int i, int j, std::size_t bytes) {
  std::vector<char> data(bytes);
  for (std::size_t b = 0; b < bytes; ++b) {
    data[b] = static_cast<char>((i * 37 + j * 11 + static_cast<int>(b)) & 0xFF);
  }
  return data;
}

void run_alltoallv_case(int n, Rng& rng, const AlltoallvOptions& options,
                        double density = 1.0) {
  // Build the global send matrix up front so every rank can verify.
  std::vector<std::vector<std::vector<char>>> send(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    send[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      if (density >= 1.0 || rng.bernoulli(density)) {
        send[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            payload_for(i, j,
                        static_cast<std::size_t>(rng.uniform_int(0, 60000)));
      }
    }
  }
  Mesh mesh(n);
  std::atomic<int> verified{0};
  run_ranks(mesh, [&](Communicator& comm) {
    const int me = comm.rank();
    const std::vector<std::vector<char>> got = scheduled_alltoallv(
        comm, send[static_cast<std::size_t>(me)], options);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
    for (int src = 0; src < n; ++src) {
      ASSERT_EQ(got[static_cast<std::size_t>(src)],
                send[static_cast<std::size_t>(src)]
                    [static_cast<std::size_t>(me)])
          << "rank " << me << " payload from " << src << " corrupted";
    }
    ++verified;
  });
  ASSERT_EQ(verified.load(), n);
}

TEST(Alltoallv, DenseExchangeFourRanks) {
  Rng rng(1);
  run_alltoallv_case(4, rng, {});
}

TEST(Alltoallv, SparseExchangeWithEmptyBuffers) {
  Rng rng(2);
  run_alltoallv_case(5, rng, {}, /*density=*/0.4);
}

TEST(Alltoallv, RestrictedKSerializesButStaysCorrect) {
  Rng rng(3);
  AlltoallvOptions options;
  options.k = 1;  // one communication at a time, like a saturated backbone
  run_alltoallv_case(3, rng, options);
}

TEST(Alltoallv, SmallTimeUnitForcesPreemptedPieces) {
  Rng rng(4);
  AlltoallvOptions options;
  options.bytes_per_time_unit = 4096;  // many pieces per pair
  options.beta = 2;
  run_alltoallv_case(3, rng, options);
}

TEST(Alltoallv, SingleRankIsSelfCopy) {
  Mesh mesh(1);
  run_ranks(mesh, [&](Communicator& comm) {
    const std::vector<std::vector<char>> send{payload_for(0, 0, 1234)};
    const auto got = scheduled_alltoallv(comm, send, {});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], send[0]);
  });
}

TEST(Alltoallv, AllEmptyBuffersComplete) {
  Mesh mesh(3);
  run_ranks(mesh, [&](Communicator& comm) {
    const std::vector<std::vector<char>> send(3);
    const auto got = scheduled_alltoallv(comm, send, {});
    for (const auto& buf : got) EXPECT_TRUE(buf.empty());
  });
}

TEST(Alltoallv, RejectsWrongArity) {
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::vector<char>> wrong(1);
      EXPECT_THROW(scheduled_alltoallv(comm, wrong, {}), Error);
    }
  });
}

TEST(TagMatching, InterleavedTagsOnOneLinkAreSorted) {
  // The mechanism the collective depends on: two messages with different
  // tags on one stream, received in the opposite order.
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      const int a = 111;
      const int b = 222;
      comm.send(1, /*tag=*/7, &a, sizeof(a));
      comm.send(1, /*tag=*/8, &b, sizeof(b));
    } else {
      const std::vector<char> second = comm.recv(0, 8);  // sent last
      const std::vector<char> first = comm.recv(0, 7);   // parked frame
      int a = 0;
      int b = 0;
      std::memcpy(&a, first.data(), sizeof(a));
      std::memcpy(&b, second.data(), sizeof(b));
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    }
  });
}

}  // namespace
}  // namespace redist
