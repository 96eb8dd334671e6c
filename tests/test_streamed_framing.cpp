// Streamed framing: payloads move chunk by chunk through send_frame and
// recv_payload (net/message.hpp), Communicator::send_frame / recv_into and
// the socket runtime, and only a parked foreign-tag frame is materialized
// whole. Corruption is driven through the fault injector's kCorrupt rule,
// which flips one received byte at a chosen offset of a recv operation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mpilite/comm.hpp"
#include "mpilite/redistribute.hpp"
#include "net/client_session.hpp"
#include "net/message.hpp"
#include "net/rpc.hpp"
#include "net/socket.hpp"
#include "robust/fault_injector.hpp"

namespace redist {
namespace {

std::vector<char> test_bytes(std::size_t n, int seed) {
  std::vector<char> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(i * 31 + static_cast<std::size_t>(seed));
  }
  return out;
}

// --- net/message: the two chunk loops ------------------------------------

TEST(Message, StreamedFrameArrivesWholeAtEveryChunkSize) {
  // 1 byte, a size that does not divide the payload, one larger than the
  // old 4 KiB pattern block, one larger than the payload, and one larger
  // than the receive loop's 64 KiB buffer.
  const std::pair<Bytes, std::size_t> cases[] = {
      {1, 10000}, {3001, 10000}, {6000, 10000}, {20000, 10000},
      {100000, 150000}};
  for (const auto& [chunk, bytes] : cases) {
    const std::vector<char> sent = test_bytes(bytes, 3);
    TcpListener listener = TcpListener::bind_loopback();
    std::thread server([&]() {
      TcpStream peer = listener.accept();
      MessageHeader header;
      peer.recv_all(&header, sizeof(header));
      EXPECT_EQ(header.tag, 77u);
      ASSERT_EQ(header.size, sent.size());
      std::vector<char> got;
      recv_payload(
          peer, header.size,
          [&](const char* data, std::size_t n) {
            EXPECT_LE(static_cast<Bytes>(n), chunk);
            EXPECT_LE(n, 65536u);
            got.insert(got.end(), data, data + n);
          },
          {}, chunk);
      EXPECT_EQ(got, sent);
    });
    TcpStream client = TcpStream::connect_loopback(listener.port());
    std::uint64_t next = 0;
    send_frame(
        client, 77, sent.size(),
        [&](std::uint64_t offset, std::size_t n) {
          EXPECT_EQ(offset, next);  // the source is asked in order
          EXPECT_LE(static_cast<Bytes>(n), chunk);
          next += n;
          return sent.data() + offset;
        },
        {}, chunk);
    server.join();
    EXPECT_EQ(next, sent.size()) << "chunk " << chunk;
  }
}

TEST(Message, ZeroBytePayloadNeverTouchesSourceOrSink) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&]() {
    TcpStream peer = listener.accept();
    MessageHeader header;
    peer.recv_all(&header, sizeof(header));
    EXPECT_EQ(header.tag, 5u);
    EXPECT_EQ(header.size, 0u);
    recv_payload(
        peer, header.size,
        [](const char*, std::size_t) { ADD_FAILURE() << "sink called"; }, {},
        16);
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  send_frame(
      client, 5, 0,
      [](std::uint64_t, std::size_t) -> const char* {
        ADD_FAILURE() << "source called";
        return nullptr;
      },
      {}, 16);
  server.join();
}

// --- Communicator: tag matching over streamed frames ---------------------

TEST(TagMatching, ForeignMultiChunkFramesAreParkedAndDeliveredByteExact) {
  const std::vector<char> first = test_bytes(10000, 1);
  const std::vector<char> second = test_bytes(2500, 2);
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, first.data(), first.size(), {}, 1000);
      comm.send(1, 7, second.data(), second.size(), {}, 1000);
      const char token = 't';
      comm.send(1, 8, &token, 1);
      return;
    }
    // Reading tag 8 parks both tag-7 frames whole.
    EXPECT_EQ(comm.recv(0, 8), std::vector<char>{'t'});
    // A parked frame still reaches a sink in chunk-sized pieces...
    std::vector<char> got;
    int pieces = 0;
    EXPECT_EQ(comm.recv_into(
                  0, 7,
                  [&](const char* data, std::size_t n) {
                    ++pieces;
                    EXPECT_LE(n, 1000u);
                    got.insert(got.end(), data, data + n);
                  },
                  {}, 1000),
              first.size());
    EXPECT_EQ(pieces, 10);
    EXPECT_EQ(got, first);
    // ...and the whole-buffer form returns it byte for byte.
    EXPECT_EQ(comm.recv(0, 7), second);
  });
}

TEST(TagMatching, ZeroByteFramesWireAndParked) {
  Mesh mesh(2);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, nullptr, 0);
      comm.send(1, 6, nullptr, 0);
      return;
    }
    const auto no_sink = [](const char*, std::size_t) {
      ADD_FAILURE() << "sink called for an empty frame";
    };
    EXPECT_EQ(comm.recv_into(0, 6, no_sink), 0u);  // off the wire
    EXPECT_EQ(comm.recv_into(0, 5, no_sink), 0u);  // parked
  });
}

TEST(TagMatching, CorruptedChunkStillConsumesTheWholeFrame) {
  const std::vector<char> sent = test_bytes(5000, 4);
  Mesh mesh(2);
  // Only rank 1 receives, so its recv operations are numbered in order:
  // 0 the header, 1..5 the 1000-byte chunks of the first frame, then the
  // second frame. Flip byte 500 of the third chunk.
  robust::FaultInjector injector(21);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kCorrupt;
  rule.site = robust::FaultSite::kRecv;
  rule.begin = 3;
  rule.at_bytes = 500;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  run_ranks(mesh, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, sent.data(), sent.size(), {}, 1000);
      comm.send(1, 3, sent.data(), sent.size(), {}, 1000);
      return;
    }
    for (int frame = 0; frame < 2; ++frame) {
      std::vector<std::size_t> bad_offsets;
      std::size_t at = 0;
      const std::uint64_t size = comm.recv_into(
          0, 3,
          [&](const char* data, std::size_t n) {
            for (std::size_t b = 0; b < n; ++b) {
              if (data[b] != sent[at + b]) bad_offsets.push_back(at + b);
            }
            at += n;
          },
          {}, 1000);
      EXPECT_EQ(size, sent.size());
      EXPECT_EQ(at, sent.size()) << "frame " << frame << " cut short";
      EXPECT_EQ(bad_offsets, frame == 0 ? std::vector<std::size_t>{2500}
                                        : std::vector<std::size_t>{});
    }
  });
  EXPECT_EQ(injector.injected_count(), 1u);
}

TEST(SocketFault, InjectedCorruptionFlipsOneReceivedByte) {
  EXPECT_STREQ(robust::fault_kind_name(robust::FaultKind::kCorrupt),
               "corrupt");
  robust::FaultInjector injector(22);
  robust::FaultRule on_send;
  on_send.kind = robust::FaultKind::kCorrupt;
  on_send.site = robust::FaultSite::kSend;
  EXPECT_THROW(injector.add_rule(on_send), Error);

  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kCorrupt;
  rule.site = robust::FaultSite::kRecv;
  rule.at_bytes = 5;
  injector.add_rule(rule);
  TcpListener listener = TcpListener::bind_loopback();
  TcpStream client = TcpStream::connect_loopback(listener.port());
  TcpStream peer = listener.accept();
  const std::vector<char> sent = test_bytes(10, 9);
  client.send_all(sent.data(), sent.size());
  const robust::ScopedFaultInjection scope(&injector);
  std::vector<char> got(sent.size());
  peer.recv_all(got.data(), got.size());
  for (std::size_t b = 0; b < sent.size(); ++b) {
    EXPECT_EQ(got[b] != sent[b], b == 5) << "byte " << b;
  }
}

// --- The socket runtime --------------------------------------------------

SocketClusterConfig fast_cluster(Bytes chunk) {
  SocketClusterConfig config;
  config.card_out_bps = 1e9;
  config.card_in_bps = 1e9;
  config.backbone_bps = 2e9;
  config.chunk_bytes = chunk;
  return config;
}

TEST(SocketRedistribute, StreamsAndVerifiesAtEveryChunkSize) {
  TrafficMatrix traffic(2, 2);
  traffic.set(0, 0, 7001);
  traffic.set(0, 1, 5003);
  traffic.set(1, 0, 3002);
  traffic.set(1, 1, 9007);
  // Two-unit pieces of 4000 bytes plus the remainders.
  const double bpu = 2000.0;
  Schedule s;
  s.add_step(Step{{{0, 0, 2}, {1, 1, 2}}});
  s.add_step(Step{{{0, 1, 2}, {1, 0, 2}}});
  s.add_step(Step{{{0, 0, 2}, {1, 1, 3}}});
  s.add_step(Step{{{0, 1, 1}}});
  for (const Bytes chunk : {Bytes{1}, Bytes{1500}, Bytes{6000}}) {
    const SocketRunResult r =
        socket_scheduled(fast_cluster(chunk), traffic, s, bpu);
    EXPECT_TRUE(r.verified) << "chunk " << chunk;
    EXPECT_EQ(r.bytes_delivered, traffic.total()) << "chunk " << chunk;
    const SocketRunResult brute = socket_bruteforce(fast_cluster(chunk),
                                                    traffic);
    EXPECT_TRUE(brute.verified) << "chunk " << chunk;
  }
}

TEST(SocketRedistribute, CorruptedByteStopsAtTheLastVerifiedOffset) {
  // One pair, two messages: 4000 bytes, then 20000 in chunks of 16384 and
  // 3616. Every recv operation is eligible, but only one that moves more
  // than 5000 bytes can flip byte 5000: the first chunk of the second
  // message. Handshakes, barrier tokens, headers and the first message are
  // all shorter, whatever order the threads run in.
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 24000);
  Schedule s;
  s.add_step(Step{{{0, 0, 1}}});
  s.add_step(Step{{{0, 0, 5}}});
  robust::FaultInjector injector(23);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kCorrupt;
  rule.site = robust::FaultSite::kRecv;
  rule.count = 1000000;
  rule.at_bytes = 5000;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);

  RobustnessOptions robustness;
  robustness.enabled = true;
  robustness.io_timeout_ms = 300;  // the sender's finish barrier gives up
  robustness.resolve = SolverOptions{1, 1, Algorithm::kOGGP};
  const SocketRunResult r = socket_scheduled(fast_cluster(16384), traffic,
                                             s, 4000.0, robustness);
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.bytes_delivered, 4000);  // the pair's ledger
  EXPECT_EQ(r.attempts, 1);            // wrong bytes are never resent
  EXPECT_EQ(r.reschedules, 0);
  // Receive operations: the wiring handshake (1), the start barrier
  // (2 ranks x header + token), the first message (header + 1 chunk), the
  // whole second message (header + 2 chunks) and the sender's finish
  // barrier header, which times out: the receiver read the corrupted
  // message to its end before it threw.
  EXPECT_EQ(injector.op_count(robust::FaultSite::kRecv), 11u);
}

// Without recovery no idle deadline is armed. The receiver throws on the
// corrupted second message while the sender waits for it at the finish
// barrier; the mesh's links are shut down so that the sender unwinds, and
// the receiver's error, the first, is rethrown.
TEST(SocketRedistribute, FailedRankWithoutRecoveryThrowsInsteadOfHanging) {
  TrafficMatrix traffic(1, 1);
  traffic.set(0, 0, 24000);
  Schedule s;
  s.add_step(Step{{{0, 0, 1}}});
  s.add_step(Step{{{0, 0, 5}}});
  robust::FaultInjector injector(24);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kCorrupt;
  rule.site = robust::FaultSite::kRecv;
  rule.count = 1000000;
  rule.at_bytes = 5000;  // only the second message's first chunk is longer
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  try {
    socket_scheduled(fast_cluster(16384), traffic, s, 4000.0,
                     RobustnessOptions{});
    ADD_FAILURE() << "a corrupted message did not fail the run";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("pattern verification failed"),
              std::string::npos)
        << e.what();
  }
}

// --- rpc: the wrappers keep the wire bytes -------------------------------

std::vector<char> from_hex(const std::string& hex) {
  std::vector<char> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// Frames as the whole-buffer encoder wrote them before payloads were
// streamed: u32 tag, 4 padding bytes, u64 size, payload. The padding bytes
// were uninitialized then and are zero now; every other byte is unchanged.
const char* const kHelloFrame = "01520000000000000400000000000000"
                                "04000000";
const char* const kHelloAckFrame = "02520000000000000400000000000000"
                                   "04000000";
const char* const kSolveRequestFrame =
    "03520000000000005100000000000000070000000000000002000000010000000000"
    "000001020000000200000003000000000000000000000064000000000000000000"
    "000001000000320000000000000001000000010000004b00000000000000";
const char* const kSolveResponseFrame =
    "0452000000000000480000000000000007000000000000002a00000000000000000000"
    "00000000e03f0200000000000000960000000000000001000000000000000000000000"
    "00f43f0b0000007363686564756c6520320a";

TEST(Rpc, WireBytesMatchTheWholeBufferEncoding) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&]() {
    TcpStream peer = listener.accept();
    for (const auto& [request, reply] :
         {std::pair{kHelloFrame, kHelloAckFrame},
          std::pair{kSolveRequestFrame, kSolveResponseFrame}}) {
      const std::vector<char> want = from_hex(request);
      std::vector<char> got(want.size());
      peer.recv_all(got.data(), got.size());
      EXPECT_EQ(got, want);
      const std::vector<char> answer = from_hex(reply);
      peer.send_all(answer.data(), answer.size());
    }
  });
  ClientSession session = ClientSession::dial_rpc(listener.port());
  rpc::SolveRequest request;
  request.request_id = 7;
  request.k = 2;
  request.beta = 1;
  request.senders = 2;
  request.receivers = 2;
  request.entries = {{0, 0, 100}, {0, 1, 50}, {1, 1, 75}};
  const rpc::SolveResponse response = session.solve(request);
  server.join();
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(response.solve_id, 42u);
  EXPECT_EQ(response.lb_num, 150);
  EXPECT_DOUBLE_EQ(response.evaluation_ratio, 1.25);
  EXPECT_EQ(response.schedule_text, "schedule 2\n");
}

}  // namespace
}  // namespace redist
