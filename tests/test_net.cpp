#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "net/client_session.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "common/stopwatch.hpp"
#include "robust/fault_injector.hpp"
#include "runtime/token_bucket.hpp"

namespace redist {
namespace {

TEST(Socket, ListenerGetsEphemeralPort) {
  const TcpListener listener = TcpListener::bind_loopback();
  EXPECT_GT(listener.port(), 0);
}

TEST(Socket, TwoListenersGetDistinctPorts) {
  const TcpListener a = TcpListener::bind_loopback();
  const TcpListener b = TcpListener::bind_loopback();
  EXPECT_NE(a.port(), b.port());
}

TEST(Socket, RoundTripBytes) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&listener]() {
    TcpStream peer = listener.accept();
    char buf[5];
    peer.recv_all(buf, 5);
    peer.send_all(buf, 5);  // echo
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  client.send_all("hello", 5);
  char echo[5];
  client.recv_all(echo, 5);
  server.join();
  EXPECT_EQ(std::memcmp(echo, "hello", 5), 0);
}

TEST(Socket, ConnectToClosedPortThrows) {
  // Bind-and-drop gives a port that is (almost certainly) not listening.
  std::uint16_t dead_port;
  {
    const TcpListener listener = TcpListener::bind_loopback();
    dead_port = listener.port();
  }
  EXPECT_THROW(TcpStream::connect_loopback(dead_port), Error);
}

TEST(Socket, RecvOnPeerCloseThrows) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&listener]() {
    TcpStream peer = listener.accept();
    // Destructor closes immediately.
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  server.join();
  char buf[1];
  EXPECT_THROW(client.recv_all(buf, 1), Error);
}

TEST(Socket, InvalidStreamOperationsThrow) {
  TcpStream stream;
  char buf[1] = {0};
  EXPECT_THROW(stream.send_all(buf, 1), Error);
  EXPECT_THROW(stream.recv_all(buf, 1), Error);
}

TEST(Message, FramedRoundTrip) {
  TcpListener listener = TcpListener::bind_loopback();
  const std::string text = "framed payload with \0 inside";
  std::thread server([&]() {
    TcpStream peer = listener.accept();
    std::vector<char> payload;
    const std::uint32_t tag = recv_message(peer, payload);
    send_message(peer, tag + 1, payload.data(), payload.size());
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  send_message(client, 42, text.data(), text.size());
  std::vector<char> back;
  EXPECT_EQ(recv_message(client, back), 43u);
  server.join();
  ASSERT_EQ(back.size(), text.size());
  EXPECT_EQ(std::memcmp(back.data(), text.data(), text.size()), 0);
}

TEST(Message, EmptyPayload) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&]() {
    TcpStream peer = listener.accept();
    std::vector<char> payload{'x'};  // must be cleared by recv
    EXPECT_EQ(recv_message(peer, payload), 7u);
    EXPECT_TRUE(payload.empty());
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  send_message(client, 7, nullptr, 0);
  server.join();
}

// A reply framed under the wrong tag is refused: the rpc client expects
// HelloAck to its Hello and gets tag 1.
TEST(Message, TagMismatchThrows) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&]() {
    TcpStream peer = listener.accept();
    std::vector<char> hello;
    recv_message(peer, hello);
    send_message(peer, 1, "a", 1);
  });
  ClientSessionOptions options;
  options.retry.max_attempts = 1;
  try {
    ClientSession::dial_rpc(listener.port(), options);
    ADD_FAILURE() << "a reply under the wrong tag was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected reply tag 1"),
              std::string::npos)
        << e.what();
  }
  server.join();
}

TEST(Message, ShapedTransferIsRateLimited) {
  TcpListener listener = TcpListener::bind_loopback();
  const std::size_t bytes = 60000;
  TokenBucket sender_bucket(200e3, 8192);  // 200 KB/s
  std::thread server([&]() {
    TcpStream peer = listener.accept();
    std::vector<char> payload;
    recv_message(peer, payload);
    EXPECT_EQ(payload.size(), bytes);
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  const std::vector<char> payload(bytes, 'r');
  Stopwatch watch;
  send_message(client, 9, payload.data(), payload.size(), {&sender_bucket},
               4096);
  server.join();
  // 60 KB minus one burst at 200 KB/s: at least ~0.2 s.
  EXPECT_GE(watch.elapsed_seconds(), 0.15);
}

TEST(SocketDeadline, RecvTimesOutOnSilentPeer) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&listener]() {
    // Accept, then never send a byte: the classic stalled peer.
    TcpStream peer = listener.accept();
    char byte = 0;
    try {
      peer.recv_all(&byte, 1);  // unblocks when the client closes
    } catch (const Error&) {
    }
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  client.set_io_timeout_ms(100);
  char buf[1];
  EXPECT_THROW(client.recv_all(buf, 1), TimeoutError);
  client = TcpStream();  // close so the server thread unblocks
  server.join();
}

TEST(SocketDeadline, SendTimesOutOnNonDrainingPeer) {
  TcpListener listener = TcpListener::bind_loopback();
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::thread server([&listener, released]() {
    // Accept and hold the socket open without ever reading.
    TcpStream peer = listener.accept();
    released.wait();
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  client.set_io_timeout_ms(100);
  // Far more than the send buffer plus the peer's receive buffer: once
  // both fill, poll(POLLOUT) must expire instead of blocking forever.
  const std::vector<char> payload(32u << 20, 'x');
  EXPECT_THROW(client.send_all(payload.data(), payload.size()), TimeoutError);
  release.set_value();
  server.join();
}

TEST(SocketDeadline, AcceptTimesOutWithoutClients) {
  TcpListener listener = TcpListener::bind_loopback();
  listener.set_accept_timeout_ms(100);
  EXPECT_THROW(listener.accept(), TimeoutError);
}

TEST(SocketDeadline, ZeroTimeoutKeepsBlockingSemantics) {
  TcpStream stream;
  stream.set_io_timeout_ms(0);
  EXPECT_EQ(stream.io_timeout_ms(), 0);
  stream.set_io_timeout_ms(-5);
  EXPECT_EQ(stream.io_timeout_ms(), -5);  // <= 0 means no deadline
}

TEST(SocketFault, InjectedRefusalFailsConnectThenRecovers) {
  TcpListener listener = TcpListener::bind_loopback();
  robust::FaultInjector injector(9);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kConnectRefuse;
  rule.site = robust::FaultSite::kConnect;
  rule.count = 1;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  EXPECT_THROW(TcpStream::connect_loopback(listener.port()), Error);
  // The rule is exhausted; the next dial goes through to the kernel.
  std::thread server([&listener]() { TcpStream peer = listener.accept(); });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  EXPECT_TRUE(client.valid());
  server.join();
  EXPECT_EQ(injector.injected_count(), 1u);
}

TEST(SocketFault, InjectedShortWritesDeliverEveryByte) {
  TcpListener listener = TcpListener::bind_loopback();
  robust::FaultInjector injector(10);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kShortWrite;
  rule.site = robust::FaultSite::kSend;
  rule.count = 1000;
  rule.chunk_cap = 3;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  std::vector<char> sent(1000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<char>(i * 31 + 7);
  }
  std::thread server([&listener, &sent]() {
    TcpStream peer = listener.accept();
    std::vector<char> got(sent.size());
    peer.recv_all(got.data(), got.size());
    EXPECT_EQ(got, sent);
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  client.send_all(sent.data(), sent.size());
  server.join();
  EXPECT_GT(injector.injected_count(), 0u);
}

TEST(SocketFault, InjectedResetThrowsAfterTheConfiguredBytes) {
  TcpListener listener = TcpListener::bind_loopback();
  robust::FaultInjector injector(11);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kReset;
  rule.site = robust::FaultSite::kSend;
  rule.at_bytes = 100;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  std::thread server([&listener]() {
    TcpStream peer = listener.accept();
    std::vector<char> got(1000);
    // The sender's socket is shut down after ~100 bytes; the partial read
    // must surface as an error, never as silently short data.
    EXPECT_THROW(peer.recv_all(got.data(), got.size()), Error);
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  const std::vector<char> payload(1000, 'z');
  EXPECT_THROW(client.send_all(payload.data(), payload.size()), Error);
  server.join();
}

TEST(SocketFault, InjectedStallDelaysTheOperation) {
  TcpListener listener = TcpListener::bind_loopback();
  std::thread server([&listener]() {
    TcpStream peer = listener.accept();
    peer.send_all("ping", 4);
  });
  TcpStream client = TcpStream::connect_loopback(listener.port());
  robust::FaultInjector injector(12);
  robust::FaultRule rule;
  rule.kind = robust::FaultKind::kStall;
  rule.site = robust::FaultSite::kRecv;
  rule.stall_ms = 300;
  injector.add_rule(rule);
  const robust::ScopedFaultInjection scope(&injector);
  char buf[4];
  Stopwatch watch;
  client.recv_all(buf, 4);  // stalled, then completes normally
  EXPECT_GE(watch.elapsed_ms(), 200.0);
  EXPECT_EQ(std::memcmp(buf, "ping", 4), 0);
  server.join();
}

}  // namespace
}  // namespace redist
