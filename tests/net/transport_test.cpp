// Tests for the in-memory channel (byte accounting), the base start()
// path, and the TCP transport (framing, concurrency, pipelined start()
// and wait(), failure handling).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "net/channel.h"
#include "net/dispatch.h"
#include "net/tcp.h"

namespace ice::net {
namespace {

/// Echo-with-prefix handler used across transport tests.
class EchoHandler : public RpcHandler {
 public:
  Bytes handle(std::uint16_t method, BytesView request) override {
    ++calls;
    Bytes out;
    out.push_back(static_cast<std::uint8_t>(method));
    out.insert(out.end(), request.begin(), request.end());
    return out;
  }
  std::atomic<int> calls{0};
};

TEST(InMemoryChannelTest, RoundTripAndCounting) {
  EchoHandler handler;
  InMemoryChannel ch(handler);
  const Bytes req = {1, 2, 3};
  const Bytes resp = ch.call(7, req);
  EXPECT_EQ(resp, (Bytes{7, 1, 2, 3}));
  EXPECT_EQ(ch.stats().calls, 1u);
  EXPECT_EQ(ch.stats().bytes_sent, req.size() + kRpcHeaderBytes);
  EXPECT_EQ(ch.stats().bytes_received, resp.size() + kRpcReplyHeaderBytes);
  ch.reset_stats();
  EXPECT_EQ(ch.stats().calls, 0u);
}

// Byte accounting is transport-independent: one call sequence through
// either channel family counts the same bytes each way.
TEST(ChannelFamiliesTest, SameCallsCountTheSameBytes) {
  EchoHandler handler;
  InMemoryChannel in_memory(handler);
  TcpServer server(handler);
  TcpChannel tcp("127.0.0.1", server.port());
  for (RpcChannel* ch : {static_cast<RpcChannel*>(&in_memory),
                         static_cast<RpcChannel*>(&tcp)}) {
    (void)ch->call(1, {});
    (void)ch->call(2, Bytes(10, 0));
    (void)ch->call(3, Bytes(1000, 7));
  }
  EXPECT_EQ(in_memory.stats().calls.load(), tcp.stats().calls.load());
  EXPECT_EQ(in_memory.stats().bytes_sent.load(),
            tcp.stats().bytes_sent.load());
  EXPECT_EQ(in_memory.stats().bytes_received.load(),
            tcp.stats().bytes_received.load());
}

/// Forwards to `inner`, but a call returns only once a second call is
/// inside this channel too (or after ten seconds, with TransportError): two
/// started calls complete only if start() really overlaps them.
class RendezvousChannel final : public RpcChannel {
 public:
  explicit RendezvousChannel(RpcChannel& inner) : inner_(&inner) {}

  Bytes call(std::uint16_t method, BytesView request) override {
    {
      std::unique_lock lock(mu_);
      ++inside_;
      cv_.notify_all();
      if (!cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return inside_ >= 2; })) {
        throw TransportError("RendezvousChannel: calls did not overlap");
      }
    }
    return inner_->call(method, request);
  }
  [[nodiscard]] const ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  RpcChannel* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int inside_ = 0;
};

// The base start() runs each call on a thread of its own, so a decorator
// that overrides only call() keeps its started calls overlapping. A
// synchronous default would block the first start() until the rendezvous
// gives up.
TEST(RpcChannelTest, BaseStartOverlapsCalls) {
  EchoHandler handler;
  InMemoryChannel inner(handler);
  RendezvousChannel ch(inner);
  PendingCall first = ch.start(1, Bytes{1});
  PendingCall second = ch.start(2, Bytes{2});
  EXPECT_EQ(second.wait(), (Bytes{2, 2}));
  EXPECT_EQ(first.wait(), (Bytes{1, 1}));
  EXPECT_EQ(inner.stats().calls.load(), 2u);
}

// wait() throws what call() threw, and a call is collected once.
TEST(RpcChannelTest, BaseStartRethrowsAndWaitsOnce) {
  class DownChannel final : public RpcChannel {
   public:
    Bytes call(std::uint16_t, BytesView) override {
      throw TransportError("link down");
    }
    [[nodiscard]] const ChannelStats& stats() const override { return stats_; }
    void reset_stats() override { stats_.reset(); }

   private:
    ChannelStats stats_;
  } down;
  PendingCall call = down.start(1, {});
  EXPECT_THROW((void)call.wait(), TransportError);
  EXPECT_THROW((void)call.wait(), Error);
}

/// Names the one server transport, the epoll reactor, in the
/// parameterized server suites below (`Modes/<suite>.<test>/reactor`).
std::string reactor_name(const ::testing::TestParamInfo<bool>&) {
  return "reactor";
}

/// Server-behavior tests against the reactor-backed TcpServer.
class TcpTransportTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Modes, TcpTransportTest, ::testing::Values(true),
                         reactor_name);

TEST_P(TcpTransportTest, RoundTrip) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  const Bytes resp = ch.call(42, Bytes{9, 8, 7});
  EXPECT_EQ(resp, (Bytes{42, 9, 8, 7}));
  EXPECT_EQ(handler.calls.load(), 1);
}

TEST_P(TcpTransportTest, EmptyRequestAndResponse) {
  class NullHandler : public RpcHandler {
   public:
    Bytes handle(std::uint16_t, BytesView) override { return {}; }
  } handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  EXPECT_TRUE(ch.call(0, {}).empty());
}

TEST_P(TcpTransportTest, LargePayload) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  const Bytes resp = ch.call(5, big);
  ASSERT_EQ(resp.size(), big.size() + 1);
  EXPECT_TRUE(std::equal(big.begin(), big.end(), resp.begin() + 1));
}

TEST_P(TcpTransportTest, SequentialCallsOnOneConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  for (std::uint16_t m = 0; m < 50; ++m) {
    const Bytes resp = ch.call(m, Bytes{static_cast<std::uint8_t>(m)});
    EXPECT_EQ(resp[0], static_cast<std::uint8_t>(m));
  }
  EXPECT_EQ(ch.stats().calls, 50u);
}

TEST_P(TcpTransportTest, PipelinedCallsShareOneConnection) {
  // Several threads calling through ONE channel: sends interleave on the
  // wire, the reactor pipelines them, and each caller still gets its own
  // response (ticket-ordered reads).
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  std::vector<std::future<bool>> futs;
  for (int t = 0; t < 4; ++t) {
    futs.push_back(std::async(std::launch::async, [&ch, t] {
      for (int i = 0; i < 25; ++i) {
        const auto m = static_cast<std::uint16_t>(t * 25 + i);
        // Response size varies with the payload, exercising ordering of
        // different-sized frames on one stream.
        const Bytes payload(1 + (m % 7), static_cast<std::uint8_t>(m));
        Bytes expected;
        expected.push_back(static_cast<std::uint8_t>(m));
        expected.insert(expected.end(), payload.begin(), payload.end());
        if (ch.call(m, payload) != expected) return false;
      }
      return true;
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  EXPECT_EQ(handler.calls.load(), 100);
  EXPECT_EQ(ch.stats().calls, 100u);
}

TEST_P(TcpTransportTest, ConcurrentClients) {
  EchoHandler handler;
  TcpServer server(handler);
  std::vector<std::future<bool>> futs;
  for (int c = 0; c < 8; ++c) {
    futs.push_back(std::async(std::launch::async, [&server, c] {
      TcpChannel ch("127.0.0.1", server.port());
      for (int i = 0; i < 20; ++i) {
        const auto m = static_cast<std::uint16_t>(c * 100 + i);
        const Bytes resp = ch.call(m, Bytes{1});
        if (resp != Bytes{static_cast<std::uint8_t>(m), 1}) return false;
      }
      return true;
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  EXPECT_EQ(handler.calls.load(), 160);
}

TEST_P(TcpTransportTest, ByteAccountingMatchesFraming) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  ch.call(1, Bytes(10, 0));
  // Request frame: 4 (len) + 2 (method) + 10; response: 4 (len) + 11.
  EXPECT_EQ(ch.stats().bytes_sent, 16u);
  EXPECT_EQ(ch.stats().bytes_received, 15u);
}

TEST(TcpTransportTest, ConnectToClosedPortThrows) {
  std::uint16_t dead_port;
  {
    EchoHandler handler;
    TcpServer server(handler);
    dead_port = server.port();
  }  // server gone
  EXPECT_THROW(TcpChannel("127.0.0.1", dead_port), TransportError);
}

TEST(TcpTransportTest, BadAddressThrows) {
  EXPECT_THROW(TcpChannel("not-an-ip", 1), TransportError);
}

/// Open file descriptors of this process.
std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A constructor that throws runs no destructor, so a failed bind must close
// the listening socket itself.
TEST(TcpTransportTest, FailedBindLeavesNoSocketOpen) {
  EchoHandler handler;
  TcpServer holder(handler);
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(TcpServer(handler, holder.port()), TransportError);
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST_P(TcpTransportTest, CallAfterServerStopThrows) {
  EchoHandler handler;
  auto server = std::make_unique<TcpServer>(handler);
  TcpChannel ch("127.0.0.1", server->port());
  EXPECT_EQ(ch.call(1, Bytes{1}).size(), 2u);
  server.reset();  // stops and joins
  EXPECT_THROW(
      {
        ch.call(1, Bytes{1});
        ch.call(1, Bytes{1});  // at most one buffered write can "succeed"
      },
      TransportError);
}

TEST_P(TcpTransportTest, StopIsIdempotent) {
  EchoHandler handler;
  TcpServer server(handler);
  server.stop();
  server.stop();
}

// A handler outside a Dispatcher that throws has its call answered with
// kInternal; the connection stays up and serves the next call.
TEST_P(TcpTransportTest, HandlerExceptionAnswersInternalAndKeepsServing) {
  class ThrowingHandler : public RpcHandler {
   public:
    Bytes handle(std::uint16_t method, BytesView) override {
      if (method == 13) throw std::runtime_error("boom");
      return Bytes{1};
    }
  } handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  const Bytes failed = ch.call(13, {});
  try {
    (void)unwrap(failed);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::kInternal);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  EXPECT_EQ(ch.call(1, {}), Bytes{1});
}

// --- Wire-level abuse: raw sockets against the real server/client ---------

/// Blocking connect of a bare socket to the loopback server.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

void raw_send(int fd, const Bytes& data) {
  ASSERT_EQ(::send(fd, data.data(), data.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(data.size()));
}

Bytes le32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
}

/// The server must answer hostile framing by dropping that connection (recv
/// sees EOF, never a hang) while continuing to serve honest clients.
void expect_dropped_then_still_serving(TcpServer& server, const Bytes& abuse,
                                       EchoHandler& handler) {
  const int before = handler.calls.load();
  const int fd = raw_connect(server.port());
  raw_send(fd, abuse);
  std::uint8_t byte;
  // FIN reads as 0; an RST (server closed with bytes still unread) as -1.
  // Either way the connection died without a reply byte.
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "server should close, not reply";
  ::close(fd);
  TcpChannel good("127.0.0.1", server.port());
  EXPECT_EQ(good.call(3, Bytes{1}), (Bytes{3, 1}));
  EXPECT_EQ(handler.calls.load(), before + 1) << "abuse must not reach handler";
}

/// Server-side abuse against the reactor-backed TcpServer.
class TcpAbuseServerTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Modes, TcpAbuseServerTest, ::testing::Values(true),
                         reactor_name);

TEST_P(TcpAbuseServerTest, OversizedLengthPrefixDropsConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  // 4 GiB frame announcement: the server must refuse to allocate and close.
  expect_dropped_then_still_serving(server, le32(0xffffffffu), handler);
}

TEST_P(TcpAbuseServerTest, UndersizedFrameDropsConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  // Frame length 1 cannot even hold the method id.
  Bytes abuse = le32(1);
  abuse.push_back(0x7f);
  expect_dropped_then_still_serving(server, abuse, handler);
}

TEST_P(TcpAbuseServerTest, TruncatedFrameThenCloseDropsConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  const int before = handler.calls.load();
  {
    const int fd = raw_connect(server.port());
    Bytes partial = le32(100);  // promise 100 bytes...
    partial.resize(partial.size() + 10);  // ...deliver 10
    raw_send(fd, partial);
    ::close(fd);  // peer vanishes mid-frame
  }
  // The half-frame never reaches the handler and the server stays up.
  TcpChannel good("127.0.0.1", server.port());
  EXPECT_EQ(good.call(9, {}), Bytes{9});
  EXPECT_EQ(handler.calls.load(), before + 1);
}

/// One-shot raw server: accepts a single connection and runs `script` on it.
class RawPeer {
 public:
  explicit RawPeer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(listen_fd_, 1);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        script(fd);
        ::close(fd);
      }
    });
  }

  ~RawPeer() {
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listen_fd_;
  std::uint16_t port_;
  std::thread thread_;
};

/// Reads and discards one request frame from the channel under test. Runs on
/// the RawPeer thread, so it reports failure by return instead of gtest
/// assertions (which are not thread-safe).
bool drain_request(int fd) {
  std::uint8_t header[4];
  if (::recv(fd, header, 4, MSG_WAITALL) != 4) return false;
  std::uint32_t frame_len = 0;
  std::memcpy(&frame_len, header, 4);  // little-endian hosts only (x86/arm)
  Bytes frame(frame_len);
  return ::recv(fd, frame.data(), frame.size(), MSG_WAITALL) ==
         static_cast<ssize_t>(frame.size());
}

TEST(TcpAbuseTest, PeerDisconnectMidCallIsTypedError) {
  // The peer consumes the request, then vanishes without answering: the
  // client must surface TransportError, never hang or return garbage.
  RawPeer peer([](int fd) { (void)drain_request(fd); });
  TcpChannel ch("127.0.0.1", peer.port());
  EXPECT_THROW((void)ch.call(1, Bytes{1, 2, 3}), TransportError);
}

TEST(TcpAbuseTest, TruncatedResponseIsTypedError) {
  // The peer answers with a frame that promises more bytes than it sends.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    Bytes reply = le32(50);
    reply.push_back(0xab);  // 1 of the 50 promised bytes
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  });
  TcpChannel ch("127.0.0.1", peer.port());
  EXPECT_THROW((void)ch.call(1, {}), TransportError);
}

TEST(TcpAbuseTest, OversizedResponseLengthIsTypedError) {
  // A hostile server announcing a 4 GiB response must not cause the client
  // to allocate or block for it.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    const Bytes reply = le32(0xfffffff0u);
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  });
  TcpChannel ch("127.0.0.1", peer.port());
  EXPECT_THROW((void)ch.call(1, {}), TransportError);
}

// --- Call deadlines: a dead or stalling peer must not hang the caller -----

/// Blocks the RawPeer thread until the client end closes (EOF), keeping the
/// stalled connection alive deterministically — no sleeps.
void hold_until_client_closes(int fd) {
  std::uint8_t byte;
  while (::recv(fd, &byte, 1, 0) > 0) {
  }
}

TEST(TcpDeadlineTest, SilentPeerTimesOutWithTypedError) {
  // The peer consumes the request and never answers. Without a deadline
  // this call would hang forever (the original bug); with one it must
  // surface TransportError within the budget.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(100));
  EXPECT_EQ(ch->deadline(), std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)ch->call(1, Bytes{1}), TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  // The expiry poisoned the channel: a late response could desynchronise
  // the stream, so further calls must fail fast.
  EXPECT_THROW((void)ch->call(1, Bytes{1}), TransportError);
  ch.reset();  // unblocks the peer
}

TEST(TcpDeadlineTest, StallMidResponseHeaderTimesOut) {
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    const Bytes partial = {0x40, 0x00};  // 2 of 4 header bytes, then stall
    (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(100));
  EXPECT_THROW((void)ch->call(1, {}), TransportError);
  ch.reset();
}

TEST(TcpDeadlineTest, StallMidResponseBodyTimesOut) {
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    Bytes partial = le32(64);  // promise 64 payload bytes...
    partial.push_back(0xaa);   // ...deliver one
    (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(100));
  EXPECT_THROW((void)ch->call(1, {}), TransportError);
  ch.reset();
}

TEST(TcpDeadlineTest, PipelinedWaiterBehindStalledHeadTimesOutToo) {
  // Two concurrent calls on one channel; the peer answers neither. The
  // head caller times out in recv, and the second caller — queued behind
  // it waiting for its turn — must time out as well, not wait forever.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    (void)drain_request(fd);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(150));
  auto first = std::async(std::launch::async,
                          [&] { (void)ch->call(1, Bytes{1}); });
  auto second = std::async(std::launch::async,
                           [&] { (void)ch->call(2, Bytes{2}); });
  EXPECT_THROW(first.get(), TransportError);
  EXPECT_THROW(second.get(), TransportError);
  ch.reset();
}

TEST(TcpDeadlineTest, GenerousDeadlineDoesNotBreakHealthyCalls) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  ch.set_deadline(std::chrono::seconds(30));
  for (std::uint16_t m = 0; m < 10; ++m) {
    EXPECT_EQ(ch.call(m, Bytes{7})[1], 7u);
  }
}


// --- Pipelined calls: start() sends, wait() collects ----------------------

/// The echo reply to `method` with one payload byte `b`.
Bytes echo(std::uint16_t method, std::uint8_t b) {
  return Bytes{static_cast<std::uint8_t>(method), b};
}

TEST(TcpPipelineTest, CallsWaitedInReverseOrderGetTheirOwnReplies) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  std::vector<PendingCall> calls;
  for (std::uint16_t m = 1; m <= 3; ++m) {
    calls.push_back(ch.start(m, Bytes{static_cast<std::uint8_t>(10 * m)}));
  }
  // The last waiter reads the two replies before its own off the socket
  // and keeps them for their tickets.
  EXPECT_EQ(calls[2].wait(), echo(3, 30));
  EXPECT_EQ(calls[1].wait(), echo(2, 20));
  EXPECT_EQ(calls[0].wait(), echo(1, 10));
  EXPECT_EQ(ch.call(4, Bytes{40}), echo(4, 40));
}

TEST(TcpPipelineTest, DroppedCallLeavesTheNextCallItsOwnReply) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  { PendingCall dropped = ch.start(1, Bytes{1}); }  // never waited for
  EXPECT_EQ(ch.call(2, Bytes{2}), echo(2, 2));
  // Dropped after its reply was read and kept for it.
  PendingCall kept = ch.start(3, Bytes{3});
  EXPECT_EQ(ch.call(4, Bytes{4}), echo(4, 4));
  { PendingCall gone = std::move(kept); }
  EXPECT_EQ(ch.call(5, Bytes{5}), echo(5, 5));
  // Every call is counted, the dropped ones' replies included.
  EXPECT_EQ(ch.stats().calls.load(), 5u);
  EXPECT_EQ(ch.stats().bytes_sent.load(), 5 * (kRpcHeaderBytes + 1));
  EXPECT_EQ(ch.stats().bytes_received.load(),
            5 * (kRpcReplyHeaderBytes + 2));
  EXPECT_EQ(handler.calls.load(), 5);
}

/// Serves method 1 as an echo and stalls every other method until
/// released; the release comes before the server stops.
class StallingHandler final : public RpcHandler {
 public:
  Bytes handle(std::uint16_t method, BytesView request) override {
    if (method != 1) {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return released_; });
    }
    Bytes out{static_cast<std::uint8_t>(method)};
    out.insert(out.end(), request.begin(), request.end());
    return out;
  }
  void release() {
    {
      std::lock_guard lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

// A stalled reply poisons the channel: every call pending on it throws
// TransportError by its deadline, counted from its start(), whichever
// waiter is reading the socket, and later calls fail fast.
TEST(TcpPipelineTest, StallPoisonsEveryPendingCallWithinItsDeadline) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kDeadline = std::chrono::milliseconds(200);
  constexpr auto kSlack = std::chrono::seconds(1);  // scheduling noise
  StallingHandler handler;
  TcpServer server(handler);
  struct Release {
    StallingHandler* h;
    ~Release() { h->release(); }
  } release{&handler};  // destroyed before the server stops
  TcpChannel ch("127.0.0.1", server.port());
  ch.set_deadline(kDeadline);
  EXPECT_EQ(ch.call(1, Bytes{1}), echo(1, 1));

  struct Started {
    Clock::time_point at;
    PendingCall call;
  };
  std::vector<Started> started;
  for (std::uint16_t m = 2; m <= 4; ++m) {
    const Clock::time_point at = Clock::now();
    started.push_back({at, ch.start(m, Bytes{static_cast<std::uint8_t>(m)})});
  }
  std::vector<std::future<Clock::duration>> waits;
  for (Started& s : started) {
    waits.push_back(std::async(std::launch::async, [&s] {
      try {
        (void)s.call.wait();
      } catch (const TransportError&) {
        return Clock::now() - s.at;
      }
      return Clock::duration::max();  // a reply: the stall did not hold
    }));
  }
  for (auto& w : waits) {
    EXPECT_LT(w.get(), kDeadline + kSlack);
  }
  EXPECT_THROW((void)ch.start(1, Bytes{1}), TransportError);
}

// Threads interleave start() and wait() on one channel, collecting their
// calls in varying orders while other threads read replies for them.
TEST(TcpPipelineTest, ThreadsInterleaveStartAndWaitOnOneChannel) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::future<bool>> results;
  for (int t = 0; t < kThreads; ++t) {
    results.push_back(std::async(std::launch::async, [&ch, t] {
      bool ok = true;
      for (int round = 0; round < kRounds; ++round) {
        const auto m = static_cast<std::uint16_t>(t * kRounds + round);
        const auto b = static_cast<std::uint8_t>(round);
        PendingCall a = ch.start(m, Bytes{b});
        PendingCall c = ch.start(m, Bytes{static_cast<std::uint8_t>(b + 1)});
        if (round % 3 == 2) {
          // Dropped: its reply is discarded by whoever reads it.
          ok &= a.wait() == echo(m, b);
          continue;
        }
        if (round % 2 == 0) {
          ok &= a.wait() == echo(m, b);
          ok &= c.wait() == echo(m, static_cast<std::uint8_t>(b + 1));
        } else {
          ok &= c.wait() == echo(m, static_cast<std::uint8_t>(b + 1));
          ok &= a.wait() == echo(m, b);
        }
        ok &= ch.call(m, Bytes{b}) == echo(m, b);
      }
      return ok;
    }));
  }
  for (auto& r : results) EXPECT_TRUE(r.get());
  // This reply follows every earlier one, so every request was served.
  EXPECT_EQ(ch.call(9, Bytes{9}), echo(9, 9));
  EXPECT_EQ(ch.stats().calls.load(),
            static_cast<std::uint64_t>(handler.calls.load()));
}

}  // namespace
}  // namespace ice::net
