// Adversarial transport tests for the epoll reactor, driven through the
// deterministic fake-transport harness (socketpair ends adopted by the
// reactor): slow-loris drips, pipelined bursts with out-of-order-sized
// responses, malformed frames, and connection-limit admission control.
#include "net/reactor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "net/dispatch.h"
#include "net/tcp.h"
#include "support/fake_transport.h"

namespace ice::net {
namespace {

using testing::AbuseCase;
using testing::FakeTransport;
using testing::frame_request;
using testing::wire_abuse_corpus;

/// Echoes the payload back, repeated (method + 1) times — so response sizes
/// vary with the method id, which the ordering tests rely on.
class RepeatHandler final : public RpcHandler {
 public:
  Bytes handle(std::uint16_t method, BytesView request) override {
    Bytes out;
    for (std::uint16_t i = 0; i <= method; ++i) {
      out.insert(out.end(), request.begin(), request.end());
    }
    return out;
  }
};

Bytes repeat_response(std::uint16_t method, const Bytes& payload) {
  Bytes out;
  for (std::uint16_t i = 0; i <= method; ++i) {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

/// Polls until the reactor's live-connection count reaches `n`.
void wait_for_connections(Reactor& reactor, std::size_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reactor.connections() != n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "connections stuck at " << reactor.connections();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ReactorTest, AdoptedSocketpairServesRequests) {
  RepeatHandler handler;
  Reactor reactor{handler};
  FakeTransport client;
  reactor.adopt(client.release_server_end());
  const Bytes payload = {1, 2, 3};
  client.send_request(2, payload);
  EXPECT_EQ(client.recv_response(), repeat_response(2, payload));
  client.close();
  wait_for_connections(reactor, 0);
}

TEST(ReactorTest, EveryFrameSplitServesIdentically) {
  RepeatHandler handler;
  Reactor reactor{handler};
  const Bytes payload = {9, 8, 7, 6};
  const Bytes wire = frame_request(1, payload);
  for (std::size_t pieces = 1; pieces <= wire.size(); ++pieces) {
    FakeTransport client;
    reactor.adopt(client.release_server_end());
    client.send_split(wire, pieces);
    EXPECT_EQ(client.recv_response(), repeat_response(1, payload))
        << pieces << " pieces";
  }
}

TEST(ReactorTest, SlowLorisDripDoesNotStallOtherConnections) {
  RepeatHandler handler;
  Reactor reactor{handler};
  FakeTransport loris;
  reactor.adopt(loris.release_server_end());
  FakeTransport honest;
  reactor.adopt(honest.release_server_end());

  const Bytes payload = {0x42};
  const Bytes wire = frame_request(0, payload);
  // Drip the attacker's frame one byte at a time; between every two drips
  // an honest connection completes a full round trip, proving the loop
  // never blocks on the stalled frame.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    loris.send(BytesView(&wire[i], 1));
    honest.send_request(3, payload);
    EXPECT_EQ(honest.recv_response(), repeat_response(3, payload));
  }
  // The dripped frame, once complete, is served like any other.
  EXPECT_EQ(loris.recv_response(), repeat_response(0, payload));
}

TEST(ReactorTest, PipelinedBurstRespondsInRequestOrder) {
  RepeatHandler handler;
  Reactor reactor{handler};
  FakeTransport client;
  reactor.adopt(client.release_server_end());
  const Bytes payload = {0xab, 0xcd};
  // One chunk, eight frames, response sizes 2,4,...,16 bytes.
  Bytes burst;
  for (std::uint16_t m = 0; m < 8; ++m) {
    const Bytes f = frame_request(m, payload);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  client.send(burst);
  for (std::uint16_t m = 0; m < 8; ++m) {
    EXPECT_EQ(client.recv_response(), repeat_response(m, payload))
        << "response " << m;
  }
}

/// Handlers complete out of request order (the first request blocks until
/// the last one has finished); responses must still arrive in order.
class GatedHandler final : public RpcHandler {
 public:
  Bytes handle(std::uint16_t method, BytesView request) override {
    if (method == 0) gate_.get_future().wait();
    Bytes out(std::size_t{method} * 3 + 1,
              static_cast<std::uint8_t>(method));
    if (method == 2) gate_.set_value();
    (void)request;
    return out;
  }

 private:
  std::promise<void> gate_;
};

TEST(ReactorTest, OutOfOrderCompletionStillDeliversInOrder) {
  GatedHandler handler;
  ReactorLimits limits;
  limits.base_workers = 4;  // all three requests execute concurrently
  Reactor reactor{handler, limits};
  FakeTransport client;
  reactor.adopt(client.release_server_end());
  Bytes burst;
  for (std::uint16_t m = 0; m < 3; ++m) {
    const Bytes f = frame_request(m, {});
    burst.insert(burst.end(), f.begin(), f.end());
  }
  client.send(burst);
  for (std::uint16_t m = 0; m < 3; ++m) {
    const Bytes expected(std::size_t{m} * 3 + 1,
                         static_cast<std::uint8_t>(m));
    EXPECT_EQ(client.recv_response(), expected) << "response " << m;
  }
}

TEST(ReactorTest, AbuseCorpusDropsConnectionsDeterministically) {
  RepeatHandler handler;
  Reactor reactor{handler};
  const Bytes payload = {0x77};
  const Bytes valid = frame_request(0, payload);
  for (const AbuseCase& abuse : wire_abuse_corpus(valid)) {
    SCOPED_TRACE(abuse.name);
    FakeTransport client;
    reactor.adopt(client.release_server_end());
    client.send(abuse.stream);
    client.shutdown_write();
    for (std::size_t i = 0; i < abuse.expected_responses; ++i) {
      EXPECT_EQ(client.recv_response(), repeat_response(0, payload));
    }
    EXPECT_TRUE(client.eof_within()) << "server kept the connection";
  }
  wait_for_connections(reactor, 0);
}

TEST(ReactorTest, CloseMidCallDropsConnectionWithoutResponse) {
  RepeatHandler handler;
  Reactor reactor{handler};
  FakeTransport client;
  reactor.adopt(client.release_server_end());
  const Bytes wire = frame_request(1, Bytes(32, 0x11));
  client.send(BytesView(wire).first(9));  // header + partial body
  client.close();
  wait_for_connections(reactor, 0);
}

TEST(ReactorTest, ConnectionLimitAnswersResourceExhaustedAndCloses) {
  RepeatHandler handler;
  ReactorLimits limits;
  limits.max_connections = 1;
  Reactor reactor{handler, limits};

  FakeTransport admitted;
  reactor.adopt(admitted.release_server_end());
  wait_for_connections(reactor, 1);
  FakeTransport rejected;
  reactor.adopt(rejected.release_server_end());
  wait_for_connections(reactor, 2);  // open, but over the admission limit

  // The admitted connection keeps working.
  const Bytes payload = {0x01, 0x02};
  admitted.send_request(1, payload);
  EXPECT_EQ(admitted.recv_response(), repeat_response(1, payload));

  // The rejected one gets a kResourceExhausted envelope, then EOF.
  rejected.send_request(1, payload);
  const Bytes response = rejected.recv_response();
  ASSERT_GE(response.size(), kStatusEnvelopeBytes);
  const auto status =
      static_cast<Status>(response[0] | (response[1] << 8));
  EXPECT_EQ(status, Status::kResourceExhausted);
  EXPECT_TRUE(rejected.eof_within());

  // Capacity freed: the next connection is admitted for real.
  admitted.close();
  wait_for_connections(reactor, 0);
  FakeTransport next;
  reactor.adopt(next.release_server_end());
  next.send_request(0, payload);
  EXPECT_EQ(next.recv_response(), repeat_response(0, payload));
}

TEST(ReactorTest, ConnectionLimitSurfacesAsRemoteErrorThroughChannel) {
  // Full-stack version: a TcpServer with a 1-connection reactor; the
  // second channel's typed call must throw RemoteError(kResourceExhausted)
  // once the envelope is unwrapped.
  ReactorLimits limits;
  limits.max_connections = 1;
  // A dispatch-table server returns enveloped responses on every path.
  class EnvelopedEcho final : public RpcHandler {
   public:
    Bytes handle(std::uint16_t, BytesView request) override {
      Bytes out(kStatusEnvelopeBytes, 0);  // kOk envelope
      out.insert(out.end(), request.begin(), request.end());
      return out;
    }
  } handler;
  TcpServer server{handler, 0, limits};

  TcpChannel first{"127.0.0.1", server.port()};
  const Bytes probe = {0x10};
  EXPECT_EQ(first.call(1, probe), Bytes({0, 0, 0x10}));

  TcpChannel second{"127.0.0.1", server.port()};
  PooledBytes rejected{second.call(1, probe)};
  try {
    (void)unwrap(rejected);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.status(), Status::kResourceExhausted);
  }
}

TEST(ReactorTest, StopWhileConnectionsAreOpenIsClean) {
  RepeatHandler handler;
  auto reactor = std::make_unique<Reactor>(handler);
  FakeTransport client;
  reactor->adopt(client.release_server_end());
  client.send_request(1, Bytes{0x5a});
  EXPECT_EQ(client.recv_response(), repeat_response(1, Bytes{0x5a}));
  reactor->stop();
  EXPECT_TRUE(client.eof_within());
  reactor.reset();
}

}  // namespace
}  // namespace ice::net
