// Reactor stress scenarios — labeled `stress` in ctest and run under the
// scheduled sanitizer workflow (tsan nightly): connection churn with
// pipelining and tight backpressure windows, slow-loris floods alongside
// honest traffic, stop-while-busy, and admission-limit churn.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "support/fake_transport.h"

namespace ice::net {
namespace {

using testing::FakeTransport;
using testing::frame_request;

class EchoHandler final : public RpcHandler {
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

TEST(ReactorStressTest, PipelinedChurnUnderTinyBackpressureWindow) {
  // A pipelining window of 2 forces constant EPOLLIN drop/restore while
  // clients burst 64 requests per connection — the flow-control edge
  // cases (window full, drain, resume) cycle thousands of times.
  EchoHandler handler;
  ReactorLimits limits;
  limits.max_pipeline = 2;
  limits.max_write_queue_bytes = 256;
  Reactor reactor{handler, limits};

  constexpr int kConnections = 16;
  constexpr int kRequests = 64;
  std::vector<std::future<bool>> futs;
  futs.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    auto client = std::make_shared<FakeTransport>();
    reactor.adopt(client->release_server_end());
    futs.push_back(std::async(std::launch::async, [client, c] {
      Bytes burst;
      for (int i = 0; i < kRequests; ++i) {
        const auto m = static_cast<std::uint16_t>((c * kRequests + i) % 251);
        const Bytes f =
            frame_request(m, Bytes(1 + (i % 13), static_cast<std::uint8_t>(i)));
        burst.insert(burst.end(), f.begin(), f.end());
      }
      // One giant write: the kernel buffers what the backpressured server
      // refuses to read; responses must still come back complete, in order.
      client->send(burst);
      for (int i = 0; i < kRequests; ++i) {
        const auto m = static_cast<std::uint16_t>((c * kRequests + i) % 251);
        Bytes expected;
        expected.push_back(static_cast<std::uint8_t>(m));
        const Bytes payload(1 + (i % 13), static_cast<std::uint8_t>(i));
        expected.insert(expected.end(), payload.begin(), payload.end());
        if (client->recv_response(30000) != expected) return false;
      }
      return true;
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  EXPECT_EQ(handler.calls.load(), kConnections * kRequests);
}

TEST(ReactorStressTest, SlowLorisFloodDoesNotStarveHonestTraffic) {
  EchoHandler handler;
  Reactor reactor{handler};
  // 32 connections stuck mid-frame forever...
  std::vector<std::unique_ptr<FakeTransport>> loris;
  for (int i = 0; i < 32; ++i) {
    auto conn = std::make_unique<FakeTransport>();
    reactor.adopt(conn->release_server_end());
    const Bytes wire = frame_request(1, Bytes(128, 0x5a));
    conn->send(BytesView(wire.data(), 3));  // partial header, then silence
    loris.push_back(std::move(conn));
  }
  // ...while honest clients run thousands of calls unharmed.
  std::vector<std::future<bool>> futs;
  for (int t = 0; t < 4; ++t) {
    auto client = std::make_shared<FakeTransport>();
    reactor.adopt(client->release_server_end());
    futs.push_back(std::async(std::launch::async, [client] {
      for (int i = 0; i < 500; ++i) {
        const auto m = static_cast<std::uint16_t>(i % 200);
        client->send_request(m, Bytes{static_cast<std::uint8_t>(i)});
        Bytes expected{static_cast<std::uint8_t>(m),
                       static_cast<std::uint8_t>(i)};
        if (client->recv_response(30000) != expected) return false;
      }
      return true;
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
}

TEST(ReactorStressTest, ConnectionLimitChurn) {
  // Admitted connections churn open/closed against a tight limit while
  // every admitted call must succeed and every over-limit call must see
  // the reject envelope or a drop — never a hang.
  EchoHandler handler;
  ReactorLimits limits;
  limits.max_connections = 4;
  TcpServer server{handler, 0, limits};
  std::vector<std::future<int>> futs;
  for (int t = 0; t < 8; ++t) {
    futs.push_back(std::async(std::launch::async, [&server] {
      int served = 0;
      for (int i = 0; i < 40; ++i) {
        try {
          TcpChannel ch("127.0.0.1", server.port());
          const Bytes resp = ch.call(9, Bytes{1});
          if (resp.size() >= 2 && resp[0] == 9) {
            ++served;  // admitted and echoed
          }
        } catch (const TransportError&) {
          // Raced a closing rejected connection; acceptable, never a hang.
        }
      }
      return served;
    }));
  }
  int total_served = 0;
  for (auto& f : futs) total_served += f.get();
  EXPECT_GT(total_served, 0);
}

TEST(ReactorStressTest, StopWhileBusyIsClean) {
  for (int round = 0; round < 8; ++round) {
    EchoHandler handler;
    auto reactor = std::make_unique<Reactor>(handler);
    std::vector<std::shared_ptr<FakeTransport>> clients;
    std::vector<std::future<void>> futs;
    for (int c = 0; c < 8; ++c) {
      auto client = std::make_shared<FakeTransport>();
      reactor->adopt(client->release_server_end());
      clients.push_back(client);
      futs.push_back(std::async(std::launch::async, [client] {
        try {
          for (int i = 0; i < 1000; ++i) {
            client->send_request(1, Bytes(64, 0x11));
            (void)client->recv_response(30000);
          }
        } catch (const std::exception&) {
          // The reactor stopped underneath us — expected.
        }
      }));
    }
    // Stop mid-flight: workers may hold in-flight requests, connections
    // have queued responses. Everything must tear down without leaks,
    // races, or hangs (asan/tsan enforce the first two, ctest timeout the
    // third).
    std::this_thread::sleep_for(std::chrono::milliseconds(10 * round));
    reactor->stop();
    for (auto& f : futs) f.get();
  }
}

TEST(ReactorStressTest, OverflowWorkersRetireAfterBurst) {
  // Handlers that block on a shared latch force overflow spawning; once
  // the burst drains, the pool must shrink back toward base.
  class BlockingHandler final : public RpcHandler {
   public:
    Bytes handle(std::uint16_t, BytesView) override {
      ++entered;
      gate.wait();
      return Bytes{1};
    }
    std::atomic<int> entered{0};
    std::shared_future<void> gate;
  };
  std::promise<void> release;
  BlockingHandler handler;
  handler.gate = release.get_future().share();

  ReactorLimits limits;
  limits.base_workers = 2;
  limits.max_workers = 64;
  Reactor reactor{handler, limits};

  constexpr int kCalls = 8;
  std::vector<std::shared_ptr<FakeTransport>> clients;
  for (int i = 0; i < kCalls; ++i) {
    auto client = std::make_shared<FakeTransport>();
    reactor.adopt(client->release_server_end());
    client->send_request(1, {});
    clients.push_back(client);
  }
  // All handlers block; starvation detection must spawn past base so every
  // request eventually enters a handler.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (handler.entered.load() < kCalls) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "stuck at " << handler.entered.load() << " of " << kCalls;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(reactor.workers(), static_cast<std::size_t>(kCalls));
  release.set_value();
  for (auto& client : clients) {
    EXPECT_EQ(client->recv_response(30000), Bytes{1});
  }
  // Overflow workers idle out (~1s); poll until the pool shrinks.
  const auto shrink_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (reactor.workers() > limits.base_workers) {
    ASSERT_LT(std::chrono::steady_clock::now(), shrink_deadline)
        << "pool stuck at " << reactor.workers();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace
}  // namespace ice::net
