// Distributed end-to-end test: every entity behind a real TCP server on
// loopback, the user driving complete ICE-basic and ICE-batch rounds over
// sockets — the closest analogue of the paper's physical testbed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "mec/corruption.h"
#include "ice/wire.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

/// Every service behind its own TcpServer; the file (seed 31337) is tagged
/// and uploaded before the test body runs.
class TcpDeployment : public sim::Deployment {
 public:
  TcpDeployment(std::size_t n_blocks, std::size_t num_edges)
      : sim::Deployment(ice::testing::test_params(64),
                        ice::testing::test_keypair_256(), n_blocks,
                        num_edges, 16, 31337, sim::Transport::kTcp) {
    setup();
  }
};

TEST(TcpE2eTest, BasicAuditOverSockets) {
  TcpDeployment d(16, 1);
  d.edge(0).pre_download({1, 4, 9});
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(TcpE2eTest, CorruptionDetectedOverSockets) {
  TcpDeployment d(16, 1);
  d.edge(0).pre_download({1, 4, 9});
  SplitMix64 rng(3);
  mec::corrupt_random_blocks(d.edge(0).cache_for_corruption(), 1,
                             mec::CorruptionKind::kGarbage, rng);
  EXPECT_FALSE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(TcpE2eTest, BatchAuditOverSockets) {
  TcpDeployment d(16, 2);
  d.edge(0).pre_download({0, 1, 2});
  d.edge(1).pre_download({1, 2, 3});
  EXPECT_TRUE(d.user().audit_edges_batch(d.user_edges()));
}

TEST(TcpE2eTest, ReadAndWriteThroughEdgeOverSockets) {
  TcpDeployment d(16, 1);
  const EdgeClient edge(d.user_edge(0));
  EXPECT_EQ(edge.read(5), d.csp().store().block(5));
  const Bytes fresh = ice::testing::make_blocks(1, 64, 44)[0];
  edge.write(5, fresh);
  EXPECT_EQ(edge.read(5), fresh);
  EXPECT_EQ(edge.flush(), 1u);
  EXPECT_EQ(d.csp().store().block(5), fresh);
}

/// The verifier's channel to an edge, holding each 204 (the challenge)
/// until, since arm(), the user has started two calls on its TPA0 channel
/// (the round's 303 and 310), or for two seconds. It then gives a TPA0
/// reply 100 ms to reach the user, and counts the rounds in which none
/// did.
class HeldChallengeChannel final : public net::RpcChannel {
 public:
  HeldChallengeChannel(net::RpcChannel& inner,
                       const net::RpcChannel& user_tpa0)
      : inner_(&inner), user_tpa0_(&user_tpa0) {}

  void arm() {
    calls_ = user_tpa0_->stats().calls.load();
    received_ = user_tpa0_->stats().bytes_received.load();
  }

  Bytes call(std::uint16_t method, BytesView request) override {
    if (method == kEdgeChallenge) {
      const net::ChannelStats& user = user_tpa0_->stats();
      const auto until = [](auto done, std::chrono::milliseconds limit) {
        const auto give_up = std::chrono::steady_clock::now() + limit;
        while (!done() && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return done();
      };
      const bool both_out =
          until([&] { return user.calls.load() >= calls_ + 2; },
                std::chrono::seconds(2));
      const bool reply_read =
          until([&] { return user.bytes_received.load() != received_; },
                std::chrono::milliseconds(100));
      if (both_out && !reply_read) ++challenge_first_;
    }
    return inner_->call(method, request);
  }
  [[nodiscard]] const net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

  [[nodiscard]] int challenge_first() const { return challenge_first_; }

 private:
  net::RpcChannel* inner_;
  const net::RpcChannel* user_tpa0_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<int> challenge_first_{0};
};

// The user sends its 303 and then its 310, so TPA0 receives the challenge
// first: with the challenge held at the edge, both of the user's calls to
// TPA0 are out, yet no TPA0 reply reaches the user, because TPA0 replies in
// request order and the 303's waits for the proof.
TEST(TcpE2eTest, TpaZeroReceivesTheChallengeBeforeTheTagQuery) {
  TcpDeployment d(16, 1);
  d.edge(0).pre_download({1, 4, 9});
  ASSERT_TRUE(d.user().audit_edge(d.user_edge(0), 0));  // caches the plan
  HeldChallengeChannel held(d.tpa_edge(0), d.user_tpa(0));
  d.tpa(0).register_edge(0, held);
  constexpr int kAudits = 20;
  for (int i = 0; i < kAudits; ++i) {
    held.arm();
    EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0)) << "audit " << i;
  }
  EXPECT_EQ(held.challenge_first(), kAudits);
  d.tpa(0).register_edge(0, d.tpa_edge(0));
}

}  // namespace
}  // namespace ice::proto
