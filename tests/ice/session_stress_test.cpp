// Concurrent-session stress for the session-core services.
//
// N threads drive interleaved ICE-basic and ICE-batch audits against one
// TPA/edge deployment over shared in-process channels. This is the test the
// sanitizer presets (asan/tsan, tests/run_sanitizers.sh) lean on: it
// exercises the sharded session tables, the shared_mutex config/store
// paths, the atomic channel counters, and the no-lock-across-channel-call
// discipline (a lock-order inversion here deadlocks; TSan flags it even
// when it doesn't).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "ice/wire.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockBytes = 64;

/// One CSP, two edges, verifier TPA + replica, all in-process. Matches the
/// e2e deployments but sized for fast repeated audits.
class StressWorld {
 public:
  explicit StressWorld(std::size_t parallelism)
      : params_(ice::testing::test_params(kBlockBytes)),
        keys_(ice::testing::test_keypair_256()),
        csp_(mec::BlockStore::synthetic(kBlocks, kBlockBytes, 5),
             parallelism),
        tpa0_(parallelism),
        tpa1_(parallelism),
        edge0_csp_(csp_),
        edge1_csp_(csp_),
        edge0_tpa_(tpa0_),
        edge1_tpa_(tpa0_),
        edge0_(0, with_parallelism(params_, parallelism), keys_.pk,
               mec::EdgeCache(kBlocks, mec::EvictionPolicy::kLru),
               edge0_csp_, &edge0_tpa_),
        edge1_(1, with_parallelism(params_, parallelism), keys_.pk,
               mec::EdgeCache(kBlocks, mec::EvictionPolicy::kLru),
               edge1_csp_, &edge1_tpa_),
        tpa0_edge0_(edge0_),
        tpa0_edge1_(edge1_),
        owner_tpa0_(tpa0_),
        owner_tpa1_(tpa1_),
        owner_(params_, keys_, owner_tpa0_, owner_tpa1_) {
    tpa0_.register_edge(0, tpa0_edge0_);
    tpa0_.register_edge(1, tpa0_edge1_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    owner_.setup_file(blocks);
    edge0_.pre_download({0, 1, 2, 3, 4, 5});
    edge1_.pre_download({4, 5, 6, 7, 8, 9});
  }

  static ProtocolParams with_parallelism(ProtocolParams p, std::size_t par) {
    p.parallelism = par;
    return p;
  }

  ProtocolParams params_;
  KeyPair keys_;
  CspService csp_;
  TpaService tpa0_;
  TpaService tpa1_;
  net::InMemoryChannel edge0_csp_;
  net::InMemoryChannel edge1_csp_;
  net::InMemoryChannel edge0_tpa_;
  net::InMemoryChannel edge1_tpa_;
  EdgeService edge0_;
  EdgeService edge1_;
  net::InMemoryChannel tpa0_edge0_;
  net::InMemoryChannel tpa0_edge1_;
  net::InMemoryChannel owner_tpa0_;
  net::InMemoryChannel owner_tpa1_;
  UserClient owner_;
};

class SessionStressTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SessionStressTest, InterleavedBasicAndBatchAudits) {
  const std::size_t parallelism = GetParam();
  StressWorld w(parallelism);
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 3;

  std::vector<std::thread> threads;
  std::vector<char> ok(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, &ok, t] {
      // Each thread is its own user session sharing the owner's key pair
      // and the deployment's channels (channels are thread-safe).
      UserClient user(w.params_, w.keys_, w.owner_tpa0_, w.owner_tpa1_);
      user.attach_file(kBlocks);
      bool good = true;
      try {
        for (int round = 0; round < kRounds; ++round) {
          const std::uint32_t edge_id =
              static_cast<std::uint32_t>((t + round) % 2);
          net::RpcChannel& edge_channel =
              edge_id == 0 ? w.tpa0_edge0_ : w.tpa0_edge1_;
          good &= user.audit_edge(edge_channel, edge_id);
          good &= user.audit_edges_batch({&w.tpa0_edge0_, &w.tpa0_edge1_});
        }
      } catch (const std::exception&) {
        good = false;
      }
      ok[t] = good ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " parallelism " << parallelism;
  }
  // Every audit got a verdict: kThreads * kRounds basic + as many batch.
  EXPECT_EQ(w.tpa0_.audit_log().size(), kThreads * kRounds * 2);
}

// parallelism 1 = serial protocol math, 4 = fixed pool fan-out, 0 =
// hardware concurrency (the acceptance matrix for the sanitizer runs).
INSTANTIATE_TEST_SUITE_P(Parallelism, SessionStressTest,
                         ::testing::Values(1u, 4u, 0u));

TEST(SessionCollisionTest, StartAuditRefusesLiveSessionId) {
  StressWorld w(1);
  const TpaClient tpa(w.owner_tpa0_);
  const EdgeClient edge(w.tpa0_edge0_);
  edge.share_blinding(1001, bn::BigInt(7));
  tpa.start_audit(0, 1001);
  // The id is live (proof parked, tags not yet submitted): a second
  // start_audit under it must be refused, not silently overwrite.
  edge.share_blinding(1001, bn::BigInt(9));
  try {
    tpa.start_audit(0, 1001);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kAlreadyExists);
  }
}

TEST(SessionCollisionTest, BatchBeginRefusesLiveBatchId) {
  StressWorld w(1);
  const TpaClient tpa(w.owner_tpa0_);
  (void)tpa.batch_begin(2002, 2);
  try {
    (void)tpa.batch_begin(2002, 2);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kAlreadyExists);
  }
}

TEST(SessionCollisionTest, ShareBlindingRefusesLiveSessionId) {
  StressWorld w(1);
  const EdgeClient edge(w.tpa0_edge0_);
  edge.share_blinding(3003, bn::BigInt(7));
  try {
    edge.share_blinding(3003, bn::BigInt(9));
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kAlreadyExists);
  }
}

TEST(SessionCollisionTest, RacingStartAuditsOneWinner) {
  StressWorld w(1);
  constexpr std::size_t kThreads = 6;
  const EdgeClient edge(w.tpa0_edge0_);
  for (int round = 0; round < 5; ++round) {
    const std::uint64_t id = 5000 + static_cast<std::uint64_t>(round);
    edge.share_blinding(id, bn::BigInt(7));
    std::atomic<int> winners{0};
    std::atomic<int> already_exists{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&w, &winners, &already_exists, id] {
        try {
          TpaClient(w.owner_tpa0_).start_audit(0, id);
          winners.fetch_add(1);
        } catch (const net::RemoteError& e) {
          if (e.status() == net::Status::kAlreadyExists) {
            already_exists.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(winners.load(), 1) << "round " << round;
    EXPECT_EQ(already_exists.load(), static_cast<int>(kThreads) - 1)
        << "round " << round;
  }
}

}  // namespace
}  // namespace ice::proto
