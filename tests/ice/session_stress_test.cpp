// Concurrent-session stress for the session-core services.
//
// N threads drive interleaved ICE-basic and ICE-batch audits against one
// TPA/edge deployment over shared in-process or TCP channels. This is the
// test the sanitizer presets (asan/tsan, tests/run_sanitizers.sh) lean on:
// it exercises the session tables (one mutex each), the shared_mutex
// config/store paths, the atomic channel counters, the TCP channel's
// pipelined calls, and the
// no-lock-across-channel-call discipline (a lock-order inversion here
// deadlocks; TSan flags it even when it doesn't). The collision and cap
// cases pin the wire status of each session refusal.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ice/wire.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockBytes = 64;

/// One CSP, two edges (caching blocks 0-5 and 4-9), verifier TPA +
/// replica, in-process (or each behind its own TcpServer) at one thread
/// budget, set up by the owner.
class StressWorld : public sim::Deployment {
 public:
  explicit StressWorld(std::size_t parallelism,
                       sim::Transport transport = sim::Transport::kInProcess)
      : sim::Deployment(with_parallelism(parallelism),
                        ice::testing::test_keypair_256(), kBlocks, 2,
                        kBlocks, 5, transport) {
    setup();
    edge(0).pre_download({0, 1, 2, 3, 4, 5});
    edge(1).pre_download({4, 5, 6, 7, 8, 9});
  }

  static ProtocolParams with_parallelism(std::size_t par) {
    ProtocolParams p = ice::testing::test_params(kBlockBytes);
    p.parallelism = par;
    return p;
  }
};

class SessionStressTest : public ::testing::TestWithParam<std::size_t> {};

/// kThreads user threads, each its own session sharing the owner's key
/// pair and the deployment's channels (channels are thread-safe), run
/// interleaved ICE-basic and ICE-batch audits; every one must PASS.
void run_interleaved_audits(std::size_t parallelism,
                            sim::Transport transport) {
  StressWorld w(parallelism, transport);
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 3;

  std::vector<std::thread> threads;
  std::vector<char> ok(kThreads, 0);
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w, &ok, t] {
      UserClient user(ice::testing::test_params(kBlockBytes), w.keys(),
                      w.user_tpa(0), w.user_tpa(1));
      user.attach_file(kBlocks);
      bool good = true;
      try {
        for (int round = 0; round < kRounds; ++round) {
          const std::uint32_t edge_id =
              static_cast<std::uint32_t>((t + round) % 2);
          good &= user.audit_edge(w.user_edge(edge_id), edge_id);
          good &= user.audit_edges_batch(w.user_edges());
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
  EXPECT_EQ(w.tpa(0).audit_log().size(), kThreads * kRounds * 2);
}

TEST_P(SessionStressTest, InterleavedBasicAndBatchAudits) {
  run_interleaved_audits(GetParam(), sim::Transport::kInProcess);
}

// The same over loopback TCP: the four users share the user->TPA0
// connection, so their 310s, 303s, 304s and 307s are in flight on it
// together, each collected by its own waiter or kept for it by another.
TEST_P(SessionStressTest, InterleavedBasicAndBatchAuditsOverTcp) {
  run_interleaved_audits(GetParam(), sim::Transport::kTcp);
}

// parallelism 1 = serial protocol math, 4 = fixed pool fan-out, 0 =
// hardware concurrency (the acceptance matrix for the sanitizer runs).
INSTANTIATE_TEST_SUITE_P(Parallelism, SessionStressTest,
                         ::testing::Values(1u, 4u, 0u));

TEST(SessionCollisionTest, StartAuditRefusesLiveSessionId) {
  StressWorld w(1);
  const TpaClient tpa(w.user_tpa(0));
  const EdgeClient edge(w.user_edge(0));
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
  const TpaClient tpa(w.user_tpa(0));
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
  const EdgeClient edge(w.user_edge(0));
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
  const EdgeClient edge(w.user_edge(0));
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
          TpaClient(w.user_tpa(0)).start_audit(0, id);
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

// The edge holds at most kMaxOpenSessions pending blindings: the next
// share is refused with kResourceExhausted until a challenge takes one.
TEST(SessionCapTest, EdgeRefusesBlindingsPastTheCapUntilAChallengeTakesOne) {
  StressWorld w(1);
  const EdgeClient edge(w.user_edge(0));
  for (std::uint64_t id = 0; id < kMaxOpenSessions; ++id) {
    edge.share_blinding(id, bn::BigInt(7));
  }
  const std::uint64_t next = kMaxOpenSessions;
  try {
    edge.share_blinding(next, bn::BigInt(7));
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kResourceExhausted);
  }
  TpaClient(w.user_tpa(0)).start_audit(0, 0);  // consumes blinding 0
  EXPECT_NO_THROW(edge.share_blinding(next, bn::BigInt(7)));
}

}  // namespace
}  // namespace ice::proto
