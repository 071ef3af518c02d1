// Distributed end-to-end test: every entity behind a real TCP server on
// loopback, the user driving complete ICE-basic and ICE-batch rounds over
// sockets — the closest analogue of the paper's physical testbed.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mec/corruption.h"
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

}  // namespace
}  // namespace ice::proto
