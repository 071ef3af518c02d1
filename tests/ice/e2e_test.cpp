// End-to-end ICE tests: all four entities wired through in-memory RPC
// channels, exercising the complete information flow of paper Fig. 1 —
// including corruption detection, data dynamics, write-back, and the
// communication accounting the protocol promises.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mec/corruption.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

/// CSP, two TPAs, `num_edges` edges and a user over the test key, with
/// a synthetic file of file seed 777.
class Deployment : public sim::Deployment {
 public:
  Deployment(std::size_t n_blocks, std::size_t block_bytes,
             std::size_t num_edges, std::size_t cache_capacity)
      : sim::Deployment(ice::testing::test_params(block_bytes),
                        ice::testing::test_keypair_256(), n_blocks,
                        num_edges, cache_capacity, 777) {}
};

TEST(E2eTest, HonestEdgePassesAudit) {
  Deployment d(20, 64, 1, 8);
  d.setup();
  d.edge(0).pre_download({2, 5, 7, 11});
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(E2eTest, EmptyEdgePassesVacuously) {
  Deployment d(10, 64, 1, 4);
  d.setup();
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(E2eTest, CorruptedEdgeFailsAudit) {
  Deployment d(20, 64, 1, 8);
  d.setup();
  d.edge(0).pre_download({1, 2, 3, 4, 5});
  SplitMix64 rng(1);
  mec::corrupt_random_blocks(d.edge(0).cache_for_corruption(), 1,
                             mec::CorruptionKind::kBitFlip, rng);
  EXPECT_FALSE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(E2eTest, AuditReflectsReadDrivenCaching) {
  Deployment d(20, 64, 1, 8);
  d.setup();
  const EdgeClient edge(d.user_edge(0));
  // User reads populate the cache (query-driven pre-download).
  (void)edge.read(3);
  (void)edge.read(9);
  EXPECT_EQ(edge.index_query(), (std::vector<std::size_t>{3, 9}));
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(E2eTest, ReadsReturnTrueContent) {
  Deployment d(10, 64, 1, 4);
  d.setup();
  const EdgeClient edge(d.user_edge(0));
  EXPECT_EQ(edge.read(7), d.csp().store().block(7));
  EXPECT_EQ(edge.read(7), d.csp().store().block(7));  // cached path
}

TEST(E2eTest, UpdatedBlockAuditsCleanlyWithFreshTag) {
  Deployment d(12, 64, 1, 6);
  d.setup();
  const EdgeClient edge(d.user_edge(0));
  (void)edge.read(4);
  (void)edge.read(8);
  // User updates block 4 at the edge (write-back deferred).
  const Bytes new_content = ice::testing::make_blocks(1, 64, 99)[0];
  edge.write(4, new_content);
  d.user().note_updated_block(4, new_content);
  EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(E2eTest, UpdatedBlockWithoutNoteFailsAudit) {
  // The stale stored tag no longer matches the edge's updated content; a
  // user who forgets the update substitution must see a failed audit.
  Deployment d(12, 64, 1, 6);
  d.setup();
  const EdgeClient edge(d.user_edge(0));
  (void)edge.read(4);
  edge.write(4, ice::testing::make_blocks(1, 64, 98)[0]);
  EXPECT_FALSE(d.user().audit_edge(d.user_edge(0), 0));
}

TEST(E2eTest, FlushWritesBackToCsp) {
  Deployment d(12, 64, 1, 6);
  d.setup();
  const EdgeClient edge(d.user_edge(0));
  (void)edge.read(4);
  const Bytes new_content = ice::testing::make_blocks(1, 64, 97)[0];
  edge.write(4, new_content);
  EXPECT_NE(d.csp().store().block(4), new_content);  // delayed
  EXPECT_EQ(edge.flush(), 1u);
  EXPECT_EQ(d.csp().store().block(4), new_content);
  EXPECT_EQ(edge.flush(), 0u);
}

TEST(E2eTest, BatchAuditHonestEdgesPass) {
  Deployment d(30, 64, 3, 8);
  d.setup();
  d.edge(0).pre_download({0, 1, 2});
  d.edge(1).pre_download({1, 2, 3});
  d.edge(2).pre_download({2, 3, 4});
  EXPECT_TRUE(d.user().audit_edges_batch(d.user_edges()));
}

TEST(E2eTest, BatchAuditDetectsOneBadEdge) {
  Deployment d(30, 64, 3, 8);
  d.setup();
  d.edge(0).pre_download({0, 1, 2});
  d.edge(1).pre_download({1, 2, 3});
  d.edge(2).pre_download({2, 3, 4});
  SplitMix64 rng(2);
  mec::corrupt_random_blocks(d.edge(1).cache_for_corruption(), 1,
                             mec::CorruptionKind::kZeroFill, rng);
  EXPECT_FALSE(d.user().audit_edges_batch(d.user_edges()));
}

TEST(E2eTest, RepeatedAuditsUseFreshSessions) {
  Deployment d(20, 64, 1, 8);
  d.setup();
  d.edge(0).pre_download({2, 5, 7});
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(d.user().audit_edge(d.user_edge(0), 0)) << round;
  }
}

TEST(E2eTest, AuditOfUnknownEdgeFails) {
  Deployment d(10, 64, 1, 4);
  d.setup();
  d.edge(0).pre_download({1});
  EXPECT_THROW((void)d.user().audit_edge(d.user_edge(0), 42),
               ProtocolError);
}

TEST(E2eTest, RetrieveTagsMatchesDirectTagging) {
  Deployment d(25, 64, 1, 8);
  d.setup();
  const TagGenerator tagger(d.user().pk());
  const auto tags = d.user().retrieve_tags({0, 13, 24});
  EXPECT_EQ(tags[0], tagger.tag(d.csp().store().block(0)));
  EXPECT_EQ(tags[1], tagger.tag(d.csp().store().block(13)));
  EXPECT_EQ(tags[2], tagger.tag(d.csp().store().block(24)));
}

TEST(E2eTest, TagQueryTrafficIsSublinearInFileSize) {
  // Tab. I promise: TPA->User costs O(n_j K n^{1/3}), far below shipping
  // all n tags. Check the PIR answer is much smaller than the whole tag set.
  Deployment d(60, 64, 1, 8);
  d.setup();
  d.user_tpa(0).reset_stats();
  (void)d.user().retrieve_tags({7});
  const std::uint64_t received = d.user_tpa(0).stats().bytes_received;
  // All 60 tags at 32 bytes each would be ~1920 B before framing; a single
  // PIR response is (1 + gamma) * K GF4 elements = (1+9)*256/4 = 640 B.
  EXPECT_LT(received, 1000u);
  EXPECT_GT(received, 100u);
}

}  // namespace
}  // namespace ice::proto
