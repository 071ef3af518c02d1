// Data dynamics and multi-user end-to-end behaviour: incremental tag
// updates after write-back, tenant isolation, and the cache-churn race.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "net/tenant.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

/// One edge (6-block cache) over a 24-block file of seed 99, set up.
struct World : sim::Deployment {
  World()
      : sim::Deployment(ice::testing::test_params(64),
                        ice::testing::test_keypair_256(), 24, 1, 6, 99) {
    setup();
  }
};

TEST(DynamicsTest, CommitAfterFlushKeepsAuditsGreen) {
  World w;
  const EdgeClient edge(w.user_edge(0));
  (void)edge.read(3);
  (void)edge.read(9);
  const Bytes fresh = ice::testing::make_blocks(1, 64, 1)[0];
  edge.write(3, fresh);
  w.user().note_updated_block(3, fresh);

  // Write back, then commit the tag incrementally.
  EXPECT_EQ(edge.flush(), 1u);
  w.user().commit_updated_block(3, fresh);
  EXPECT_TRUE(w.user().updated_blocks().empty());

  // Audit now relies purely on the updated stored tag — no session note.
  EXPECT_TRUE(w.user().audit_edge(w.user_edge(0), 0));
  // The privately retrieved tag equals a fresh tag of the new content.
  const TagGenerator tagger(w.keys().pk);
  EXPECT_EQ(w.user().retrieve_tags({3})[0], tagger.tag(fresh));
}

TEST(DynamicsTest, StaleTagWithoutCommitFailsAfterNoteDropped) {
  World w;
  const EdgeClient edge(w.user_edge(0));
  (void)edge.read(3);
  const Bytes fresh = ice::testing::make_blocks(1, 64, 2)[0];
  edge.write(3, fresh);
  w.user().note_updated_block(3, fresh);
  EXPECT_TRUE(w.user().audit_edge(w.user_edge(0), 0));  // note covers it
  w.user().forget_updated_block(3);                     // ...but no commit
  EXPECT_FALSE(w.user().audit_edge(w.user_edge(0), 0));
}

TEST(DynamicsTest, UpdateTagValidation) {
  World w;
  const TpaClient tpa(w.user_tpa(0));
  EXPECT_THROW(tpa.update_tag(24, bn::BigInt(1)), ProtocolError);  // range
  EXPECT_THROW(w.user().commit_updated_block(24, Bytes{1}), ParamError);
}

TEST(DynamicsTest, CacheChurnBetweenIndexQueryAndChallengeFailsClosed) {
  // If the cache changes between the user's IndexQuery and the TPA's
  // challenge, the proof covers different blocks than the retrieved tags.
  // The audit must FAIL (closed), never pass with mismatched sets.
  World w;
  const EdgeClient edge(w.user_edge(0));
  for (std::size_t i = 0; i < 6; ++i) (void)edge.read(i);  // cache full
  const auto s_j = edge.index_query();
  ASSERT_EQ(s_j.size(), 6u);
  // Another user's read evicts block 0 and admits block 20.
  (void)edge.read(20);
  // Manual audit round using the STALE S_j.
  SplitMix64 gen(5);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt s_tilde = draw_blinding(w.keys().pk, rng);
  edge.share_blinding(777, s_tilde);
  const TpaClient tpa(w.user_tpa(0));
  tpa.start_audit(0, 777);
  const auto tags = w.user().retrieve_tags(s_j);
  EXPECT_FALSE(tpa.submit_repacked(777, tpa.tag_info().generation,
                                   repack_tags(w.keys().pk, tags, s_tilde)));
}

TEST(DynamicsTest, TenantIsolatedTpasServeTwoUsers) {
  // Two users with different keys and files share one multi-tenant TPA
  // pair; each audits its own edge; verdicts and tag stores are isolated.
  const auto factory = [](std::uint64_t) {
    return std::make_unique<TpaService>();
  };
  net::MultiTenantHandler tpa0(factory);
  net::MultiTenantHandler tpa1(factory);

  struct Tenant {
    Tenant(std::uint64_t id, net::MultiTenantHandler& t0,
           net::MultiTenantHandler& t1)
        : params(ice::testing::test_params(64)),
          keys(ice::testing::test_keypair_256(id)),
          csp(mec::BlockStore::synthetic(12, 64, id)),
          edge_csp(csp),
          edge(0, params, keys.pk,
               mec::EdgeCache(4, mec::EvictionPolicy::kLru), edge_csp),
          edge_channel(edge),
          tpa_edge(edge),
          raw0(t0),
          raw1(t1),
          ch0(raw0, id),
          ch1(raw1, id),
          user(params, keys, ch0, ch1) {
      dynamic_cast<TpaService&>(t0.tenant(id)).register_edge(0, tpa_edge);
      std::vector<Bytes> blocks;
      for (std::size_t i = 0; i < csp.store().size(); ++i) {
        blocks.push_back(csp.store().block(i));
      }
      user.setup_file(blocks);
      edge.pre_download({1, 2, 3});
    }
    ProtocolParams params;
    KeyPair keys;
    CspService csp;
    net::InMemoryChannel edge_csp;
    EdgeService edge;
    net::InMemoryChannel edge_channel;
    net::InMemoryChannel tpa_edge;
    net::InMemoryChannel raw0;
    net::InMemoryChannel raw1;
    net::TenantChannel ch0;
    net::TenantChannel ch1;
    UserClient user;
  };

  Tenant alice(1, tpa0, tpa1);
  Tenant bob(2, tpa0, tpa1);
  EXPECT_TRUE(alice.user.audit_edge(alice.edge_channel, 0));
  EXPECT_TRUE(bob.user.audit_edge(bob.edge_channel, 0));

  // Corrupt bob's edge: bob fails, alice still passes.
  SplitMix64 rng(6);
  mec::corrupt_random_blocks(bob.edge.cache_for_corruption(), 1,
                             mec::CorruptionKind::kGarbage, rng);
  EXPECT_FALSE(bob.user.audit_edge(bob.edge_channel, 0));
  EXPECT_TRUE(alice.user.audit_edge(alice.edge_channel, 0));
  EXPECT_EQ(tpa0.tenant_count(), 2u);
}

}  // namespace
}  // namespace ice::proto
