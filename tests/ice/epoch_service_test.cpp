// Epoch engine through the service/wire layer: the kTpaCloseEpoch
// roundtrip, typed kInvalidArgument envelopes for hostile input on the
// dynamics methods (308/312), staged updates surviving an append, the
// epoch-counter stats surface, and the differential suite pinning
// snapshot-isolated audits bit-exact against the quiesced path across
// thread budgets with updates landing mid-audit.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tag.h"
#include "ice/tag_store.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "ice/wire.h"
#include "net/channel.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class EpochServiceTest : public ::testing::Test {
 protected:
  EpochServiceTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {}

  std::vector<bn::BigInt> make_tags(std::size_t n, std::uint64_t seed) {
    return tagger_.tag_all(ice::testing::make_blocks(n, 64, seed));
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  SplitMix64 gen_{0xe9};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

/// Full single-edge deployment (the dynamics_test World, epoch-aware
/// usage): CSP + verifier/helper TPA pair + one edge + user.
struct World {
  World()
      : params(ice::testing::test_params(64)),
        keys(ice::testing::test_keypair_256()),
        csp(mec::BlockStore::synthetic(24, 64, 99)),
        edge_csp(csp),
        edge(0, params, keys.pk,
             mec::EdgeCache(6, mec::EvictionPolicy::kLru), edge_csp),
        edge_channel(edge),
        tpa_edge(edge),
        user_tpa0(tpa0),
        user_tpa1(tpa1),
        user(params, keys, user_tpa0, user_tpa1) {
    tpa0.register_edge(0, tpa_edge);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < csp.store().size(); ++i) {
      blocks.push_back(csp.store().block(i));
    }
    user.setup_file(blocks);
  }

  ProtocolParams params;
  KeyPair keys;
  CspService csp;
  TpaService tpa0;
  TpaService tpa1;
  net::InMemoryChannel edge_csp;
  EdgeService edge;
  net::InMemoryChannel edge_channel;
  net::InMemoryChannel tpa_edge;
  net::InMemoryChannel user_tpa0;
  net::InMemoryChannel user_tpa1;
  UserClient user;
};

TEST_F(EpochServiceTest, CloseEpochWireRoundtrip) {
  World w;
  const TpaClient tpa(w.user_tpa0);
  const TagGenerator tagger(w.keys.pk);
  const Bytes fresh = ice::testing::make_blocks(1, 64, 7)[0];

  // Nothing staged: a close is a no-op at epoch 0.
  const auto idle = tpa.close_epoch(/*force=*/true);
  EXPECT_FALSE(idle.closed);
  EXPECT_EQ(idle.epoch, 0u);
  EXPECT_EQ(idle.rows_merged, 0u);

  // Stage two rows (one restaged), close, and read the merge summary.
  EXPECT_EQ(tpa.update_tag(3, tagger.tag(fresh)), 0u);
  EXPECT_EQ(tpa.update_tag(3, tagger.tag(fresh)), 0u);  // restage dedups
  EXPECT_EQ(tpa.update_tag(9, tagger.tag(fresh)), 0u);
  const auto closed = tpa.close_epoch(/*force=*/true);
  EXPECT_TRUE(closed.closed);
  EXPECT_EQ(closed.epoch, 1u);
  EXPECT_EQ(closed.rows_merged, 2u);

  // The next staged update reports the advanced epoch.
  EXPECT_EQ(tpa.update_tag(5, tagger.tag(fresh)), 1u);
}

TEST_F(EpochServiceTest, HostileIndexesRefusedWithTypedEnvelopes) {
  World w;  // 24 blocks stored
  const TpaClient tpa(w.user_tpa0);
  const auto expect_invalid = [](auto&& call) {
    try {
      call();
      FAIL() << "expected RemoteError";
    } catch (const net::RemoteError& e) {
      EXPECT_EQ(e.status(), net::Status::kInvalidArgument);
    }
  };
  // kTpaUpdateTag (308): index past the end; oversized and negative-free
  // wire tags (a bigint on the wire is non-negative, so oversized is the
  // reachable hostile case).
  expect_invalid([&] { (void)tpa.update_tag(24, bn::BigInt(1)); });
  expect_invalid([&] {
    (void)tpa.update_tag(0, bn::BigInt(1) << w.params.tag_bits());
  });
  // kTpaAppendTag (312): oversized tag.
  expect_invalid([&] {
    (void)tpa.append_tag(bn::BigInt(1) << w.params.tag_bits());
  });
  // A clean refusal leaves the store untouched: nothing staged, no epoch
  // movement, and ordinary audits still pass.
  EXPECT_EQ(w.tpa0.epoch_stats().db.staged_rows, 0u);
  EXPECT_FALSE(tpa.close_epoch(/*force=*/true).closed);
  const EdgeClient edge(w.edge_channel);
  (void)edge.read(2);
  EXPECT_TRUE(w.user.audit_edge(w.edge_channel, 0));
}

TEST_F(EpochServiceTest, DynamicsMethodsBeforeStoreAreFailedPrecondition) {
  TpaService tpa_service;
  net::InMemoryChannel ch(tpa_service);
  const TpaClient tpa(ch);
  const auto expect_precondition = [](auto&& call) {
    try {
      call();
      FAIL() << "expected RemoteError";
    } catch (const net::RemoteError& e) {
      EXPECT_EQ(e.status(), net::Status::kFailedPrecondition);
    }
  };
  expect_precondition([&] { (void)tpa.update_tag(0, bn::BigInt(1)); });
  expect_precondition([&] { (void)tpa.tag_info(); });
  expect_precondition([&] { (void)tpa.append_tag(bn::BigInt(1)); });
  expect_precondition([&] { (void)tpa.close_epoch(true); });
}

// UserClient storm path end-to-end: update_block stages at both replicas
// (audits still pass via the session note over the dirty block),
// close_epochs merges in lockstep, and the retrieved tag flips to the
// fresh content exactly at the close.
TEST_F(EpochServiceTest, UpdateBlockThenCloseEpochsCommitsAtBothReplicas) {
  World w;
  const EdgeClient edge(w.edge_channel);
  (void)edge.read(3);
  const Bytes fresh = ice::testing::make_blocks(1, 64, 11)[0];
  edge.write(3, fresh);
  w.user.note_updated_block(3, fresh);

  const TagGenerator tagger(w.keys.pk);
  const bn::BigInt old_tag = w.user.retrieve_tags({3})[0];
  const std::uint64_t staged_epoch = w.user.update_block(3, fresh);
  EXPECT_EQ(staged_epoch, 0u);

  // Mid-storm: the stored tag is still the epoch-0 snapshot; the audit
  // passes because the session note covers the dirty block.
  EXPECT_EQ(w.user.retrieve_tags({3})[0], old_tag);
  EXPECT_TRUE(w.user.audit_edge(w.edge_channel, 0));

  EXPECT_EQ(edge.flush(), 1u);
  EXPECT_TRUE(w.user.close_epochs());
  w.user.forget_updated_block(3);
  EXPECT_EQ(w.user.retrieve_tags({3})[0], tagger.tag(fresh));
  EXPECT_TRUE(w.user.audit_edge(w.edge_channel, 0));

  // Both replicas closed in lockstep.
  EXPECT_EQ(w.tpa0.epoch_stats().db.epochs_closed, 1u);
  EXPECT_EQ(w.tpa1.epoch_stats().db.epochs_closed, 1u);
  EXPECT_EQ(w.tpa0.epoch_stats().db.rows_merged, 1u);
}

TEST_F(EpochServiceTest, EpochStatsSurfaceCountsPinsAndMerges) {
  World w;
  EXPECT_EQ(w.tpa1.epoch_stats().pins_taken, 0u);  // helper never audits

  const EdgeClient edge(w.edge_channel);
  (void)edge.read(1);
  ASSERT_TRUE(w.user.audit_edge(w.edge_channel, 0));
  const auto after_audit = w.tpa0.epoch_stats();
  EXPECT_EQ(after_audit.pins_taken, 1u);  // the session pinned a snapshot
  EXPECT_EQ(after_audit.pins_active, 0u);  // ...and released it at verdict
  EXPECT_EQ(after_audit.closes_skipped, 0u);

  const Bytes fresh = ice::testing::make_blocks(1, 64, 21)[0];
  w.user.note_updated_block(2, fresh);
  (void)w.user.update_block(2, fresh);
  EXPECT_EQ(w.tpa0.epoch_stats().db.staged_rows, 1u);
  ASSERT_TRUE(w.user.close_epochs());
  w.user.forget_updated_block(2);

  const auto stats = w.tpa0.epoch_stats();
  EXPECT_EQ(stats.db.epochs_closed, 1u);
  EXPECT_EQ(stats.db.rows_merged, 1u);
  EXPECT_EQ(stats.db.staged_rows, 0u);
}

// Over the wire: after a store, one staged update and a close at both
// replicas, a tag query decodes the merged tag beside untouched ones.
TEST_F(EpochServiceTest, StoreStageCloseThenQueryDecodesMergedTag) {
  const auto tags = make_tags(24, 11);
  const bn::BigInt fresh = make_tags(1, 12)[0];
  TpaService tpa0;
  TpaService tpa1;
  net::InMemoryChannel ch0(tpa0);
  net::InMemoryChannel ch1(tpa1);
  const TpaClient clients[] = {TpaClient(ch0), TpaClient(ch1)};
  for (const TpaClient& tpa : clients) {
    tpa.set_key(keys_.pk, params_);
    tpa.store_tags(tags);
    EXPECT_EQ(tpa.update_tag(5, fresh), 0u);
    ASSERT_TRUE(tpa.close_epoch(/*force=*/true).closed);
  }

  const TagInfo info = clients[0].tag_info();
  const pir::Embedding embedding(info.n);
  const pir::PirClient client(embedding, keys_.pk.modulus_bits());
  auto enc = client.encode(std::vector<std::size_t>{5, 7, 23}, rng_);
  const pir::PirResponse r0 =
      clients[0].tag_query({info.epoch, std::move(enc.queries[0])});
  const pir::PirResponse r1 =
      clients[1].tag_query({info.epoch, std::move(enc.queries[1])});
  EXPECT_EQ(client.decode(enc.secrets, r0, r1),
            (std::vector<bn::BigInt>{fresh, tags[7], tags[23]}));
}

// A staged update must survive an append: the append adds a row and grows
// the embedding, and the staged rows stay where they are, still invisible
// until the close.
TEST_F(EpochServiceTest, StagedUpdateSurvivesAppend) {
  const auto tags = make_tags(16, 3);
  TagStore store(params_, tags);

  const bn::BigInt fresh = make_tags(1, 4)[0];
  store.update(2, fresh);
  store.update(15, fresh);
  EXPECT_EQ(store.staged_updates(), 2u);

  const bn::BigInt extra = make_tags(1, 5)[0];
  EXPECT_EQ(store.append(extra), 16u);
  EXPECT_EQ(store.staged_updates(), 2u) << "staged rows dropped by append";
  EXPECT_EQ(store.tag(2), tags[2]);  // both still invisible
  EXPECT_EQ(store.tag(15), tags[15]);

  const auto closed = store.close_epoch(/*force=*/true);
  EXPECT_TRUE(closed.closed);
  EXPECT_EQ(closed.rows_merged, 2u);
  EXPECT_EQ(store.tag(2), fresh);
  EXPECT_EQ(store.tag(15), fresh);
  EXPECT_EQ(store.tag(16), extra);
}

// The acceptance differential: snapshot-isolated retrieval rounds with
// updates landing MID-AUDIT (between plan and respond) must be bit-exact
// with the quiesced pre-storm state, across thread budgets, all from one
// seed; after the close the same round decodes the merged state.
TEST_F(EpochServiceTest, SnapshotAuditsBitExactAcrossThreadBudgetsMidUpdate) {
  constexpr std::size_t kN = 96;
  const auto tags = make_tags(kN, 6);
  const auto fresh = make_tags(12, 8);
  const std::vector<std::size_t> wanted = {0, 95, 13, 13, 47, 62, 31, 1};

  const std::size_t thread_budgets[] = {1, 2, 0};

  for (const std::size_t threads : thread_budgets) {
    ProtocolParams p = params_;
    p.parallelism = threads;
    TagStore tpa0(p, tags);
    TagStore tpa1(p, tags);
    const pir::Embedding embedding(kN);
    const pir::PirClient client(embedding, tpa0.tag_bits());
    SplitMix64 gen(0x5eed);  // same seed for every configuration
    bn::Rng64Adapter<SplitMix64> rng(gen);
    const std::uint64_t epoch = tpa0.epoch();
    const auto enc = client.encode(wanted, rng);

    // The storm lands mid-audit: after the challenge is planned,
    // before either replica evaluates.
    for (std::size_t u = 0; u < fresh.size(); ++u) {
      tpa0.update((u * 17) % kN, fresh[u]);
      tpa1.update((u * 17) % kN, fresh[u]);
    }

    pir::PirResponse r0, r1;
    tpa0.respond(epoch, enc.queries[0], r0);
    tpa1.respond(epoch, enc.queries[1], r1);
    const auto got = client.decode(enc.secrets, r0, r1);
    ASSERT_EQ(got.size(), wanted.size());
    for (std::size_t l = 0; l < wanted.size(); ++l) {
      EXPECT_EQ(got[l], tags[wanted[l]]) << "threads=" << threads
                                         << " l=" << l;
    }

    // Close both replicas and re-run: the merged state decodes.
    ASSERT_TRUE(tpa0.close_epoch(/*force=*/true).closed);
    ASSERT_TRUE(tpa1.close_epoch(/*force=*/true).closed);
    const auto after = retrieve_tags_direct(tpa0, tpa1, wanted, rng);
    for (std::size_t l = 0; l < wanted.size(); ++l) {
      EXPECT_EQ(after[l], tpa0.tag(wanted[l]));
    }
  }
}

}  // namespace
}  // namespace ice::proto
