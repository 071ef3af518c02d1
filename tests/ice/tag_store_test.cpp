// Tests for the TPA tag store and the direct 2-replica private retrieval.
#include "ice/tag_store.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "ice/tag.h"
#include "pir/client.h"
#include "pir/embedding.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class TagStoreTest : public ::testing::Test {
 protected:
  TagStoreTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk) {}

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  SplitMix64 gen_{0x7a9};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(TagStoreTest, RejectsEmptyTagSet) {
  EXPECT_THROW(TagStore(params_, {}), ParamError);
}

TEST_F(TagStoreTest, StoresAndReadsBack) {
  const auto blocks = ice::testing::make_blocks(12, 64, 1);
  const auto tags = tagger_.tag_all(blocks);
  TagStore store(params_, tags);
  EXPECT_EQ(store.n(), 12u);
  EXPECT_EQ(store.tag_bits(), params_.tag_bits());
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(store.tag(i), tags[i]);
}

TEST_F(TagStoreTest, UpdateStagesUntilEpochClose) {
  const auto blocks = ice::testing::make_blocks(4, 64, 2);
  const auto tags = tagger_.tag_all(blocks);
  TagStore store(params_, tags);
  const bn::BigInt fresh = tagger_.tag(ice::testing::make_blocks(1, 64, 3)[0]);
  store.update(2, fresh);
  EXPECT_EQ(store.tag(2), tags[2]);  // snapshot isolation: staged only
  EXPECT_EQ(store.staged_updates(), 1u);
  const auto closed = store.close_epoch();
  EXPECT_TRUE(closed.closed);
  EXPECT_EQ(closed.rows_merged, 1u);
  EXPECT_EQ(store.tag(2), fresh);
  EXPECT_EQ(store.epoch(), closed.epoch);
}

TEST_F(TagStoreTest, DirectRetrievalRecoversExactTags) {
  const auto blocks = ice::testing::make_blocks(30, 64, 5);
  const auto tags = tagger_.tag_all(blocks);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);
  const std::vector<std::size_t> wanted = {0, 7, 7, 29, 15};
  const auto got = retrieve_tags_direct(tpa0, tpa1, wanted, rng_);
  ASSERT_EQ(got.size(), wanted.size());
  for (std::size_t l = 0; l < wanted.size(); ++l) {
    EXPECT_EQ(got[l], tags[wanted[l]]);
  }
}

// The thread-budget differential: serial, bounded and hardware budgets, all
// driven by the SAME seed and challenge (repeated and end-of-file indexes
// included), return byte-identical tag lists that are the stored tags.
TEST_F(TagStoreTest, RetrievalBitExactAcrossThreadBudgets) {
  constexpr std::size_t kN = 96;
  const auto tags = tagger_.tag_all(ice::testing::make_blocks(kN, 64, 1));
  const std::vector<std::size_t> wanted = {0,  95, 13, 13, 47, 48,
                                           77, 3,  62, 31, 90, 1};
  std::vector<bn::BigInt> baseline;  // serial result
  for (const std::size_t threads : {1, 2, 0}) {
    ProtocolParams p = params_;
    p.parallelism = threads;
    const TagStore tpa0(p, tags);
    const TagStore tpa1(p, tags);
    SplitMix64 gen(0xd1ff);  // same seed for every budget
    bn::Rng64Adapter<SplitMix64> rng(gen);
    const auto got = retrieve_tags_direct(tpa0, tpa1, wanted, rng);
    ASSERT_EQ(got.size(), wanted.size());
    for (std::size_t l = 0; l < wanted.size(); ++l) {
      EXPECT_EQ(got[l], tags[wanted[l]]) << "threads=" << threads
                                         << " l=" << l;
    }
    if (baseline.empty()) {
      baseline = got;
    } else {
      EXPECT_EQ(got, baseline) << "threads=" << threads;
    }
  }
}

// A query planned before a merging close is refused with the typed
// StaleEpochError (the service answers kFailedPrecondition); an empty
// close leaves it valid.
TEST_F(TagStoreTest, StaleQueryEpochIsRejectedTyped) {
  const auto blocks = ice::testing::make_blocks(20, 64, 9);
  const auto tags = tagger_.tag_all(blocks);
  TagStore store(params_, tags);
  const pir::Embedding embedding(store.n());
  const pir::PirClient client(embedding, store.tag_bits());
  const auto enc = client.encode(std::vector<std::size_t>{1, 6}, rng_);
  pir::PirResponse out;
  EXPECT_THROW(store.respond(1, enc.queries[0], out), StaleEpochError);

  EXPECT_FALSE(store.close_epoch().closed);
  EXPECT_NO_THROW(store.respond(0, enc.queries[0], out));
  EXPECT_EQ(out.shape.points, 2u);

  store.update(3, tags[4]);
  ASSERT_TRUE(store.close_epoch().closed);
  EXPECT_THROW(store.respond(0, enc.queries[0], out), StaleEpochError);
  EXPECT_EQ(store.epoch(), 1u);
}

TEST_F(TagStoreTest, RetrievalAfterUpdateAndCloseSeesNewTag) {
  const auto blocks = ice::testing::make_blocks(10, 64, 6);
  const auto tags = tagger_.tag_all(blocks);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_, tags);
  const bn::BigInt fresh = tagger_.tag(ice::testing::make_blocks(1, 64, 7)[0]);
  tpa0.update(3, fresh);
  tpa1.update(3, fresh);
  // Pre-close retrieval decodes the epoch-t snapshot on both replicas.
  const auto pre = retrieve_tags_direct(tpa0, tpa1, {{3}}, rng_);
  EXPECT_EQ(pre[0], tags[3]);
  ASSERT_TRUE(tpa0.close_epoch().closed);
  ASSERT_TRUE(tpa1.close_epoch().closed);
  const auto got = retrieve_tags_direct(tpa0, tpa1, {{3}}, rng_);
  EXPECT_EQ(got[0], fresh);
}

TEST_F(TagStoreTest, MismatchedReplicasRejected) {
  const auto blocks = ice::testing::make_blocks(4, 64, 8);
  const auto tags = tagger_.tag_all(blocks);
  TagStore tpa0(params_, tags);
  TagStore tpa1(params_,
                std::vector<bn::BigInt>(tags.begin(), tags.begin() + 3));
  EXPECT_THROW(retrieve_tags_direct(tpa0, tpa1, {{0}}, rng_), ParamError);
}

}  // namespace
}  // namespace ice::proto
