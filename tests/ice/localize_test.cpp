// Tests for corruption localization via bisection sub-audits.
#include "ice/localize.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ice/tag.h"
#include "ice/wire.h"
#include "mec/corruption.h"
#include "sim/deployment.h"
#include "support/ice_fixtures.h"
#include "support/recording_channel.h"

namespace ice::proto {
namespace {

/// CSP + 2 TPAs + 1 edge + user over a 64-block file of seed 55; the edge
/// caches the even blocks 0, 2, ..., 2(cached_blocks - 1). corrupt() flips
/// a bit of one cached block.
class LocalizeWorld : public sim::Deployment {
 public:
  explicit LocalizeWorld(std::size_t cached_blocks)
      : sim::Deployment(ice::testing::test_params(64),
                        ice::testing::test_keypair_256(), 64, 1,
                        cached_blocks, 55) {
    setup();
    std::vector<std::size_t> wanted;
    for (std::size_t i = 0; i < cached_blocks; ++i) wanted.push_back(2 * i);
    edge(0).pre_download(wanted);
  }

  void corrupt(std::size_t index) {
    SplitMix64 rng(31 + index);
    mec::corrupt_block(edge(0).cache_for_corruption().raw_block(index),
                       mec::CorruptionKind::kBitFlip, rng);
  }
};

TEST(LocalizeTest, CleanEdgeYieldsNothing) {
  LocalizeWorld w(8);
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_TRUE(result.corrupted.empty());
  EXPECT_EQ(result.proofs_requested, 1u);  // one passing root audit
}

TEST(LocalizeTest, FindsSingleCorruptedBlock) {
  LocalizeWorld w(8);
  w.corrupt(6);
  EXPECT_FALSE(w.user().audit_edge(w.user_edge(0), 0));
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_EQ(result.corrupted, (std::vector<std::size_t>{6}));
  // Bisection over 8 blocks: at most 2*log2(8)+1 = 7 proofs.
  EXPECT_LE(result.proofs_requested, 7u);
}

TEST(LocalizeTest, FindsMultipleCorruptedBlocks) {
  LocalizeWorld w(16);
  w.corrupt(0);
  w.corrupt(14);
  w.corrupt(22);
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_EQ(result.corrupted, (std::vector<std::size_t>{0, 14, 22}));
}

TEST(LocalizeTest, AllBlocksCorrupted) {
  LocalizeWorld w(4);
  for (std::size_t i = 0; i < 4; ++i) w.corrupt(2 * i);
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_EQ(result.corrupted, (std::vector<std::size_t>{0, 2, 4, 6}));
}

TEST(LocalizeTest, CostIsLogarithmicForOneBadBlock) {
  LocalizeWorld w(32);
  w.corrupt(20);
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_EQ(result.corrupted, (std::vector<std::size_t>{20}));
  // One failing path down a depth-5 tree plus sibling passes:
  // worst case 2*5 + 1 = 11 proofs, versus 32 singleton audits.
  EXPECT_LE(result.proofs_requested, 11u);
}

TEST(LocalizeTest, UpdatedBlockIsNotMisreported) {
  LocalizeWorld w(8);
  const EdgeClient edge(w.user_edge(0));
  const Bytes fresh = ice::testing::make_blocks(1, 64, 77)[0];
  edge.write(4, fresh);
  w.user().note_updated_block(4, fresh);
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_TRUE(result.corrupted.empty());
}

TEST(LocalizeTest, InputValidation) {
  LocalizeWorld w(4);
  SplitMix64 gen(1);
  bn::Rng64Adapter rng(gen);
  const EdgeClient edge(w.user_edge(0));
  EXPECT_THROW(localize_corruption(w.keys().pk, w.params(), edge, {0, 1},
                                   {bn::BigInt(1)}, rng),
               ParamError);
}

// The owner's sub-audits are the one audit equation: each 207 carries the
// challenge make_challenge draws from the owner's RNG, in order, and the
// edge answers each with make_proof at blinding 1 over its cached blocks.
TEST(LocalizeTest, SubsetAuditsAreMakeChallengeAndMakeProof) {
  LocalizeWorld w(8);
  w.corrupt(6);
  const PublicKey& pk = w.keys().pk;
  std::vector<std::size_t> cached;
  std::vector<bn::BigInt> tags;
  const TagGenerator tagger(pk);
  for (std::size_t i = 0; i < 8; ++i) {
    cached.push_back(2 * i);
    tags.push_back(tagger.tag(w.csp().store().block(2 * i)));
  }
  ice::testing::RecordingChannel recorder(w.user_edge(0));
  SplitMix64 gen(0x207), twin(0x207);
  bn::Rng64Adapter rng(gen), twin_rng(twin);
  const auto result = localize_corruption(pk, w.params(), EdgeClient(recorder),
                                          cached, tags, rng);
  EXPECT_EQ(result.corrupted, (std::vector<std::size_t>{6}));

  const auto calls = recorder.challenges(kEdgeSubsetProof);
  ASSERT_EQ(calls.size(), result.proofs_requested);
  EXPECT_EQ(calls.front().indices, cached);
  for (const auto& call : calls) {
    ChallengeSecret secret;
    const Challenge drawn = make_challenge(pk, w.params(), twin_rng, secret);
    EXPECT_EQ(call.e, drawn.e);
    EXPECT_EQ(call.g_s, drawn.g_s);
    std::vector<Bytes> blocks;
    for (std::size_t index : call.indices) {
      blocks.push_back(w.edge(0).cache_for_corruption().raw_block(index));
    }
    EXPECT_EQ(call.proof,
              make_proof(pk, w.params(), blocks, drawn, bn::BigInt(1)).p);
  }
}

TEST(LocalizeTest, SubsetProofOfUncachedBlockErrors) {
  LocalizeWorld w(4);
  const EdgeClient edge(w.user_edge(0));
  SplitMix64 gen(2);
  bn::Rng64Adapter rng(gen);
  const bn::BigInt g_s = w.keys().pk.g;
  EXPECT_THROW((void)edge.subset_proof(bn::BigInt(5), g_s, {63}),
               ProtocolError);
}

// A 207 that names one cached block twice is refused with
// kInvalidArgument before any block is copied, and an honest localization
// still finds the corrupted block.
TEST(LocalizeTest, RepeatedSubsetIndexIsRefused) {
  LocalizeWorld w(8);
  w.corrupt(6);
  try {
    (void)EdgeClient(w.user_edge(0))
        .subset_proof(bn::BigInt(5), w.keys().pk.g, {2, 4, 2});
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kInvalidArgument);
  }
  const auto result = w.user().localize_corruption(w.user_edge(0));
  EXPECT_EQ(result.corrupted, (std::vector<std::size_t>{6}));
}

}  // namespace
}  // namespace ice::proto
