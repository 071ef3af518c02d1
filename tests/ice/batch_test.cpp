// ICE-batch protocol tests: completeness across overlapping edges,
// soundness against a single bad edge, and aggregation input validation.
#include "ice/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "common/error.h"
#include "common/rng.h"
#include "ice/tag.h"
#include "mec/corruption.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk),
        file_(ice::testing::make_blocks(20, 128, 42)),
        tags_(tagger_.tag_all(file_)) {}

  /// Blocks for one edge's set.
  std::vector<Bytes> blocks_for(const std::vector<std::size_t>& set) const {
    std::vector<Bytes> out;
    for (std::size_t k : set) out.push_back(file_[k]);
    return out;
  }

  /// Tags (true values) for union indices.
  std::vector<bn::BigInt> tags_for(const std::vector<std::size_t>& u) const {
    std::vector<bn::BigInt> out;
    for (std::size_t k : u) out.push_back(tags_[k]);
    return out;
  }

  /// Full transport-free batch round; `tamper` may mutate edge blocks.
  bool run_batch(const std::vector<std::vector<std::size_t>>& sets,
                 std::function<void(std::vector<std::vector<Bytes>>&)>
                     tamper = nullptr) {
    ChallengeSecret secret;
    const Challenge base = make_challenge(keys_.pk, params_, rng_, secret);
    const auto keys = draw_challenge_keys(params_, sets.size(), rng_);
    std::vector<std::vector<Bytes>> edge_blocks;
    for (const auto& s : sets) edge_blocks.push_back(blocks_for(s));
    if (tamper) tamper(edge_blocks);
    std::vector<Proof> proofs;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      const Challenge edge_chal{keys[j], base.g_s, {}};
      proofs.push_back(make_proof(keys_.pk, params_, edge_blocks[j],
                                  edge_chal, bn::BigInt(1)));
    }
    const auto u = union_of_sets(sets);
    const auto repacked =
        batch_repack(keys_.pk, params_, u, tags_for(u), sets, keys);
    return verify_batch(keys_.pk, repacked, proofs, secret);
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  std::vector<Bytes> file_;
  std::vector<bn::BigInt> tags_;
  SplitMix64 gen_{0xba7c4};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(BatchTest, HonestDisjointEdgesPass) {
  EXPECT_TRUE(run_batch({{0, 1, 2}, {3, 4, 5}, {6, 7}}));
}

TEST_F(BatchTest, HonestOverlappingEdgesPass) {
  EXPECT_TRUE(run_batch({{0, 1, 2}, {1, 2, 3}, {0, 2, 4}}));
}

TEST_F(BatchTest, IdenticalEdgeSetsPass) {
  EXPECT_TRUE(run_batch({{5, 6, 7}, {5, 6, 7}, {5, 6, 7}}));
}

TEST_F(BatchTest, SingleEdgeBatchPasses) {
  EXPECT_TRUE(run_batch({{0, 9, 19}}));
}

TEST_F(BatchTest, ManyEdgesFromHotSetPass) {
  // The paper's Fig. 7 workload: each edge draws 3 blocks of a 10-block set.
  std::vector<std::vector<std::size_t>> sets;
  for (int j = 0; j < 10; ++j) {
    std::vector<std::size_t> s;
    while (s.size() < 3) {
      const std::size_t c = gen_.below(10);
      if (std::find(s.begin(), s.end(), c) == s.end()) s.push_back(c);
    }
    std::sort(s.begin(), s.end());
    sets.push_back(std::move(s));
  }
  EXPECT_TRUE(run_batch(sets));
}

TEST_F(BatchTest, OneCorruptedEdgeFailsBatch) {
  EXPECT_FALSE(run_batch({{0, 1, 2}, {3, 4, 5}}, [this](auto& blocks) {
    mec::corrupt_block(blocks[1][0], mec::CorruptionKind::kBitFlip, gen_);
  }));
}

TEST_F(BatchTest, CorruptionOnSharedBlockFailsBatch) {
  EXPECT_FALSE(run_batch({{0, 1, 2}, {1, 2, 3}}, [this](auto& blocks) {
    mec::corrupt_block(blocks[0][1], mec::CorruptionKind::kGarbage, gen_);
  }));
}

TEST_F(BatchTest, MissingBlockOnOneEdgeFailsBatch) {
  EXPECT_FALSE(run_batch({{0, 1, 2}, {3, 4, 5}},
                         [](auto& blocks) { blocks[0].pop_back(); }));
}

TEST_F(BatchTest, UnionOfSetsDeduplicatesAndSorts) {
  EXPECT_EQ(union_of_sets({{3, 1}, {2, 1}, {3}}),
            (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_TRUE(union_of_sets({}).empty());
}

TEST_F(BatchTest, RepackValidatesInputs) {
  const std::vector<std::vector<std::size_t>> sets = {{0, 1}};
  const auto keys = draw_challenge_keys(params_, 1, rng_);
  const auto u = union_of_sets(sets);
  // indices/tags mismatch
  EXPECT_THROW(
      batch_repack(keys_.pk, params_, u, {tags_[0]}, sets, keys),
      ParamError);
  // sets/keys mismatch
  EXPECT_THROW(batch_repack(keys_.pk, params_, u, tags_for(u), sets, {}),
               ParamError);
  // union index not covered by any edge
  EXPECT_THROW(batch_repack(keys_.pk, params_, {0, 1, 2},
                            tags_for({0, 1, 2}), sets, keys),
               ParamError);
  // edge set mentions index missing from the union
  EXPECT_THROW(batch_repack(keys_.pk, params_, {0}, tags_for({0}), sets,
                            keys),
               ParamError);
}

TEST_F(BatchTest, VerifyValidatesInputs) {
  ChallengeSecret secret;
  (void)make_challenge(keys_.pk, params_, rng_, secret);
  EXPECT_THROW(verify_batch(keys_.pk, {}, {Proof{bn::BigInt(1)}}, secret),
               ParamError);
  EXPECT_THROW(verify_batch(keys_.pk, {bn::BigInt(1)}, {}, secret),
               ParamError);
}

TEST_F(BatchTest, ChallengeKeysAreFreshAndBounded) {
  const auto keys = draw_challenge_keys(params_, 8, rng_);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(keys[i].is_zero());
    EXPECT_LE(keys[i].bit_length(), params_.challenge_key_bits);
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]);
    }
  }
  EXPECT_THROW(draw_challenge_keys(params_, 0, rng_), ParamError);
  // kappa = 0 leaves only e = 0, which the draw retries forever; a key
  // wider than the PRF's 256-bit key only adds bytes.
  for (const std::size_t kappa : {std::size_t{0}, kMaxChallengeKeyBits + 1}) {
    SCOPED_TRACE(kappa);
    ProtocolParams p = params_;
    p.challenge_key_bits = kappa;
    EXPECT_THROW(draw_challenge_keys(p, 1, rng_), ParamError);
    ChallengeSecret secret;
    EXPECT_THROW(make_challenge(keys_.pk, p, rng_, secret), ParamError);
  }
  ProtocolParams widest = params_;
  widest.challenge_key_bits = kMaxChallengeKeyBits;
  EXPECT_LE(draw_challenge_keys(widest, 1, rng_)[0].bit_length(),
            kMaxChallengeKeyBits);
}

}  // namespace
}  // namespace ice::proto
