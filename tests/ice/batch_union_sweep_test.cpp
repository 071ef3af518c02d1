// ICE-batch union retrieval sweep (paper Sec. V / Fig. 7): J edges with
// overlapping pre-download sets audited in one round through the PARALLEL
// proof path (per-edge make_proof at blinding 1 + batch_repack +
// verify_batch, all under params.parallelism), checking the batch identity
//   prod_j P_j = (prod_k T~_{U,k})^s
// for J in {1, 2, 5} and rejecting a single corrupted block.
#include "ice/batch.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ice/tag.h"
#include "mec/corruption.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

// Overlapping pre-download sets per sweep point; every set after the first
// shares at least one block with another edge so the union is smaller than
// the concatenation (the case ICE-batch exists to make cheap for the TPA).
std::vector<std::vector<std::size_t>> sets_for_edges(std::size_t j) {
  const std::vector<std::vector<std::size_t>> all{
      {0, 1, 2, 3}, {2, 3, 4, 5}, {0, 4, 6}, {1, 5, 6, 7}, {3, 7, 8, 9}};
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(j)};
}

class BatchUnionSweepTest : public ::testing::Test {
 protected:
  BatchUnionSweepTest()
      : params_(ice::testing::test_params()),
        keys_(ice::testing::test_keypair_256()),
        tagger_(keys_.pk),
        file_(ice::testing::make_blocks(10, 128, 77)),
        tags_(tagger_.tag_all(file_)) {}

  /// One batch round over `sets`, each of the J proofs split over the pool.
  bool run_round(const std::vector<std::vector<std::size_t>>& sets,
                 std::size_t parallelism,
                 std::function<void(std::vector<std::vector<Bytes>>&)>
                     tamper = nullptr) {
    ProtocolParams p = params_;
    p.parallelism = parallelism;
    ChallengeSecret secret;
    const Challenge base = make_challenge(keys_.pk, params_, rng_, secret);
    const auto challenge_keys = draw_challenge_keys(p, sets.size(), rng_);
    std::vector<std::vector<Bytes>> edge_blocks;
    for (const auto& s : sets) {
      std::vector<Bytes> blocks;
      for (std::size_t k : s) blocks.push_back(file_[k]);
      edge_blocks.push_back(std::move(blocks));
    }
    if (tamper) tamper(edge_blocks);
    std::vector<Proof> proofs;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      const Challenge edge_chal{challenge_keys[j], base.g_s, {}};
      proofs.push_back(
          make_proof(keys_.pk, p, edge_blocks[j], edge_chal, bn::BigInt(1)));
    }
    const auto u = union_of_sets(sets);
    std::vector<bn::BigInt> union_tags;
    for (std::size_t k : u) union_tags.push_back(tags_[k]);
    const auto repacked =
        batch_repack(keys_.pk, p, u, union_tags, sets, challenge_keys);
    return verify_batch(keys_.pk, repacked, proofs, secret, p.parallelism);
  }

  ProtocolParams params_;
  KeyPair keys_;
  TagGenerator tagger_;
  std::vector<Bytes> file_;
  std::vector<bn::BigInt> tags_;
  SplitMix64 gen_{0xf1e7};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST_F(BatchUnionSweepTest, HonestRoundsPassAcrossEdgeCounts) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t j : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    for (std::size_t t : {std::size_t{1}, std::size_t{2}, hw}) {
      EXPECT_TRUE(run_round(sets_for_edges(j), t))
          << "J=" << j << " threads=" << t;
    }
  }
}

TEST_F(BatchUnionSweepTest, UnionIsSmallerThanConcatenationAtFiveEdges) {
  const auto sets = sets_for_edges(5);
  std::size_t concat = 0;
  for (const auto& s : sets) concat += s.size();
  EXPECT_LT(union_of_sets(sets).size(), concat);
}

TEST_F(BatchUnionSweepTest, CorruptedBlockFailsEveryEdgeCount) {
  for (std::size_t j : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    EXPECT_FALSE(run_round(sets_for_edges(j), /*parallelism=*/0,
                           [this, j](auto& blocks) {
                             mec::corrupt_block(blocks[j - 1][0],
                                                mec::CorruptionKind::kBitFlip,
                                                gen_);
                           }))
        << "J=" << j;
  }
}

TEST_F(BatchUnionSweepTest, CorruptionOnSharedBlockFailsParallelRound) {
  // Block 2 is held by both edge 0 and edge 1; corrupting only edge 0's
  // replica must still sink the whole batch.
  EXPECT_FALSE(run_round(sets_for_edges(2), /*parallelism=*/0,
                         [this](auto& blocks) {
                           mec::corrupt_block(
                               blocks[0][2],
                               mec::CorruptionKind::kGarbage, gen_);
                         }));
}

}  // namespace
}  // namespace ice::proto
